"""Sec. 4.4 (text): one-time GPU warm-up of TGAT and EvolveGCN.

Besides the per-run allocation warm-up of Table 2, the paper measures the
one-time model-initialisation warm-up -- CUDA context creation, stream
capture and weight upload -- and finds it takes several seconds: 86x, 41x and
33x the time of processing one mini-batch/snapshot for TGAT, EvolveGCN-O and
EvolveGCN-H respectively, and orders of magnitude longer than initialising
the same model on the CPU.

This experiment measures, per model: the one-time GPU warm-up, one
steady-state iteration, their ratio, and an estimate of the CPU-side model
initialisation cost for the GPU/CPU initialisation ratio the paper quotes.
"""

from __future__ import annotations

from ..core import Profiler
from ..models.registry import build_on_fresh_machine
from .runner import ExperimentResult

MODELS = ("tgat", "evolvegcn-o", "evolvegcn-h")


def run(scale: str = "small") -> ExperimentResult:
    """Measure the one-time warm-up vs per-iteration cost of each model."""
    result = ExperimentResult(
        experiment="warmup_onetime",
        notes=(
            "gpu_warmup_ms covers context creation + weight upload + allocation "
            "warm-up; cpu_init_ms estimates host-side weight initialisation (one "
            "pass over the parameters at host memory bandwidth)."
        ),
    )
    for model_name in MODELS:
        machine, model = build_on_fresh_machine(model_name, use_gpu=True, scale=scale)
        with machine.activate():
            batch = next(iter(model.iteration_batches()))
            profiler = Profiler(machine)
            with profiler.capture("warmup"):
                model.warm_up(batch)
            gpu_warmup_ms = profiler.last_profile.elapsed_ms
            with profiler.capture("iteration"):
                model.inference_iteration(batch)
            iteration_ms = profiler.last_profile.elapsed_ms
        # CPU model initialisation: materialising the weights in host memory.
        cpu_spec = machine.cpu.spec
        cpu_init_ms = model.param_bytes() / (cpu_spec.mem_bandwidth_gbps * 1e6) + 1.0
        result.add_row(
            model=model_name,
            gpu_warmup_ms=round(gpu_warmup_ms, 3),
            iteration_ms=round(iteration_ms, 3),
            warmup_per_iteration=round(gpu_warmup_ms / iteration_ms if iteration_ms else 0.0, 1),
            cpu_init_ms=round(cpu_init_ms, 3),
            gpu_vs_cpu_init=round(gpu_warmup_ms / cpu_init_ms if cpu_init_ms else 0.0, 1),
            param_bytes=model.param_bytes(),
        )
    return result
