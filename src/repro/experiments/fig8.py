"""Fig. 8: CPU vs GPU inference time and GPU speedup.

The paper's Fig. 8 compares end-to-end inference latency on the CPU against
the CPU+GPU configuration for five models and reports the GPU speedup:

* (a) TGAT on Wikipedia and Reddit: the GPU wins by roughly 2-3x at every
  mini-batch size (sampling on the CPU bounds the gain);
* (b) TGN: the GPU speedup grows with the batch size (small batches cannot
  fill the device);
* (c) DyRep and (d) LDG: the GPU never beats the CPU (speedup < 1) because the
  per-event updates are tiny and strictly sequential;
* (e) ASTGNN: modest speedups that improve with batch size.

Each row of this experiment is one (model, dataset, parameter value) pair with
its CPU latency, GPU latency and speedup.
"""

from __future__ import annotations

from .runner import ExperimentResult, Panel, profile_panels

_PAIR = ("cpu", "gpu")

PANELS = (
    Panel("a", "tgat", "wikipedia", _PAIR, "batch_size", (64, 128, 256),
          fixed={"num_neighbors": 20}),
    Panel("a", "tgat", "reddit", _PAIR, "batch_size", (64, 128, 256),
          fixed={"num_neighbors": 20}),
    Panel("b", "tgn", "wikipedia", _PAIR, "batch_size", (128, 1024, 4096)),
    Panel("c", "dyrep", "social-evolution", _PAIR, "batch_size", (16, 32, 64, 128)),
    Panel("d", "ldg", "social-evolution", _PAIR, "batch_size", (16, 32, 64, 128)),
    Panel("e", "astgnn", "pems", _PAIR, "batch_size", (4, 8, 16, 32)),
)


def run(scale: str = "small") -> ExperimentResult:
    """Regenerate the Fig. 8 CPU-vs-GPU comparison."""
    result = ExperimentResult(
        experiment="fig8",
        notes=(
            "Latency is one inference iteration after warm-up on a fresh simulated "
            "machine; speedup = cpu_ms / gpu_ms.  Sweep values are scaled down from "
            "the paper's but cover the same regimes."
        ),
    )
    # Every line runs ("cpu", "gpu"), so consecutive cells are one point's pair.
    cells = profile_panels(PANELS, scale)
    for (point, model, (cpu,)), (_, _, (gpu,)) in zip(cells, cells):
        cpu_ms, gpu_ms = cpu.elapsed_ms, gpu.elapsed_ms
        result.add_row(
            model=model.describe().name, dataset=point.panel.dataset,
            parameter=point.parameter, value=point.value,
            cpu_ms=round(cpu_ms, 3), gpu_ms=round(gpu_ms, 3),
            speedup=round(cpu_ms / gpu_ms, 3),
        )
    return result
