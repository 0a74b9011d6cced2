"""Ablation experiments for the paper's Sec. 5 optimization proposals.

The paper proposes (but does not evaluate) three classes of optimization.
These ablations quantify each one on the simulated platform:

* ``pipeline``  -- EvolveGCN-O with the weight-evolution RNN hoisted off the
  per-snapshot critical path (Sec. 5.2.1 / Fig. 10), measured for real with
  :class:`repro.optim.PipelinedEvolveGCN` against the sequential baseline:
  hoisting reduces the per-window latency.
* ``overlap``   -- the steady-state speedup attainable by overlapping
  CPU-side sampling with device compute (Sec. 5.1.1), estimated from the
  measured TGAT breakdown: it helps but is bounded by the sampling half
  (sampling-bound models gain < 2x).
* ``delta``     -- EvolveGCN with delta snapshot transfer (Sec. 5.2.2),
  measured for real against full per-snapshot re-upload: it removes most of
  the per-snapshot memory-copy time.
"""

from __future__ import annotations

from ..datasets import load as load_dataset
from ..optim import compare_delta_transfer, estimate_overlap_speedup
from .runner import ExperimentResult, profile_cell, profile_pipelining_window

WINDOW = 4
TGAT_CONFIG = {"num_neighbors": 50, "batch_size": 16}


def run(scale: str = "small") -> ExperimentResult:
    """Run all three ablations and report baseline vs optimized numbers."""
    result = ExperimentResult(
        experiment="ablations",
        notes=(
            "pipeline and delta rows are measured on the simulator (real "
            "restructurings); overlap rows are analytic steady-state estimates "
            "from the measured breakdown."
        ),
    )

    # -- Pipelining: EvolveGCN-O over a window of snapshots ----------------------
    # Hoisting only (no device-stream overlap); the stream-pipelined schedule is
    # measured by the `overlap_exec` experiment.
    dataset = load_dataset("bitcoin-alpha", scale=scale)
    sequential_profile, pipelined_profile, analytic, window = profile_pipelining_window(
        dataset, WINDOW, use_streams=False
    )
    result.add_row(
        ablation="pipeline", configuration="sequential",
        latency_ms=round(sequential_profile.elapsed_ms, 3),
        speedup=1.0, window=window,
    )
    result.add_row(
        ablation="pipeline", configuration="pipelined",
        latency_ms=round(pipelined_profile.elapsed_ms, 3),
        speedup=round(sequential_profile.elapsed_ms / max(pipelined_profile.elapsed_ms, 1e-9), 3),
        window=window,
    )
    result.add_row(
        ablation="pipeline", configuration="analytic-overlap-estimate",
        latency_ms=round(analytic.pipelined_ms, 3),
        speedup=round(analytic.speedup, 3), window=window,
    )

    # -- Overlap: TGAT sampling vs device compute ---------------------------------
    wikipedia = load_dataset("wikipedia", scale=scale)
    _, (profile,) = profile_cell("tgat", wikipedia, use_gpu=True, **TGAT_CONFIG)
    overlap = estimate_overlap_speedup(profile)
    result.add_row(
        ablation="overlap", configuration="baseline",
        latency_ms=round(overlap.baseline_ms, 3), speedup=1.0,
        host_ms=round(overlap.host_ms, 3), device_ms=round(overlap.device_ms, 3),
    )
    result.add_row(
        ablation="overlap", configuration="overlapped-estimate",
        latency_ms=round(overlap.overlapped_ms, 3),
        speedup=round(overlap.speedup, 3), bound_by=overlap.bound_by,
    )

    # -- Delta transfer: EvolveGCN snapshot uploads ---------------------------------
    comparison = compare_delta_transfer(dataset, variant="O")
    result.add_row(
        ablation="delta", configuration="full-upload",
        latency_ms=round(comparison.full_iteration_ms, 3),
        memory_copy_ms=round(comparison.full_copy_ms, 3), speedup=1.0,
    )
    result.add_row(
        ablation="delta", configuration="delta-upload",
        latency_ms=round(comparison.delta_iteration_ms, 3),
        memory_copy_ms=round(comparison.delta_copy_ms, 3),
        speedup=round(comparison.iteration_speedup, 3),
        copy_reduction=round(comparison.copy_reduction, 3),
        delta_ratio=round(comparison.average_delta_ratio, 3),
    )
    return result
