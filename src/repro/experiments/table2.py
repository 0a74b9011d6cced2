"""Table 2: GPU warm-up overhead of TGN and MolDGNN vs batch size.

The paper's Table 2 reports, for TGN and MolDGNN at batch sizes 8 to 8192,
the per-run GPU warm-up time (lazy allocation before the first iteration) and
the GPU computation time for a fixed workload, and observes that the warm-up
share of GPU working time grows with the batch size: the warm-up is roughly
constant (5-10 ms) while the computation for the fixed workload shrinks as
larger batches amortise the per-iteration kernel overheads.

For each configuration this experiment creates a fresh machine, performs the
one-time context initialisation outside the measured window (Table 2 excludes
it), profiles the allocation warm-up and one iteration, and scales the
per-iteration GPU working time to the fixed workload size -- the same
accounting the paper uses.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

from ..core import Profiler
from ..models.registry import build_on_fresh_machine
from .runner import ExperimentResult, Panel, panel_points

#: The paper's Table 2 (warm-up ms and its share of GPU working time).
PAPER_TABLE2: Dict[str, Dict[int, Dict[str, float]]] = {
    "TGN": {
        8: {"warmup_ms": 5.5, "warmup_share": 0.01},
        32: {"warmup_ms": 5.3, "warmup_share": 0.03},
        128: {"warmup_ms": 5.6, "warmup_share": 0.07},
        512: {"warmup_ms": 5.4, "warmup_share": 0.19},
        2048: {"warmup_ms": 5.7, "warmup_share": 0.22},
        8192: {"warmup_ms": 5.5, "warmup_share": 0.48},
    },
    "MolDGNN": {
        8: {"warmup_ms": 5.5, "warmup_share": 0.05},
        32: {"warmup_ms": 10.2, "warmup_share": 0.29},
        128: {"warmup_ms": 9.8, "warmup_share": 0.55},
        512: {"warmup_ms": 10.3, "warmup_share": 0.84},
        2048: {"warmup_ms": 9.8, "warmup_share": 0.93},
        8192: {"warmup_ms": 9.8, "warmup_share": 0.88},
    },
}

_BATCHES = (8, 32, 128, 512, 2048, 8192)

PANELS = (
    Panel("", "tgn", "wikipedia", field="batch_size", values=_BATCHES),
    Panel("", "moldgnn", "iso17", field="batch_size", values=_BATCHES),
)

#: Fixed workload the computation time is normalised to (events for TGN,
#: molecule windows for MolDGNN), mirroring the paper's fixed-dataset runs.
WORKLOAD = 8192


#: The paper's observation on Table 2, checked by :func:`breaks_paper_trend`.
PAPER_TREND = "warm-up share of GPU working time increases with batch size"


def breaks_paper_trend(rows: Sequence[Dict[str, Any]]) -> List[str]:
    """Check Table 2 rows against :data:`PAPER_TREND`, model by model.

    Returns a list of violation descriptions (empty when the trend holds).
    """
    violations: List[str] = []
    previous: Dict[str, Dict[str, Any]] = {}
    for row in sorted(rows, key=lambda row: row["batch_size"]):
        last = previous.get(row["model"])
        if last is not None and row["warmup_share"] < last["warmup_share"]:
            violations.append(
                f"{row['model']}: warm-up share falls from {last['warmup_share']} at batch "
                f"{last['batch_size']} to {row['warmup_share']} at batch {row['batch_size']}"
            )
        previous[row["model"]] = row
    return violations


def run(scale: str = "small") -> ExperimentResult:
    """Regenerate Table 2 for TGN and MolDGNN."""
    result = ExperimentResult(
        experiment="table2",
        notes=(
            "warmup_ms is the per-run allocation warm-up (context creation and "
            "weight upload excluded, as in the paper); computation_ms is the GPU "
            "working time of one iteration scaled to a fixed workload of "
            f"{WORKLOAD} events/windows; warmup_share = warmup / (warmup + computation)."
        ),
    )
    for point in panel_points(PANELS, scale):
        batch_size = point.value
        machine, model = build_on_fresh_machine(
            point.panel.model, point.dataset, use_gpu=True, **point.config
        )
        with machine.activate():
            batch = next(iter(model.iteration_batches()))
            # One-time context creation + weight upload happens before the
            # Table 2 window, exactly as the paper separates "model
            # initialization" (Sec. 4.4) from the per-run warm-up it tabulates.
            machine.initialize_gpu(model_bytes=model.param_bytes())
            profiler = Profiler(machine)
            with profiler.capture("warmup"):
                machine.allocation_warmup(model.batch_footprint_bytes(batch))
            warmup = profiler.last_profile.warmup_ms()
            with profiler.capture("iteration"):
                model.inference_iteration(batch)
        # "Computation" in Table 2 is the time the GPU spends executing kernels
        # (transfers are accounted separately in Fig. 7's Memory Copy rows).
        per_iteration_gpu_ms = profiler.last_profile.device_busy_ms("gpu")
        iterations = max(1, math.ceil(WORKLOAD / batch_size))
        computation = per_iteration_gpu_ms * iterations
        total = warmup + computation
        result.add_row(
            model=model.describe().name,
            batch_size=batch_size,
            warmup_ms=round(warmup, 3),
            computation_ms=round(computation, 3),
            warmup_share=round(warmup / total if total > 0 else 0.0, 4),
            iterations_for_workload=iterations,
            per_iteration_gpu_ms=round(per_iteration_gpu_ms, 3),
        )
    return result
