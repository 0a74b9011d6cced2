"""Fig. 9: ASTGNN GPU-utilization timeline over two inference iterations.

The paper plots GPU utilization over time for ASTGNN inference at batch sizes
4, 8 and 16, annotating the encoder and decoder phases: small batches leave
the GPU idle between phases while at batch 16 the second iteration's encoder
is delayed because the GPU is still draining the previous decoder.

This experiment profiles two consecutive iterations per batch size and emits
both the binned utilization series and per-phase summary statistics.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..core import utilization_report
from ..datasets import load as load_dataset
from ..models import ASTGNNConfig
from ..models.astgnn import ASTGNN
from .runner import ExperimentResult, new_machine, profile_iterations

#: Qualitative expectations from the paper, used by EXPERIMENTS.md and tests.
PAPER_TRENDS: Dict[str, str] = {
    "utilization": "average GPU utilization rises with batch size",
    "idle": "small batches show long idle gaps between encoder/decoder activity",
}

DEFAULT_BATCHES = (4, 8, 16)


def run(
    scale: str = "small",
    batches: Sequence[int] = DEFAULT_BATCHES,
    iterations: int = 2,
    bins: int = 40,
) -> ExperimentResult:
    """Regenerate Fig. 9 for the given batch sizes."""
    result = ExperimentResult(
        experiment="fig9",
        notes=(
            "Rows of kind='summary' give per-batch-size utilization statistics over "
            f"{iterations} iterations; rows of kind='series' give the binned "
            "utilization-over-time curve for plotting."
        ),
    )
    dataset = load_dataset("pems", scale=scale)
    for batch_size in batches:
        machine = new_machine(use_gpu=True)
        with machine.activate():
            model = ASTGNN(machine, dataset, ASTGNNConfig(batch_size=batch_size))
        profiles = profile_iterations(
            model, machine, num_iterations=iterations, label=f"astgnn-b{batch_size}"
        )
        total_elapsed = sum(p.elapsed_ms for p in profiles)
        reports = [
            utilization_report(p, device_kind="gpu", bin_ms=max(p.elapsed_ms / bins, 1e-3))
            for p in profiles
        ]
        average = sum(r.busy_ms for r in reports) / total_elapsed if total_elapsed > 0 else 0.0
        longest_idle = max((r.longest_idle_gap_ms for r in reports), default=0.0)
        result.add_row(
            kind="summary", batch_size=batch_size, iterations=len(profiles),
            average_utilization=round(average, 4),
            peak_utilization=round(max((r.peak for r in reports), default=0.0), 4),
            longest_idle_gap_ms=round(longest_idle, 4),
            total_elapsed_ms=round(total_elapsed, 4),
        )
        offset = 0.0
        for iteration, report in enumerate(reports):
            for point in report.series:
                result.add_row(
                    kind="series", batch_size=batch_size, iteration=iteration,
                    time_ms=round(offset + point.time_ms, 4),
                    utilization=round(point.utilization, 4),
                )
            offset += profiles[iteration].elapsed_ms
    return result
