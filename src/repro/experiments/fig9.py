"""Fig. 9: ASTGNN GPU-utilization timeline over two inference iterations.

The paper plots GPU utilization over time for ASTGNN inference at batch sizes
4, 8 and 16, annotating the encoder and decoder phases: small batches leave
the GPU idle between phases while at batch 16 the second iteration's encoder
is delayed because the GPU is still draining the previous decoder.

This experiment profiles two consecutive iterations per batch size and emits
both the binned utilization series and per-phase summary statistics.
"""

from __future__ import annotations

from .._compat import ordered_sum
from ..core import utilization_report
from .runner import ExperimentResult, Panel, profile_panels

PANELS = (Panel("", "astgnn", "pems", field="batch_size", values=(4, 8, 16)),)

ITERATIONS = 2
BINS = 40


def run(scale: str = "small") -> ExperimentResult:
    """Regenerate Fig. 9."""
    result = ExperimentResult(
        experiment="fig9",
        notes=(
            "Rows of kind='summary' give per-batch-size utilization statistics over "
            f"{ITERATIONS} iterations; rows of kind='series' give the binned "
            "utilization-over-time curve for plotting."
        ),
    )
    for point, _, profiles in profile_panels(PANELS, scale, iterations=ITERATIONS):
        batch_size = point.value
        total_elapsed = ordered_sum(p.elapsed_ms for p in profiles)
        reports = [
            utilization_report(p, device_kind="gpu", bin_ms=max(p.elapsed_ms / BINS, 1e-3))
            for p in profiles
        ]
        busy = ordered_sum(r.busy_ms for r in reports)
        average = busy / total_elapsed if total_elapsed > 0 else 0.0
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
