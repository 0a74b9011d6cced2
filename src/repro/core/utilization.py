"""GPU/CPU utilization analysis (the paper's Fig. 6 and Fig. 9).

Computes average device utilization over a profiling window, binned
utilization-over-time series (Fig. 9's ASTGNN encoder/decoder timeline) and
idle-gap statistics that quantify how long the GPU sits starved while the
host prepares data (the workload-imbalance signature).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .profiler import Profile


@dataclass(frozen=True)
class UtilizationPoint:
    """One bin of a utilization-over-time series."""

    time_ms: float
    utilization: float


@dataclass(frozen=True)
class UtilizationReport:
    """Utilization summary of one device over one profiling window."""

    device: str
    average: float
    peak: float
    series: Tuple[UtilizationPoint, ...]
    busy_ms: float
    idle_ms: float
    longest_idle_gap_ms: float


def utilization_report(
    profile: Profile,
    device_kind: str = "gpu",
    bin_ms: Optional[float] = None,
    include_warmup: bool = False,
) -> UtilizationReport:
    """Build a :class:`UtilizationReport` for one device over a window.

    Args:
        profile: The captured window.
        device_kind: ``"gpu"`` or ``"cpu"`` (or a device name).
        bin_ms: Bin width of the utilization series; defaults to 1/40 of the
            window so every report has a usable curve.
        include_warmup: Whether warm-up intervals count as busy time.
    """
    snapshot = profile.device(device_kind)
    if snapshot is None:
        return UtilizationReport(
            device=device_kind, average=0.0, peak=0.0, series=(), busy_ms=0.0,
            idle_ms=profile.elapsed_ms, longest_idle_gap_ms=profile.elapsed_ms,
        )
    busy = profile.busy_timeline(snapshot.name, include_warmup)
    window = max(profile.elapsed_ms, 1e-9)
    if bin_ms is None:
        bin_ms = window / 40.0
    bin_ms = max(bin_ms, 1e-6)

    series = [
        UtilizationPoint(time_ms=t - profile.start_ms, utilization=utilization)
        for t, utilization in busy.utilization_series(profile.start_ms, profile.end_ms, bin_ms)
    ]

    busy_total = busy.busy_ms(profile.start_ms, profile.end_ms)
    longest_gap = 0.0
    cursor = profile.start_ms
    for run in busy:
        start = max(run.start_ms, profile.start_ms)
        if start > cursor:
            longest_gap = max(longest_gap, start - cursor)
        cursor = max(cursor, min(run.end_ms, profile.end_ms))
    longest_gap = max(longest_gap, profile.end_ms - cursor)

    return UtilizationReport(
        device=snapshot.name,
        average=busy_total / window,
        peak=max((p.utilization for p in series), default=0.0),
        series=tuple(series),
        busy_ms=busy_total,
        idle_ms=window - busy_total,
        longest_idle_gap_ms=longest_gap,
    )


def cpu_busy_gpu_idle_fraction(profile: Profile) -> float:
    """Fraction of the window where the CPU is busy while the GPU is idle.

    This is the quantitative form of the paper's workload-imbalance
    observation: during CPU-side sampling/preprocessing the GPU has nothing
    to execute.
    """
    gpu = profile.device("gpu")
    cpu = profile.device("cpu")
    if gpu is None or cpu is None or profile.elapsed_ms <= 0:
        return 0.0
    cpu_runs = profile.busy_timeline(cpu.name, include_warmup=False)
    gpu_runs = profile.busy_timeline(gpu.name, include_warmup=True)
    # Sample on a fine grid.  Each cell is a bisected window query, so the
    # cost is O(cells * log runs + runs), not cells * runs.
    samples = 512
    step = profile.elapsed_ms / samples
    count = 0
    for i in range(samples):
        lo = profile.start_ms + i * step
        hi = lo + step
        cpu_busy = cpu_runs.busy_ms(lo, hi) > step * 0.5
        gpu_busy = gpu_runs.busy_ms(lo, hi) > step * 0.5
        if cpu_busy and not gpu_busy:
            count += 1
    return count / samples
