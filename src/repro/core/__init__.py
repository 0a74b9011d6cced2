"""Profiling and bottleneck-analysis core (the paper's methodology).

* :class:`Profiler` / :class:`Profile` capture what PyTorch Profiler and
  Nsight Systems capture in the paper: kernels, transfers, synchronisations,
  warm-up and memory activity over a window.
* :func:`compute_breakdown` reproduces the per-module inference breakdowns of
  Fig. 7.
* :func:`utilization_report` reproduces the GPU-utilization analyses of
  Figs. 6 and 9.
* :func:`analyze_profile` detects and ranks the paper's four bottlenecks.
"""

from .bottlenecks import (
    WORKLOAD_IMBALANCE,
    analyze_profile,
    detect_data_movement,
    detect_gpu_warmup,
    detect_temporal_dependency,
    detect_workload_imbalance,
)
from .breakdown import MEMORY_COPY, OTHER, Breakdown, compute_breakdown
from .profiler import DeviceSnapshot, Profile, Profiler
from .stats import LatencySummary, percentile
from .utilization import (
    UtilizationPoint,
    UtilizationReport,
    cpu_busy_gpu_idle_fraction,
    utilization_report,
)

__all__ = [
    "Breakdown",
    "DeviceSnapshot",
    "LatencySummary",
    "MEMORY_COPY",
    "OTHER",
    "Profile",
    "Profiler",
    "UtilizationPoint",
    "UtilizationReport",
    "WORKLOAD_IMBALANCE",
    "analyze_profile",
    "compute_breakdown",
    "cpu_busy_gpu_idle_fraction",
    "detect_data_movement",
    "detect_gpu_warmup",
    "detect_temporal_dependency",
    "detect_workload_imbalance",
    "percentile",
    "utilization_report",
]
