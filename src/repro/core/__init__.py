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
    ALL_BOTTLENECKS,
    DATA_MOVEMENT,
    GPU_WARMUP,
    TEMPORAL_DEPENDENCY,
    WORKLOAD_IMBALANCE,
    BottleneckFinding,
    BottleneckReport,
    BottleneckThresholds,
    analyze_profile,
    detect_data_movement,
    detect_gpu_warmup,
    detect_temporal_dependency,
    detect_workload_imbalance,
)
from .breakdown import (
    CUDA_SYNC,
    MEMORY_COPY,
    OTHER,
    WARMUP_LABEL,
    Breakdown,
    BreakdownEntry,
    compute_breakdown,
)
from .profiler import DeviceSnapshot, Profile, Profiler, StreamSnapshot
from .stats import LatencySummary, percentile
from .utilization import (
    UtilizationPoint,
    UtilizationReport,
    cpu_busy_gpu_idle_fraction,
    utilization_report,
)

__all__ = [
    "ALL_BOTTLENECKS",
    "Breakdown",
    "BreakdownEntry",
    "BottleneckFinding",
    "BottleneckReport",
    "BottleneckThresholds",
    "CUDA_SYNC",
    "DATA_MOVEMENT",
    "DeviceSnapshot",
    "GPU_WARMUP",
    "LatencySummary",
    "MEMORY_COPY",
    "OTHER",
    "Profile",
    "Profiler",
    "StreamSnapshot",
    "TEMPORAL_DEPENDENCY",
    "UtilizationPoint",
    "UtilizationReport",
    "WARMUP_LABEL",
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
