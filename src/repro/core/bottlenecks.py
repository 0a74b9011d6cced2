"""Automatic detection of the paper's four DGNN hardware bottlenecks.

The paper's central contribution is the identification of four recurring
bottlenecks in DGNN inference (Sec. 4):

1. **Temporal data dependency** -- serialized small kernels keep GPU
   utilization in the low single digits.
2. **Workload imbalance** -- CPU-side sampling/preprocessing starves the GPU.
3. **Data movement** -- per-snapshot / per-batch CPU<->GPU transfers dominate.
4. **GPU warm-up** -- context creation and allocation overheads rival or
   exceed the useful computation.

Each detector below quantifies one of these from a :class:`Profile`, yielding
a severity in [0, 1], the supporting evidence, and a human-readable finding.
``analyze_profile`` runs all four and ranks them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .._compat import ordered_sum
from .breakdown import MEMORY_COPY, Breakdown, compute_breakdown
from .profiler import Profile
from .utilization import cpu_busy_gpu_idle_fraction

#: Bottleneck identifiers (stable strings used in reports and tests).
TEMPORAL_DEPENDENCY = "temporal_data_dependency"
WORKLOAD_IMBALANCE = "workload_imbalance"
DATA_MOVEMENT = "data_movement"
GPU_WARMUP = "gpu_warmup"


@dataclass(frozen=True)
class BottleneckFinding:
    """One detected bottleneck with its severity and supporting evidence."""

    name: str
    severity: float
    detected: bool
    evidence: Dict[str, float]
    description: str

    def as_row(self) -> dict:
        row = {"bottleneck": self.name, "severity": round(self.severity, 3),
               "detected": self.detected}
        row.update({k: round(v, 4) for k, v in self.evidence.items()})
        return row


# Detection thresholds: the paper's qualitative statements, held as
# constants.  Utilization below ~10% signals dependency-bound execution,
# preprocessing above ~40% of an iteration signals imbalance, transfers above
# ~30% signal a data-movement problem, and warm-up above ~20% of GPU working
# time signals a warm-up problem.
LOW_GPU_UTILIZATION = 0.10
SMALL_KERNEL_MS = 0.05
HOST_PREPROCESSING_SHARE = 0.40
CPU_BUSY_GPU_IDLE = 0.35
TRANSFER_SHARE = 0.30
WARMUP_SHARE = 0.20

#: Breakdown labels counted as host-side preprocessing.
PREPROCESSING_LABELS = (
    "Sampling (CPU)", "Sampling", "top-k", "Create T-batch", "Load Embedding", "Data Loading",
)


def detect_temporal_dependency(profile: Profile) -> BottleneckFinding:
    """Low GPU utilization caused by many small serialized kernels."""
    gpu = profile.device("gpu")
    if gpu is None:
        return BottleneckFinding(
            TEMPORAL_DEPENDENCY, 0.0, False, {"gpu_utilization": 0.0},
            "no GPU present: temporal dependencies only limit accelerator parallelism",
        )
    utilization = profile.gpu_utilization(include_warmup=False)
    mean_kernel = profile.mean_kernel_ms("gpu")
    kernel_count = profile.kernel_count("gpu")
    small_kernels = mean_kernel <= SMALL_KERNEL_MS
    low_util = utilization <= LOW_GPU_UTILIZATION
    severity = max(0.0, min(1.0, 1.0 - utilization / LOW_GPU_UTILIZATION))
    if not small_kernels:
        severity *= 0.5
    detected = low_util and kernel_count > 0
    description = (
        f"GPU utilization is {utilization * 100:.1f}% with an average kernel of "
        f"{mean_kernel * 1000:.1f} us across {kernel_count} kernels: serialized "
        "time-dependent updates leave the GPU mostly idle."
    )
    return BottleneckFinding(
        TEMPORAL_DEPENDENCY, severity if detected else severity * 0.3, detected,
        {
            "gpu_utilization": utilization,
            "mean_gpu_kernel_ms": mean_kernel,
            "gpu_kernel_count": float(kernel_count),
        },
        description,
    )


def detect_workload_imbalance(
    profile: Profile, breakdown: Optional[Breakdown] = None
) -> BottleneckFinding:
    """CPU-side preprocessing occupying the host while the GPU waits.

    ``breakdown`` is the profile's default :func:`compute_breakdown`, for
    callers that already hold it; it is computed when omitted.
    """
    if breakdown is None:
        breakdown = compute_breakdown(profile)
    preprocessing_ms = ordered_sum(breakdown.time_ms(label) for label in PREPROCESSING_LABELS)
    share = preprocessing_ms / breakdown.total_ms if breakdown.total_ms > 0 else 0.0
    starvation = cpu_busy_gpu_idle_fraction(profile)
    severity = max(0.0, min(1.0, 0.6 * share / HOST_PREPROCESSING_SHARE
                            + 0.4 * starvation / CPU_BUSY_GPU_IDLE))
    detected = share >= HOST_PREPROCESSING_SHARE or (
        starvation >= CPU_BUSY_GPU_IDLE and profile.device("gpu") is not None
    )
    description = (
        f"Host-side preprocessing (sampling/batching) takes {share * 100:.1f}% of the "
        f"iteration and the GPU is idle while the CPU is busy for "
        f"{starvation * 100:.1f}% of the window."
    )
    return BottleneckFinding(
        WORKLOAD_IMBALANCE, severity if detected else severity * 0.3, detected,
        {"preprocessing_share": share, "cpu_busy_gpu_idle": starvation},
        description,
    )


def detect_data_movement(
    profile: Profile, breakdown: Optional[Breakdown] = None
) -> BottleneckFinding:
    """CPU<->GPU transfer time dominating the iteration.

    ``breakdown`` is as for :func:`detect_workload_imbalance`.
    """
    if breakdown is None:
        breakdown = compute_breakdown(profile)
    transfer_ms = breakdown.time_ms(MEMORY_COPY)
    share = transfer_ms / breakdown.total_ms if breakdown.total_ms > 0 else 0.0
    transfer_bytes = profile.transfer_bytes()
    severity = max(0.0, min(1.0, share / TRANSFER_SHARE))
    detected = share >= TRANSFER_SHARE
    description = (
        f"Host<->device copies move {transfer_bytes / 1e6:.2f} MB and take "
        f"{share * 100:.1f}% of the iteration."
    )
    return BottleneckFinding(
        DATA_MOVEMENT, severity if detected else severity * 0.5, detected,
        {"transfer_share": share, "transfer_mb": transfer_bytes / 1e6},
        description,
    )


def detect_gpu_warmup(profile: Profile) -> BottleneckFinding:
    """Warm-up (context init, weight upload, allocation) rivaling computation."""
    warmup_ms = profile.warmup_ms()
    gpu = profile.device("gpu")
    gpu_work_ms = 0.0
    if gpu is not None:
        gpu_work_ms = profile.kernel_time_ms(gpu.name) + profile.transfer_time_ms()
    total = warmup_ms + gpu_work_ms
    share = warmup_ms / total if total > 0 else 0.0
    evidence = {"warmup_ms": warmup_ms, "warmup_share": share}
    severity = max(0.0, min(1.0, share / WARMUP_SHARE))
    detected = share >= WARMUP_SHARE and warmup_ms > 0
    description = (
        f"GPU warm-up takes {warmup_ms:.1f} ms, {share * 100:.1f}% of the GPU working "
        "time in this window."
    )
    return BottleneckFinding(GPU_WARMUP, severity if detected else severity * 0.5,
                             detected, evidence, description)


@dataclass(frozen=True)
class BottleneckReport:
    """All findings for one profile, ranked by severity."""

    findings: tuple
    profile_label: str = ""

    def finding(self, name: str) -> BottleneckFinding:
        for finding in self.findings:
            if finding.name == name:
                return finding
        raise KeyError(f"no finding named {name!r}")

    def detected(self) -> List[str]:
        return [f.name for f in self.findings if f.detected]

    def dominant(self) -> BottleneckFinding:
        return max(self.findings, key=lambda f: f.severity)

    def as_rows(self) -> List[dict]:
        return [f.as_row() for f in self.findings]

    def format_table(self) -> str:
        lines = [f"bottleneck analysis: {self.profile_label or 'profile'}",
                 "-" * 44]
        for finding in self.findings:
            flag = "DETECTED" if finding.detected else "ok"
            lines.append(f"{finding.name:<28} severity={finding.severity:.2f} [{flag}]")
            lines.append(f"    {finding.description}")
        return "\n".join(lines)


def analyze_profile(profile: Profile) -> BottleneckReport:
    """Run all four detectors on one profile and rank the findings."""
    breakdown = compute_breakdown(profile)
    findings = [
        detect_temporal_dependency(profile),
        detect_workload_imbalance(profile, breakdown=breakdown),
        detect_data_movement(profile, breakdown=breakdown),
        detect_gpu_warmup(profile),
    ]
    findings.sort(key=lambda f: -f.severity)
    return BottleneckReport(findings=tuple(findings), profile_label=profile.label)
