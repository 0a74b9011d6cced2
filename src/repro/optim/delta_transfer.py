"""Delta snapshot transfer (paper Sec. 5.2.2).

Consecutive snapshots of a discrete-time dynamic graph overlap heavily
(EvolveGCN's sliding-window preprocessing makes them overlap even more), so
instead of re-uploading the full adjacency and feature matrices every time
step, only the change set needs to cross PCIe.  The optimization is
implemented for real in :class:`repro.models.EvolveGCN` behind the
``delta_transfer`` config flag; this module provides the comparison harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from ..core import MEMORY_COPY, Profiler, compute_breakdown
from ..datasets.base import SnapshotDataset
from ..models.registry import build_on_fresh_machine


@dataclass(frozen=True)
class DeltaTransferComparison:
    """Measured effect of delta transfer on one snapshot step.

    Attributes:
        full_iteration_ms / delta_iteration_ms: Second-snapshot iteration time
            with full re-upload vs delta-only upload.
        full_copy_ms / delta_copy_ms: The memory-copy component of each.
        average_delta_ratio: Fraction of a snapshot that changes step to step
            (upper bound on the achievable transfer saving).
    """

    full_iteration_ms: float
    delta_iteration_ms: float
    full_copy_ms: float
    delta_copy_ms: float
    average_delta_ratio: float

    @property
    def iteration_speedup(self) -> float:
        if self.delta_iteration_ms <= 0:
            return float("inf")
        return self.full_iteration_ms / self.delta_iteration_ms

    @property
    def copy_reduction(self) -> float:
        """Fraction of memory-copy time eliminated."""
        if self.full_copy_ms <= 0:
            return 0.0
        return max(0.0, 1.0 - self.delta_copy_ms / self.full_copy_ms)


def compare_delta_transfer(dataset: SnapshotDataset, variant: str = "O") -> DeltaTransferComparison:
    """Measure EvolveGCN's second-snapshot iteration with and without deltas.

    The *second* snapshot is measured because the first upload is identical in
    both schemes (there is no previous snapshot to diff against).
    """
    results = {}
    for delta in (False, True):
        machine, model = build_on_fresh_machine(
            f"evolvegcn-{variant}", dataset, use_gpu=True, delta_transfer=delta
        )
        with machine.activate():
            first, second = islice(model.iteration_batches(), 2)
            model.warm_up(first)
            # Prime the device with the first snapshot outside the measurement.
            model.inference_iteration(first)
            profiler = Profiler(machine)
            with profiler.capture(f"evolvegcn-delta-{delta}"):
                model.inference_iteration(second)
        profile = profiler.last_profile
        results[delta] = (profile.elapsed_ms, compute_breakdown(profile).time_ms(MEMORY_COPY))
    return DeltaTransferComparison(
        full_iteration_ms=results[False][0],
        delta_iteration_ms=results[True][0],
        full_copy_ms=results[False][1],
        delta_copy_ms=results[True][1],
        average_delta_ratio=dataset.snapshots.average_delta_ratio(),
    )
