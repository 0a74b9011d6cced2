"""Per-module inference breakdowns (the paper's Fig. 7).

The paper decomposes each model's single-iteration inference time into its
functional modules ("Sampling (CPU)", "Attention Layer", "Memory Copy",
"Cuda Synchronization", ...).  This module turns a :class:`Profile` into the
same kind of breakdown: kernel events are grouped by their region annotation,
transfers become "Memory Copy" and synchronisation waits become
"Cuda Synchronization".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .._compat import ordered_sum
from ..hw.events import KERNEL, SYNC, TRANSFER
from .profiler import Profile

#: Canonical labels used for implicit categories.
MEMORY_COPY = "Memory Copy"
CUDA_SYNC = "Cuda Synchronization"
OTHER = "Other"


@dataclass(frozen=True)
class BreakdownEntry:
    """One row of a breakdown: a module label, its time and its share."""

    label: str
    time_ms: float
    fraction: float
    kernel_count: int


@dataclass(frozen=True)
class Breakdown:
    """A per-module decomposition of one profiling window."""

    entries: Tuple[BreakdownEntry, ...]
    total_ms: float
    elapsed_ms: float
    label: str = ""

    def labels(self) -> List[str]:
        return [entry.label for entry in self.entries]

    def time_ms(self, label: str) -> float:
        for entry in self.entries:
            if entry.label == label:
                return entry.time_ms
        return 0.0

    def fraction(self, label: str) -> float:
        for entry in self.entries:
            if entry.label == label:
                return entry.fraction
        return 0.0

    def dominant(self) -> BreakdownEntry:
        """The module with the largest share."""
        if not self.entries:
            raise ValueError("empty breakdown")
        return max(self.entries, key=lambda entry: entry.time_ms)

    def format_table(self, title: Optional[str] = None) -> str:
        """A plain-text table like the annotated bars of the paper's Fig. 7."""
        lines = []
        header = title or (self.label or "inference breakdown")
        lines.append(header)
        lines.append("-" * max(36, len(header)))
        width = max([len(e.label) for e in self.entries] + [6])
        for entry in self.entries:
            lines.append(
                f"{entry.label:<{width}}  {entry.time_ms:10.3f} ms  "
                f"{entry.fraction * 100:6.1f}%  ({entry.kernel_count} kernels)"
            )
        lines.append(
            f"{'total':<{width}}  {self.total_ms:10.3f} ms  "
            f"(elapsed {self.elapsed_ms:.3f} ms)"
        )
        return "\n".join(lines)


def _classify(
    kind: str, region: Tuple[str, ...], duration_ms: float, fold_transfers: bool
) -> Optional[str]:
    """Map one event to its breakdown label (None to ignore it).

    Kernels take their innermost region label, which is what the paper's
    module-level bars correspond to; warm-up events are not part of an
    iteration and are ignored.
    """
    if kind == TRANSFER:
        if fold_transfers and region:
            return region[-1]
        return MEMORY_COPY
    if kind == SYNC:
        return CUDA_SYNC if duration_ms > 0 else None
    if kind == KERNEL:
        return region[-1] if region else OTHER
    return None


def compute_breakdown(profile: Profile, fold_transfers: bool = False) -> Breakdown:
    """Aggregate a profile into a per-module breakdown.

    Args:
        profile: The captured window.
        fold_transfers: Attribute host<->device copies to their enclosing
            region instead of the separate "Memory Copy" row (used for models
            whose published breakdown folds transfers into the module that
            triggered them, e.g. TGN's message passing).
    """
    times: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for kind, _, _, start_ms, end_ms, _, _, region, _, _, _ in profile.rows:
        duration_ms = end_ms - start_ms
        label = _classify(kind, region, duration_ms, fold_transfers)
        if label is None:
            continue
        if label not in times:
            times[label] = 0.0
            counts[label] = 0
        times[label] += duration_ms
        counts[label] += 1 if kind == KERNEL else 0

    total = ordered_sum(times.values())
    entries = tuple(
        BreakdownEntry(
            label=label,
            time_ms=times[label],
            fraction=(times[label] / total) if total > 0 else 0.0,
            kernel_count=counts[label],
        )
        for label in sorted(times, key=lambda l: -times[l])
    )
    return Breakdown(
        entries=entries,
        total_ms=total,
        elapsed_ms=profile.elapsed_ms,
        label=profile.label,
    )
