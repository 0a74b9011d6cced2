"""Latency-distribution statistics for the serving telemetry.

Online serving cares about the *tail* of the latency distribution, not the
mean: the paper's per-iteration cost model only becomes an end-to-end
latency/throughput story once p95/p99 queueing effects are measured.  This
module provides the percentile machinery the serving subsystem
(:mod:`repro.serve`) reports through, kept in :mod:`repro.core` so offline
experiments can reuse it on any list of per-iteration times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .._compat import ordered_sum
from ..domain import Domain


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    A thin wrapper over ``numpy.percentile`` (its default "linear" method)
    with friendlier errors: ``q`` outside ``[0, 100]`` and empty sequences
    raise :class:`ValueError` instead of numpy's assorted exceptions.
    """
    Domain(0, 100).check("percentile", q)
    if len(values) == 0:
        raise ValueError("percentile of an empty sequence is undefined")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass(frozen=True)
class LatencySummary:
    """Headline statistics of one latency distribution (all in ms).

    Attributes:
        count: Number of samples.
        mean_ms / min_ms / max_ms: Moments and extremes.
        p50_ms / p95_ms / p99_ms: The serving percentiles the reports quote.
    """

    count: int
    mean_ms: float
    min_ms: float
    max_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencySummary":
        """Summarise a non-empty sequence of latencies."""
        if not values:
            raise ValueError("cannot summarise an empty latency sequence")
        floats = [float(v) for v in values]
        return cls(
            count=len(floats),
            mean_ms=ordered_sum(floats) / len(floats),
            min_ms=min(floats),
            max_ms=max(floats),
            p50_ms=percentile(floats, 50.0),
            p95_ms=percentile(floats, 95.0),
            p99_ms=percentile(floats, 99.0),
        )

    def as_dict(self, prefix: str = "") -> Dict[str, float]:
        """Flat dict view (``{prefix}p99_ms``: ...), for experiment rows."""
        return {
            f"{prefix}mean_ms": self.mean_ms,
            f"{prefix}p50_ms": self.p50_ms,
            f"{prefix}p95_ms": self.p95_ms,
            f"{prefix}p99_ms": self.p99_ms,
            f"{prefix}max_ms": self.max_ms,
        }
