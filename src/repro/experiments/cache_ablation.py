"""Serving-cache ablation: eviction policy x capacity x staleness bound.

The paper pins DGNN inference cost on temporal-neighbourhood sampling and
repeated embedding recomputation -- exactly the redundant work a
staleness-bounded historical cache removes between serving requests.  This
experiment quantifies the trade-off end to end: TGAT link-prediction
requests are served twice through the overlap scheduler (the first pass
warms the cache, the second is measured), while the sweep varies

* the **eviction policy** (LRU, LFU, degree-weighted),
* the **capacity** of the cache in MB -- residency is charged to the
  simulated device memory pools, so small budgets force real evictions, and
* the **staleness bound**, expressed as a fraction of the dataset's event-
  time span so the sweep is scale-independent.  A bound of 0 admits no hit
  (byte-identical execution, pure bookkeeping overhead); generous bounds
  let warm entries short-circuit whole sampling subtrees.

Each row reports the hit rate, p50/p99 total latency, throughput, eviction
and invalidation counts, and the cache's peak byte occupancy next to an
uncached baseline row.  The headline: at a nonzero staleness bound with a
warm cache, p99 drops strictly below the uncached baseline at the same
arrival rate, while staleness 0 shows the (small) price of cache
bookkeeping on the same metrics -- hit-rate-versus-memory-pressure measured
on the machine clock, not assumed.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .runner import ExperimentResult, ServingSweep
from .serving import TOPOLOGY

#: The sweep axes.  The small capacity point is deliberately tight -- a few
#: hundred rows -- so eviction policies actually differ under pressure; the
#: large point fits every entry and isolates pure hit-rate.
POLICIES = ("lru", "lfu", "degree")
CAPACITIES_MB = (0.02, 8.0)
STALENESS_FRACTIONS = (0.0, 0.5)
UTILIZATION = 1.3
DURATION_MS = 150.0


def run(scale: str = "small", seed: int = 0, backend: str = "numeric") -> ExperimentResult:
    """Sweep eviction policy x capacity x staleness against p99/throughput.

    ``backend`` selects the execution backend for every run (calibration
    included); the ``shape`` backend reproduces the identical rows -- hit
    rates, evictions and latency percentiles -- faster.
    """
    sweep = ServingSweep(
        TOPOLOGY, scale=scale, seed=seed, backend=backend, slo_ms=50.0, events_per_request=1
    )
    span_start, span_end = sweep.dataset.stream.time_span
    span_ms = max(span_end - span_start, 1.0)
    rate_rps = sweep.capacity_rps * UTILIZATION
    result = ExperimentResult(
        experiment="cache_ablation",
        notes=(
            f"TGAT overlap serving on wikipedia/{scale} at "
            f"{UTILIZATION:g}x calibrated capacity ({rate_rps:.0f} req/s); "
            "every cell serves the identical request sequence twice (warm + "
            "measured).  staleness_ms values are the listed fractions of "
            f"the stream's {span_ms:.0f} ms event-time span; staleness 0 "
            "admits no hit and shows pure cache bookkeeping overhead, the "
            "warm nonzero-staleness cells beat the uncached baseline's p99."
        ),
    )

    def serve_cell(label: str, cache: Optional[Dict[str, Any]]) -> None:
        """One warmed run -> one row.  The uncached baseline is warmed too, so
        both configurations are measured in the same steady state (allocator
        warm, sampler index hot)."""
        report = sweep.cell(
            TOPOLOGY, label, rate_rps, DURATION_MS, warm=True, overlap=True, cache=cache
        )
        summary = report.summary()
        stats = report.cache or {}
        config = cache or {}
        staleness_ms = config.get("staleness_ms")
        result.add_row(
            policy=config.get("policy", "uncached"),
            cache_mb=config.get("capacity_mb"),
            staleness_ms=round(staleness_ms, 3) if staleness_ms is not None else None,
            requests=report.completed,
            hit_rate=stats.get("hit_rate"),
            p50_ms=summary.get("p50_ms"),
            p99_ms=summary.get("p99_ms"),
            throughput_rps=round(report.throughput_rps, 1),
            evictions=stats.get("evictions"),
            stale_rejects=stats.get("stale_rejects"),
            invalidations=stats.get("invalidations"),
            cache_peak_mb=round(stats.get("bytes_peak", 0) / 1e6, 3) if stats else None,
        )

    serve_cell("cache-ablation-uncached", None)
    for policy_name in POLICIES:
        for capacity_mb in CAPACITIES_MB:
            for fraction in STALENESS_FRACTIONS:
                serve_cell(
                    f"cache-{policy_name}-{capacity_mb:g}mb-f{fraction:g}",
                    {
                        "policy": policy_name,
                        "capacity_mb": capacity_mb,
                        "staleness_ms": span_ms * fraction,
                    },
                )
    return result
