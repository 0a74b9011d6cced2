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

from typing import Any, Dict, Optional, Sequence

from .runner import ExperimentResult, ServingSweep
from .serving import TOPOLOGY

#: Default sweep axes.  The small capacity point is deliberately tight --
#: a few hundred rows -- so eviction policies actually differ under
#: pressure; the large point fits every entry and isolates pure hit-rate.
POLICIES = ("lru", "lfu", "degree")
CAPACITIES_MB = (0.02, 8.0)
STALENESS_FRACTIONS = (0.0, 0.5)


def run(
    scale: str = "small",
    seed: int = 0,
    arrival: str = "poisson",
    policies: Sequence[str] = POLICIES,
    capacities_mb: Sequence[float] = CAPACITIES_MB,
    staleness_fractions: Sequence[float] = STALENESS_FRACTIONS,
    utilization: float = 1.3,
    duration_ms: float = 150.0,
    max_batch_size: int = 8,
    batch_timeout_ms: float = 4.0,
    slo_ms: float = 50.0,
    events_per_request: int = 1,
    num_neighbors: int = 10,
    backend: str = "numeric",
) -> ExperimentResult:
    """Sweep eviction policy x capacity x staleness against p99/throughput.

    ``backend`` selects the execution backend for every run (calibration
    included); the ``shape`` backend reproduces the identical rows -- hit
    rates, evictions and latency percentiles -- faster.
    """
    sweep = ServingSweep(
        TOPOLOGY,
        scale=scale,
        seed=seed,
        max_batch_size=max_batch_size,
        batch_timeout_ms=batch_timeout_ms,
        slo_ms=slo_ms,
        events_per_request=events_per_request,
        num_neighbors=num_neighbors,
        backend=backend,
    )
    span_start, span_end = sweep.dataset.stream.time_span
    span_ms = max(span_end - span_start, 1.0)
    rate_rps = sweep.capacity_rps * utilization
    result = ExperimentResult(
        experiment="cache_ablation",
        notes=(
            f"TGAT overlap serving on wikipedia/{scale} at "
            f"{utilization:g}x calibrated capacity ({rate_rps:.0f} req/s); "
            "every cell serves the identical request sequence twice (warm + "
            "measured).  staleness_ms values are the listed fractions of "
            f"the stream's {span_ms:.0f} ms event-time span; staleness 0 "
            "admits no hit and shows pure cache bookkeeping overhead, the "
            "warm nonzero-staleness cells beat the uncached baseline's p99."
        ),
    )

    def serve_cell(label: str, cache: Optional[Dict[str, Any]]) -> None:
        """One warmed run (fresh machine, two passes) -> one row."""
        requests = sweep.requests(arrival, rate_rps, duration_ms)
        server = sweep.server(TOPOLOGY, policy="timeout", overlap=True, cache=cache)
        # Warm pass: same request sequence, outside the measured window.  It
        # populates the cache exactly as a preceding traffic window would; the
        # uncached baseline runs it too so both configurations are measured in
        # the same steady state (allocator warm, sampler index hot).
        server.serve(requests, label=f"{label}-warm", arrival_name=arrival, warm_up=True)
        report = server.serve(requests, label=label, arrival_name=arrival, warm_up=False)
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
    for policy_name in policies:
        for capacity_mb in capacities_mb:
            for fraction in staleness_fractions:
                serve_cell(
                    f"cache-{policy_name}-{capacity_mb:g}mb-f{fraction:g}",
                    {
                        "policy": policy_name,
                        "capacity_mb": capacity_mb,
                        "staleness_ms": span_ms * fraction,
                    },
                )
    return result
