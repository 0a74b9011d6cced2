"""Adaptive fidelity sweep: the fidelity-debt vs tail-latency frontier.

When the offered load exceeds the calibrated capacity, an SLO-aware server
has two bad options -- miss deadlines or shed requests.  Adaptive fidelity
(:mod:`repro.serve.fidelity`) adds a third: serve every request at degraded
quality (reduced sampling fan-out, widened cache staleness, forced cache
hits for deadlines already lost) and account the quality loss as *fidelity
debt*.  This sweep traces the resulting frontier:

* **utilization** sweeps from below capacity into overload, so the rows
  bracket the onset of queueing;
* **fidelity on/off** at each rate, both sides otherwise identical (same
  seed, same requests, same policy);
* optionally with the staleness cache attached, which unlocks the two
  cache-backed degradation levels.

Expected shape: below capacity the two sides are identical and debt is
zero (the degradation path never engages -- the ``fidelity-identity`` fuzz
invariant holds this byte-for-byte); past capacity the fidelity side trades
monotonically growing debt for lower p99 and a lower SLO-violation rate at
the same offered rate.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .runner import ExperimentResult, ServingSweep
from .serving import TOPOLOGY


def run(
    scale: str = "small",
    seed: int = 0,
    arrival: str = "poisson",
    utilizations: Sequence[float] = (0.6, 1.2, 1.8, 2.4),
    duration_ms: float = 250.0,
    max_batch_size: int = 8,
    batch_timeout_ms: float = 4.0,
    slo_ms: float = 30.0,
    events_per_request: int = 1,
    num_neighbors: int = 10,
    cache_mb: Optional[float] = 16.0,
    cache_staleness_ms: float = 50.0,
    backend: str = "numeric",
) -> ExperimentResult:
    """Sweep utilization x {fidelity on, off} under the slo policy.

    ``cache_mb=None`` drops the serving cache, capping degradation at the
    fan-out lever (levels 2-3 need cache stores to widen or force).
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
    per_request_ms, capacity_rps = sweep.per_request_ms, sweep.capacity_rps
    result = ExperimentResult(
        experiment="adaptive_fidelity",
        notes=(
            f"TGAT serving on wikipedia/{scale} under the slo policy; "
            f"calibrated capacity {capacity_rps:.0f} req/s "
            f"({per_request_ms:.3f} ms/request at batch {max_batch_size}).  "
            "Below capacity the fidelity rows match the baseline exactly "
            "with zero debt; past capacity they trade fidelity debt for "
            "lower p99 and fewer SLO violations at the same offered rate."
        ),
    )
    cache = None
    if cache_mb is not None:
        cache = {"policy": "lru", "capacity_mb": cache_mb, "staleness_ms": cache_staleness_ms}
    for utilization in utilizations:
        rate_rps = capacity_rps * utilization
        for enabled in (False, True):
            requests = sweep.requests(arrival, rate_rps, duration_ms)
            server = sweep.server(TOPOLOGY, policy="slo", fidelity=enabled, cache=cache)
            report = server.serve(
                requests,
                label=f"tgat-fidelity-{'on' if enabled else 'off'}-u{utilization:g}",
                arrival_name=arrival,
            )
            summary = report.summary()
            snapshot = report.fidelity or {}
            result.add_row(
                utilization=utilization,
                rate_rps=round(rate_rps, 1),
                fidelity="on" if enabled else "off",
                requests=report.completed,
                p50_ms=summary.get("p50_ms"),
                p99_ms=summary.get("p99_ms"),
                slo_violation_rate=round(report.slo_violation_rate, 4),
                throughput_rps=round(report.throughput_rps, 1),
                fidelity_debt=snapshot.get("debt_score"),
                degraded_batches=snapshot.get("degraded_batches"),
                max_level=snapshot.get("max_level_seen"),
                cache_hit_rate=(
                    round(report.cache["hit_rate"], 4)
                    if report.cache and "hit_rate" in report.cache
                    else None
                ),
            )
    return result
