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
* with the staleness cache attached, which unlocks the two cache-backed
  degradation levels.

Expected shape: below capacity the two sides are identical and debt is
zero (the degradation path never engages -- the ``fidelity-identity`` fuzz
invariant holds this byte-for-byte); past capacity the fidelity side trades
monotonically growing debt for lower p99 and a lower SLO-violation rate at
the same offered rate.
"""

from __future__ import annotations

from .runner import MAX_BATCH_SIZE, ExperimentResult, ServingSweep
from .serving import TOPOLOGY

UTILIZATIONS = (0.6, 1.2, 1.8, 2.4)
DURATION_MS = 250.0
SLO_MS = 30.0
#: The serving cache every cell carries (``make_model_cache`` arguments).
CACHE = {"policy": "lru", "capacity_mb": 16.0, "staleness_ms": 50.0}


def run(scale: str = "small", seed: int = 0, backend: str = "numeric") -> ExperimentResult:
    """Sweep utilization x {fidelity on, off} under the slo policy."""
    sweep = ServingSweep(
        TOPOLOGY, scale=scale, seed=seed, backend=backend, slo_ms=SLO_MS, events_per_request=1
    )
    result = ExperimentResult(
        experiment="adaptive_fidelity",
        notes=(
            f"TGAT serving on wikipedia/{scale} under the slo policy; "
            f"calibrated capacity {sweep.capacity_rps:.0f} req/s "
            f"({sweep.per_request_ms:.3f} ms/request at batch {MAX_BATCH_SIZE}).  "
            "Below capacity the fidelity rows match the baseline exactly "
            "with zero debt; past capacity they trade fidelity debt for "
            "lower p99 and fewer SLO violations at the same offered rate."
        ),
    )
    for utilization in UTILIZATIONS:
        rate_rps = sweep.capacity_rps * utilization
        for enabled in (False, True):
            report = sweep.cell(
                TOPOLOGY,
                f"tgat-fidelity-{'on' if enabled else 'off'}-u{utilization:g}",
                rate_rps,
                DURATION_MS,
                policy="slo",
                fidelity=enabled,
                cache=CACHE,
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
                cache_hit_rate=round(report.cache["hit_rate"], 4),
            )
    return result
