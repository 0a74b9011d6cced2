"""Elastic vs. static fleets under a flash crowd: the autoscaling trade.

A statically provisioned serving fleet faces a dilemma the paper's
single-node characterization cannot express: size for the peak and idle
through the baseline, or size for the baseline and melt down at the peak.
This experiment runs the same flash-crowd workload (a Poisson baseline with
one sudden high-rate window, :class:`~repro.serve.workload.FlashCrowdProcess`)
against a multi-node cluster three ways:

* **static-k** -- k replicas active for the whole run; the fleet's GPU-time
  cost is simply ``k x duration``;
* **elastic** -- the :class:`~repro.serve.autoscale.Autoscaler` between a
  1-replica floor and the full fleet, paying modeled cold starts (weight
  transfer over the NIC, cold caches) for every replica it adds.

The headline: the elastic fleet beats *every* static size on at least one
axis -- a lower p99 than the static fleets it out-scales during the flash,
or a lower GPU-time integral than the static fleets provisioned for the
peak -- with the cold-start costs charged on the simulated timeline, not
assumed away.  Each elastic row carries an explicit ``beats_static_k``
marker naming the winning axis.
"""

from __future__ import annotations

from typing import Any

from .runner import ExperimentResult, ServingSweep
from .scaling import CALIBRATION_TOPOLOGY, EVENTS_PER_REQUEST

CLUSTER = "2n-2xA100-eth"
STATIC_FLEETS = (1, 2, 4)
#: The elastic fleet's bounds and cooldowns (``AutoscaleConfig`` fields).
ELASTIC = {"min_replicas": 1, "max_replicas": 4, "up_cooldown_ms": 20.0, "down_cooldown_ms": 80.0}
#: The arrival baseline, as a fraction of the calibrated single-replica
#: capacity, and the flash window over it (``FlashCrowdProcess`` parameters).
BASELINE_UTILIZATION = 0.55
FLASH = {"flash_at_ms": 150.0, "flash_duration_ms": 150.0, "flash_multiplier": 6.0}
DURATION_MS = 700.0
ROUTER = "least-latency"


def run(scale: str = "small", seed: int = 0, backend: str = "numeric") -> ExperimentResult:
    """Compare static fleet sizes against the elastic autoscaler.

    ``backend`` selects the execution backend for every run (calibration
    included).
    """
    sweep = ServingSweep(
        CALIBRATION_TOPOLOGY,
        scale=scale,
        seed=seed,
        backend=backend,
        slo_ms=50.0,
        events_per_request=EVENTS_PER_REQUEST,
    )
    rate_rps = sweep.capacity_rps * BASELINE_UTILIZATION
    low, high = ELASTIC["min_replicas"], ELASTIC["max_replicas"]
    result = ExperimentResult(
        experiment="autoscaling",
        notes=(
            f"TGAT cluster serving on wikipedia/{scale} over {CLUSTER}: a "
            f"flash crowd ({FLASH['flash_multiplier']:g}x for "
            f"{FLASH['flash_duration_ms']:g} ms at t={FLASH['flash_at_ms']:g} ms "
            f"over a {rate_rps:.0f} req/s baseline, {BASELINE_UTILIZATION:g} of "
            f"the calibrated {sweep.capacity_rps:.0f} req/s single-replica "
            f"capacity) served by static fleets of {STATIC_FLEETS} replicas vs. "
            f"an elastic fleet [{low}, {high}] with modeled cold starts "
            "(weight transfer over the NIC, cold caches).  GPU-time is the "
            "fleet-size integral over the serving window; the elastic fleet "
            "beats every static size on p99 or GPU-time."
        ),
    )

    def serve(fleet: str, replicas: Any, **options: Any):
        """One run on a fresh cluster: ``num_replicas`` static, ``autoscale``
        elastic.  Returns ``(row, unrounded p99, GPU-time)``."""
        report = sweep.cell(
            CLUSTER,
            fleet,
            rate_rps,
            DURATION_MS,
            arrival=("flash-crowd", FLASH),
            router=ROUTER,
            **options,
        )
        summary = report.summary()
        p99 = report.total_latency().p99_ms if report.completed else None
        elastic = report.autoscale or {}
        static = "autoscale" not in options
        if static:
            gpu_time = options["num_replicas"] * report.duration_ms
        else:
            gpu_time = elastic.get("gpu_time_ms", 0.0)
        row = dict(
            fleet=fleet,
            replicas=replicas,
            rate_rps=round(rate_rps, 1),
            requests=report.completed,
            throughput_rps=round(report.throughput_rps, 1),
            p50_ms=summary.get("p50_ms"),
            p99_ms=summary.get("p99_ms"),
            slo_violation_rate=round(report.slo_violation_rate, 4),
            gpu_time_ms=round(gpu_time, 3),
            nic_mb=round(report.cluster["nic_bytes"] / 1e6, 3),
        )
        if not static:
            row.update(
                scale_ups=elastic.get("scale_ups", 0),
                scale_downs=elastic.get("scale_downs", 0),
                cold_start_ms=elastic.get("cold_start_ms", 0.0),
            )
        return row, p99, gpu_time

    statics = {}
    for size in STATIC_FLEETS:
        row, static_p99, static_gpu_time = serve(f"static-{size}", size, num_replicas=size)
        statics[size] = (static_p99, static_gpu_time)
        result.add_row(**row)

    row, p99, gpu_time = serve("elastic", f"{low}-{high}", autoscale=ELASTIC)
    # The dominance check: against every static size the elastic fleet must
    # win at least one axis (tail latency or fleet cost).
    for size, (static_p99, static_gpu_time) in statics.items():
        axes = []
        if p99 is not None and static_p99 is not None and p99 < static_p99:
            axes.append("p99")
        if gpu_time < static_gpu_time:
            axes.append("gpu_time")
        row[f"beats_static_{size}"] = "+".join(axes) if axes else None
    result.add_row(**row)
    return result
