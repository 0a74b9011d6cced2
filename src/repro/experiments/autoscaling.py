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

from typing import Any, Dict, Optional, Sequence

from .runner import ExperimentResult, ServingSweep
from .scaling import CALIBRATION_TOPOLOGY


def run(
    scale: str = "small",
    seed: int = 0,
    cluster: str = "2n-2xA100-eth",
    static_fleets: Sequence[int] = (1, 2, 4),
    min_replicas: int = 1,
    max_replicas: int = 4,
    baseline_utilization: float = 0.55,
    flash_multiplier: float = 6.0,
    flash_at_ms: float = 150.0,
    flash_duration_ms: float = 150.0,
    duration_ms: float = 700.0,
    router: str = "least-latency",
    policy: str = "timeout",
    max_batch_size: int = 8,
    batch_timeout_ms: float = 4.0,
    slo_ms: float = 50.0,
    events_per_request: int = 4,
    num_neighbors: int = 10,
    backend: str = "numeric",
) -> ExperimentResult:
    """Compare static fleet sizes against the elastic autoscaler.

    The arrival baseline is ``baseline_utilization`` of the calibrated
    single-replica capacity; the flash window multiplies it by
    ``flash_multiplier``.  ``backend`` selects the execution backend for
    every run (calibration included).
    """
    sweep = ServingSweep(
        CALIBRATION_TOPOLOGY,
        scale=scale,
        seed=seed,
        max_batch_size=max_batch_size,
        batch_timeout_ms=batch_timeout_ms,
        slo_ms=slo_ms,
        events_per_request=events_per_request,
        num_neighbors=num_neighbors,
        backend=backend,
    )
    capacity_rps = sweep.capacity_rps
    rate_rps = capacity_rps * baseline_utilization

    result = ExperimentResult(
        experiment="autoscaling",
        notes=(
            f"TGAT cluster serving on wikipedia/{scale} over {cluster}: a "
            f"flash crowd ({flash_multiplier:g}x for {flash_duration_ms:g} ms "
            f"at t={flash_at_ms:g} ms over a {rate_rps:.0f} req/s baseline, "
            f"{baseline_utilization:g} of the calibrated {capacity_rps:.0f} "
            "req/s single-replica capacity) served by static fleets of "
            f"{tuple(static_fleets)} replicas vs. an elastic fleet "
            f"[{min_replicas}, {max_replicas}] with modeled cold starts "
            "(weight transfer over the NIC, cold caches).  GPU-time is the "
            "fleet-size integral over the serving window; the elastic fleet "
            "beats every static size on p99 or GPU-time."
        ),
    )

    def serve(
        fleet: str,
        replicas: Any,
        fleet_size: Optional[int] = None,
        autoscale: Optional[Dict[str, Any]] = None,
    ):
        """One run on a fresh cluster, static unless ``autoscale`` is given.

        Returns ``(row, unrounded p99, GPU-time)``.
        """
        server = sweep.server(
            cluster, num_replicas=fleet_size, policy=policy, router=router, autoscale=autoscale
        )
        requests = sweep.requests(
            "flash-crowd",
            rate_rps,
            duration_ms,
            flash_at_ms=flash_at_ms,
            flash_duration_ms=flash_duration_ms,
            flash_multiplier=flash_multiplier,
        )
        report = server.serve(requests, label=fleet, arrival_name="flash-crowd")
        summary = report.summary()
        p99 = report.total_latency().p99_ms if report.completed else None
        elastic = report.autoscale or {}
        if autoscale is None:
            gpu_time = fleet_size * report.duration_ms
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
            nic_mb=round(server.cluster.nic_bytes() / 1e6, 3),
        )
        if autoscale is not None:
            row.update(
                scale_ups=elastic.get("scale_ups", 0),
                scale_downs=elastic.get("scale_downs", 0),
                cold_start_ms=elastic.get("cold_start_ms", 0.0),
            )
        return row, p99, gpu_time

    statics = {}
    for size in static_fleets:
        row, static_p99, static_gpu_time = serve(f"static-{size}", size, fleet_size=size)
        statics[size] = (static_p99, static_gpu_time)
        result.add_row(**row)

    row, p99, gpu_time = serve(
        "elastic",
        f"{min_replicas}-{max_replicas}",
        autoscale={
            "min_replicas": min_replicas,
            "max_replicas": max_replicas,
            "up_cooldown_ms": 20.0,
            "down_cooldown_ms": 80.0,
        },
    )
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
