"""Scale-out serving sweep: GPUs x placement x topology x arrival rate.

The paper characterizes DGNN inference on one CPU+GPU node; this experiment
asks the obvious next questions on the multi-GPU
:class:`~repro.hw.spec.MachineSpec` topologies:

* does **data-parallel replication** fix tail latency once requests queue?
  (Yes -- until the shared host saturates: each replica adds a sampling
  worker and a GPU, so capacity grows until single-host dispatch becomes
  the ceiling.)
* does **graph sharding** amplify or hide the data-movement bottleneck?
  (Depends on the interconnect: cross-shard neighbour gathers ride NVLink
  peer links almost for free, but on PCIe-only boxes they stage through
  host links twice, so sharding there *adds* interconnect pressure.)

Every row reports throughput, p50/p95/p99 and per-device utilization
against the 1-GPU baseline at the same calibrated arrival rate; rates are
expressed as utilization fractions of the measured single-replica capacity
so the sweep queues by construction where intended.
"""

from __future__ import annotations

from .runner import MAX_BATCH_SIZE, ExperimentResult, ServingSweep

#: (spec name, gpus used, placement) configurations the sweep compares; the
#: first is the 1-GPU baseline every row is compared against.
CONFIGS = (
    ("1xA100", 1, "replicate"),
    ("2xA100-pcie", 2, "replicate"),
    ("4xA100-pcie", 4, "replicate"),
    ("2xA100-pcie", 2, "shard"),
    ("2xA100-nvlink", 2, "shard"),
    ("4xA100-nvlink", 4, "shard"),
)
UTILIZATIONS = (0.8, 1.6)
ROUTER = "round-robin"
PARTITIONER = "degree"
DURATION_MS = 400.0
EVENTS_PER_REQUEST = 4

#: The one-replica platform arrival rates are calibrated on.
CALIBRATION_TOPOLOGY = "1xA100"


def run(scale: str = "small", seed: int = 0, backend: str = "numeric") -> ExperimentResult:
    """Sweep placements x topologies x arrival rates over one dataset.

    ``backend`` selects the execution backend for every run (calibration
    included); the ``shape`` backend reproduces the identical rows, faster.
    """
    sweep = ServingSweep(
        CALIBRATION_TOPOLOGY,
        scale=scale,
        seed=seed,
        backend=backend,
        slo_ms=50.0,
        events_per_request=EVENTS_PER_REQUEST,
    )
    result = ExperimentResult(
        experiment="scaling",
        notes=(
            f"TGAT serving on wikipedia/{scale} across multi-GPU topologies; "
            f"calibrated single-replica capacity {sweep.capacity_rps:.0f} req/s "
            f"({sweep.per_request_ms:.3f} ms/request at batch {MAX_BATCH_SIZE} x "
            f"{EVENTS_PER_REQUEST} events).  Arrival rates are utilization x "
            "capacity.  Replicated rows route batches to per-GPU replicas "
            f"({ROUTER}); sharded rows split each batch by a seeded "
            f"{PARTITIONER} partition, charging cross-shard gathers to "
            "peer/PCIe links.  At queueing utilizations, replication on >= 2 "
            "GPUs strictly beats the 1-GPU baseline on throughput and p99."
        ),
    )
    for utilization in UTILIZATIONS:
        rate_rps = sweep.capacity_rps * utilization
        baseline = None
        for spec, num_gpus, placement in CONFIGS:
            report = sweep.cell(
                spec,
                f"tgat-{spec}-{placement}-u{utilization:g}",
                rate_rps,
                DURATION_MS,
                placement=placement,
                num_replicas=num_gpus,
                router=ROUTER,
                partitioner=PARTITIONER,
            )
            summary = report.summary()
            p99_ms = report.total_latency().p99_ms if report.completed else None
            row = dict(
                spec=spec,
                gpus=num_gpus,
                placement=placement,
                utilization=utilization,
                rate_rps=round(rate_rps, 1),
                requests=report.completed,
                throughput_rps=round(report.throughput_rps, 1),
                p50_ms=summary.get("p50_ms"),
                p95_ms=summary.get("p95_ms"),
                p99_ms=summary.get("p99_ms"),
                slo_violation_rate=round(report.slo_violation_rate, 4),
                mean_batch=round(report.mean_batch_size, 2),
            )
            for name, value in sorted(report.per_device_utilization.items()):
                row[f"util_{name}"] = round(value, 4)
            if baseline is None:
                baseline = (report.throughput_rps, p99_ms)
                row.update(throughput_vs_1gpu=1.0, p99_vs_1gpu=1.0)
            else:
                throughput_1gpu, p99_1gpu = baseline
                if throughput_1gpu > 0:
                    row["throughput_vs_1gpu"] = round(report.throughput_rps / throughput_1gpu, 3)
                if p99_ms is not None and p99_1gpu:
                    row["p99_vs_1gpu"] = round(p99_ms / p99_1gpu, 3)
            result.add_row(**row)
    return result
