"""Online serving sweep: policies x arrival rates x execution modes.

The paper's characterization is per-iteration; this experiment puts the same
cost model under *load*.  A simulated :class:`~repro.serve.InferenceServer`
serves TGAT link-prediction requests (each carrying a small slice of the
dataset's event stream) while the sweep varies

* the **scheduler policy** (FIFO, timeout batching, SLO-aware shrinking),
* the **arrival rate**, expressed as a utilization fraction of the measured
  single-server capacity so the sweep lands in the same queueing regime at
  every dataset scale, and
* the **execution mode**: the seed's blocking sampling->compute iteration
  versus the stream-based sampling/compute overlap of Sec. 5.1.1.

Each row reports p50/p95/p99 total latency, the queue/service split,
throughput, SLO-violation rate and device utilization.  The headline result:
at rates where requests queue, overlap-enabled runs achieve strictly lower
p99 than blocking runs at the same arrival rate -- the tail-latency payoff
of the paper's overlap proposal, which single-iteration speedup numbers
cannot show.
"""

from __future__ import annotations

from .runner import MAX_BATCH_SIZE, ExperimentResult, ServingSweep

#: The sweep, in row order: utilization x policy x execution mode.
UTILIZATIONS = (1.2, 1.6)
POLICIES = ("fifo", "slo")
MODES = ("blocking", "overlap")
DURATION_MS = 250.0

#: The paper's platform (``Machine.cpu_gpu()``), as a topology preset.
TOPOLOGY = "1xA6000"


def run(scale: str = "small", seed: int = 0, backend: str = "numeric") -> ExperimentResult:
    """Sweep policies x arrival rates x execution modes over one dataset.

    ``backend`` selects the execution backend for every run (calibration
    included); the ``shape`` backend reproduces the identical rows, faster.
    """
    sweep = ServingSweep(
        TOPOLOGY, scale=scale, seed=seed, backend=backend, slo_ms=50.0, events_per_request=1
    )
    result = ExperimentResult(
        experiment="serving",
        notes=(
            f"TGAT link-prediction serving on wikipedia/{scale}; calibrated "
            f"blocking capacity {sweep.capacity_rps:.0f} req/s "
            f"({sweep.per_request_ms:.3f} ms/request at batch {MAX_BATCH_SIZE}); "
            "arrival rates are utilization x capacity, so rates > capacity "
            "queue by construction.  At queueing rates the overlap mode's "
            "p99 is strictly below blocking at the same rate."
        ),
    )
    for utilization in UTILIZATIONS:
        rate_rps = sweep.capacity_rps * utilization
        for policy_name in POLICIES:
            for mode in MODES:
                report = sweep.cell(
                    TOPOLOGY,
                    f"tgat-{policy_name}-{mode}-u{utilization:g}",
                    rate_rps,
                    DURATION_MS,
                    policy=policy_name,
                    overlap=mode == "overlap",
                )
                summary = report.summary()
                result.add_row(
                    policy=policy_name,
                    mode=mode,
                    utilization=utilization,
                    rate_rps=round(rate_rps, 1),
                    requests=report.completed,
                    p50_ms=summary.get("p50_ms"),
                    p95_ms=summary.get("p95_ms"),
                    p99_ms=summary.get("p99_ms"),
                    queue_p99_ms=summary.get("queue_p99_ms"),
                    throughput_rps=round(report.throughput_rps, 1),
                    slo_violation_rate=round(report.slo_violation_rate, 4),
                    mean_batch=round(report.mean_batch_size, 2),
                    gpu_util=round(report.gpu_utilization, 4),
                )
    return result
