"""The eight benchmark workloads.

Each workload is a ``setup(seed, scale) -> state`` / ``run(state) -> Outcome``
pair.  ``setup`` is everything a user pays before the measured phase
(dataset load, machine/cluster and model build, replicas, cache attach,
request generation) and is timed as ``setup_s``; ``run`` is the measured
phase.  ``scale`` multiplies the size knob (requests, rounds, iterations):
1.0 is the recorded size, the warm-up uses 0.1 and the smoke test 0.02.

Sizes are chosen so one repetition takes 1-2 s of host time on the 2-core
reference box: the benchmark driver gives a run ten seconds, and a run has
to fit several repetitions to report a median.

Arrivals are stamped on the *simulated* clock, so every serving workload is
open-loop by construction and the generator can never run late.  Request
lists are cut to a fixed count so that the amount of work does not depend
on the seed; the seed still decides arrival times, sampled neighbourhoods
and key sequences.

Calls into ``repro`` go through package attributes (``serve.generate_requests``
rather than a ``from`` import) so the traced pass can wrap them from outside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import cache, core, datasets, obs, serve
from repro.cache.policy import make_eviction_policy
from repro.cache.store import CacheStats, DeviceResidentCache
from repro.experiments import runner as experiments
from repro.hw.cluster import Cluster
from repro.hw.events import WARMUP
from repro.hw.machine import Machine
from repro.models import MODEL_NAMES, build_model
from repro.models.registry import DEFAULT_DATASETS
from repro.models.tgat import TGAT, TGATConfig


@dataclass
class Outcome:
    """What one measured phase reports besides its host time."""

    #: Simulated events issued by the measured phase.
    events: int
    #: Simulated span of the measured phase, warm-up excluded.
    sim_ms: float
    #: ``ServingReport.total_latency().p99_ms``; ``None`` off the serving path.
    sim_p99_ms: Optional[float]
    ops_attempted: int
    ops_failed: int
    #: Ordered simulated statistics; their hash is the ``sim_fingerprint``.
    sim_stats: Dict[str, Any]
    #: Simulated or counted per-layer values read from reports and profiles.
    layer: Dict[str, float] = field(default_factory=dict)
    #: Failed conservation checks, as messages.
    problems: List[str] = field(default_factory=list)
    #: ``[request, batch, replica, arrival, dispatched, completed]`` rows on
    #: the simulated clock (serving workloads; written with the spans).
    requests: List[list] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, float], Any]
    run: Callable[[Any], Outcome]
    #: The workload that runs the same traffic without this one's extra layer.
    bypass: Optional[str] = None


def _scaled(count: int, scale: float) -> int:
    return max(1, int(round(count * scale)))


# -- shared helpers ---------------------------------------------------------


def _busiest_link_share(links: Sequence[Any], start_ms: float, end_ms: float) -> float:
    window = end_ms - start_ms
    if window <= 0 or not links:
        return 0.0
    return max(link.busy_ms(start_ms, end_ms) for link in links) / window


class _Counters:
    """Event and FLOP totals of some machines, read as deltas from creation."""

    def __init__(self, machines: Sequence[Machine]) -> None:
        self.machines = list(machines)
        self._events = self._total_events()
        self._flops = self._total_flops()

    def _total_events(self) -> int:
        return sum(machine.event_count for machine in self.machines)

    def _total_flops(self) -> float:
        return sum(sum(machine.device_flops_totals().values()) for machine in self.machines)

    @property
    def events(self) -> int:
        return self._total_events() - self._events

    @property
    def flops(self) -> float:
        return self._total_flops() - self._flops


def _mean(values: Sequence[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _fixed_requests(stream, arrival: str, rate: float, count: int, seed: int, slo_ms: float,
                    **arrival_kwargs):
    """Exactly ``count`` requests (fewer only if the arrival process runs dry)."""
    arrivals = serve.make_arrival_process(arrival, rate, seed=seed, **arrival_kwargs)
    requests = serve.generate_requests(
        stream,
        arrivals,
        duration_ms=2.0 * count / rate * 1000.0,
        events_per_request=1,
        slo_ms=slo_ms,
    )
    return requests[:count]


def _request_rows(report) -> List[list]:
    """Request-level spans on the simulated clock, joined to their batch.

    Requests that share a dispatch instant and replica rode in one batch;
    batches are numbered in dispatch order, which is also the order of the
    traced pass's per-batch model spans (their ``ordinal`` column).
    """
    batches: Dict[Tuple[float, Optional[int]], int] = {}
    rows = []
    ordered = sorted(
        (r for r in report.requests if r.is_completed),
        key=lambda r: (r.dispatched_ms, r.replica or 0, r.request_id),
    )
    for request in ordered:
        batch = batches.setdefault((request.dispatched_ms, request.replica), len(batches))
        rows.append([
            request.request_id, batch, request.replica, round(request.arrival_ms, 4),
            round(request.dispatched_ms, 4), round(request.completed_ms, 4),
        ])
    return rows


def _cache_layer(stats: Dict[str, Any]) -> Dict[str, float]:
    """The counted ``cache.*`` metrics from a ``CacheStats.as_dict()``."""
    return {
        "cache.probe_keys": stats.get("lookups", 0),
        "cache.put_keys": stats.get("inserts", 0),
        "cache.invalidated_keys": stats.get("invalidations", 0),
        "cache.evictions": stats.get("evictions", 0),
        "cache.hit_rate": stats.get("hit_rate", 0.0),
        "cache.bytes_peak": stats.get("bytes_peak", 0),
    }


def _serving_outcome(report, counters: _Counters, links: Sequence[Any], end_ms: float,
                     nic_bytes: int = 0) -> Outcome:
    """Fold a :class:`ServingReport` into an :class:`Outcome`."""
    events = counters.events
    completed = report.completed
    total = report.total_latency()
    queue = report.queue_latency()
    service = report.service_latency()
    cache_stats = report.cache or {}
    problems = []
    if completed != report.offered:
        problems.append(f"served {completed} of {report.offered} offered requests")
    if cache_stats and cache_stats["hits"] + cache_stats["misses"] != cache_stats["lookups"]:
        problems.append(f"cache hits + misses != probes: {cache_stats}")
    batches = len({(r.dispatched_ms, r.replica) for r in report.requests})
    violation = report.slo_violation_rate
    sim_stats = {
        "events": events,
        "sim_ms": report.duration_ms,
        "p50_ms": total.p50_ms,
        "p99_ms": total.p99_ms,
        "hit_rate": cache_stats.get("hit_rate", 0.0),
        "evictions": cache_stats.get("evictions", 0),
        "nic_bytes": nic_bytes,
        "violation_share": violation,
    }
    layer = {
        "hw.sim_gpu_util": _mean(report.per_device_utilization.values()),
        "hw.sim_link_busy_share": _busiest_link_share(
            links, end_ms - report.duration_ms, end_ms),
        "hw.sim_nic_bytes": nic_bytes,
        "tensor.flops_charged": counters.flops,
        "serve.requests": completed,
        "serve.batches": batches,
        "serve.mean_batch": report.mean_batch_size,
        "serve.sim_queue_p99_ms": queue.p99_ms,
        "serve.sim_service_p99_ms": service.p99_ms,
        "serve.sim_throughput_rps": report.throughput_rps,
        "serve.sim_slo_violation_share": violation,
        **_cache_layer(cache_stats),
    }
    return Outcome(
        events=events,
        sim_ms=report.duration_ms,
        sim_p99_ms=total.p99_ms,
        ops_attempted=report.offered,
        ops_failed=report.offered - completed,
        sim_stats=sim_stats,
        layer=layer,
        problems=problems,
        requests=_request_rows(report),
    )


# -- 1. zoo_offline ---------------------------------------------------------

ZOO_ITERATIONS = 1


def _zoo_setup(seed: int, scale: float):
    loaded = {}
    pairs = []
    for name in MODEL_NAMES:
        dataset_name = DEFAULT_DATASETS[name]
        if dataset_name not in loaded:
            loaded[dataset_name] = datasets.load(dataset_name, scale="small", seed=seed)
        for use_gpu in (False, True):
            machine = Machine.cpu_gpu() if use_gpu else Machine.cpu_only()
            with machine.activate():
                model = build_model(name, machine, dataset=loaded[dataset_name])
            pairs.append((name, use_gpu, machine, model))
    return {"pairs": pairs, "iterations": _scaled(ZOO_ITERATIONS, scale)}


def _zoo_run(state) -> Outcome:
    sim_ms = 0.0
    iterations = 0
    failed = 0
    transfer_ms = 0.0
    gpu_busy_ms = 0.0
    gpu_window_ms = 0.0
    warmup_ms = 0.0
    gpu_total_ms = 0.0
    dominant: List[str] = []
    counters = _Counters([machine for _, _, machine, _ in state["pairs"]])
    for _, use_gpu, machine, model in state["pairs"]:
        profiles = experiments.profile_iterations(model, machine, state["iterations"])
        for profile in profiles:
            breakdown = core.compute_breakdown(profile)
            report = core.analyze_profile(profile)
            iterations += 1
            if profile.elapsed_ms <= 0 or breakdown.total_ms <= 0 or not report.findings:
                failed += 1
            sim_ms += profile.elapsed_ms
            transfer_ms += profile.transfer_time_ms()
            if use_gpu:
                gpu_busy_ms += profile.gpu_utilization() * profile.elapsed_ms
                gpu_window_ms += profile.elapsed_ms
            dominant.append(report.dominant().name)
        if use_gpu:
            warmup_ms += sum(e.duration_ms for e in machine.events if e.kind == WARMUP)
            gpu_total_ms += machine.host_time_ms
    gpu_util = gpu_busy_ms / gpu_window_ms if gpu_window_ms else 0.0
    transfer_share = transfer_ms / sim_ms if sim_ms else 0.0
    events, flops = counters.events, counters.flops
    return Outcome(
        events=events,
        sim_ms=sim_ms,
        sim_p99_ms=None,
        ops_attempted=iterations,
        ops_failed=failed,
        sim_stats={
            "events": events, "sim_ms": sim_ms, "iterations": iterations,
            "flops": flops, "dominant": dominant,
        },
        layer={
            "hw.sim_gpu_util": gpu_util,
            "hw.sim_link_busy_share": transfer_share,
            "tensor.flops_charged": flops,
            "core.sim_gpu_util": gpu_util,
            "core.sim_transfer_share": transfer_share,
            "core.sim_warmup_share": warmup_ms / gpu_total_ms if gpu_total_ms else 0.0,
        },
    )


# -- 2. sched_raw -----------------------------------------------------------

SCHED_ROUNDS = 20_000


def _sched_setup(seed: int, scale: float):
    rounds = _scaled(SCHED_ROUNDS, scale)
    rng = np.random.default_rng(seed)
    return {
        "machine": Machine.from_spec("4xA100-nvlink", record_events=True),
        # Kernel sizes are the seeded input; the call sequence is fixed.
        "flops": rng.uniform(1.0e6, 3.0e6, rounds).tolist(),
        "bytes": rng.integers(16_384, 65_536, rounds).tolist(),
    }


def _sched_run(state) -> Outcome:
    machine = state["machine"]
    cpu = machine.cpu
    gpus = machine.gpus
    calls = 0
    with machine.activate():
        for gpu in gpus:
            machine.initialize_gpu(model_bytes=1 << 20, device=gpu)
        counters = _Counters([machine])
        start_ms = machine.host_time_ms
        for index, (flops, nbytes) in enumerate(zip(state["flops"], state["bytes"])):
            gpu = gpus[index % len(gpus)]
            machine.launch_kernels(gpu, "bench_gemm", 8, flops, 64e3)
            machine.launch_kernel(gpu, "bench_reduce", flops / 8, 16e3)
            machine.host_work("bench_preprocess", 0.02)
            machine.transfer(cpu, gpu, nbytes, non_blocking=True)
            calls += 4
            if index % 4 == 3:
                machine.transfer(gpu, gpus[(index + 1) % len(gpus)], nbytes)
                calls += 1
            if index % 10 == 9:
                machine.synchronize()
                calls += 1
        machine.synchronize(name="final")
        end_ms = machine.host_time_ms
    events = counters.events
    problems = []
    if len(machine.events) != machine.event_count:
        problems.append("event log length differs from the event counter")
    return Outcome(
        events=events,
        sim_ms=end_ms - start_ms,
        sim_p99_ms=None,
        ops_attempted=calls + 1,
        ops_failed=0,
        sim_stats={"events": events, "sim_ms": end_ms - start_ms},
        layer={
            "hw.sim_gpu_util": _mean(g.utilization(start_ms, end_ms) for g in gpus),
            "hw.sim_link_busy_share": _busiest_link_share(machine.links, start_ms, end_ms),
        },
        problems=problems,
    )


# -- 3 + 4. serve_single / serve_single_traced --------------------------------

SINGLE_REQUESTS = 1_500


def _single_setup(seed: int, scale: float, traced: bool = False):
    dataset = datasets.load("wikipedia", scale="small")
    machine = Machine.cpu_gpu(backend="shape")
    with machine.activate():
        model = TGAT(machine, dataset, TGATConfig(num_neighbors=10, batch_size=64, seed=seed))
    requests = _fixed_requests(
        dataset.stream, "poisson", 400.0, _scaled(SINGLE_REQUESTS, scale), seed, slo_ms=50.0)
    policy = serve.make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    tracer = metrics = None
    if traced:
        tracer = obs.Tracer().attach(machine)
        metrics = obs.MetricsRegistry()
    server = serve.InferenceServer(model, policy, overlap=True, tracer=tracer, metrics=metrics)
    return {"machine": machine, "server": server, "requests": requests, "tracer": tracer}


def _single_run(state) -> Outcome:
    machine = state["machine"]
    counters = _Counters([machine])
    report = state["server"].serve(state["requests"], label="serve_single", arrival_name="poisson")
    outcome = _serving_outcome(report, counters, machine.links, machine.host_time_ms)
    tracer = state["tracer"]
    if tracer is not None:
        payload = obs.build_trace(tracer, report=report, label="serve_single_traced")
        obs.validate_trace(payload)
        picked = obs.pick_request(payload, "p99")
        path = obs.attribute_request(payload, picked)
        total = path["total"]
        if abs(sum(v for k, v in path.items() if k != "total") - total) > 1e-6 * max(total, 1.0):
            outcome.problems.append(f"critical path does not sum to the total: {path}")
        outcome.layer.update({
            "obs.spans": len(tracer.spans),
            "obs.trace_events": len(payload["traceEvents"]),
            "obs.sim_cp_queue_share": path["queue"] / total if total else 0.0,
            "obs.sim_cp_sample_share": path["sample"] / total if total else 0.0,
            "obs.sim_cp_compute_share": path["kernel"] / total if total else 0.0,
        })
        outcome.sim_stats["spans"] = len(tracer.spans)
    return outcome


# -- 5. serve_scaleout_burst --------------------------------------------------

BURST_REQUESTS = 3_000
# One flash above the ~2.8 k req/s capacity of the four replicas.  The edges of
# a flash-crowd window are fixed, so the seed moves only the Poisson jitter;
# the `bursty` on/off process draws its phase lengths too, and with a handful
# of phases per repetition the batch count (hence the simulated event count)
# varied five-fold from seed to seed.
BURST_BASE_RATE = 2400.0
BURST_FLASH = {"flash_at_ms": 100.0, "flash_duration_ms": 300.0, "flash_multiplier": 3.0}


def _burst_setup(seed: int, scale: float):
    dataset = datasets.load("wikipedia", scale="small")
    machine = Machine.from_spec("4xA100-nvlink", backend="shape")
    config = TGATConfig(num_neighbors=20, batch_size=64, seed=seed)
    with machine.activate():
        replicas = serve.build_replicas(machine, lambda: TGAT(machine, dataset, config))
    requests = _fixed_requests(
        dataset.stream, "flash-crowd", BURST_BASE_RATE, _scaled(BURST_REQUESTS, scale), seed,
        slo_ms=30.0, **BURST_FLASH)
    policy = serve.make_policy("slo", max_batch_size=64, slo_ms=30.0)
    server = serve.ScaleOutServer(replicas, policy, serve.make_router("jsq", len(replicas)))
    return {"machine": machine, "server": server, "requests": requests}


def _burst_run(state) -> Outcome:
    machine = state["machine"]
    counters = _Counters([machine])
    report = state["server"].serve(
        state["requests"], label="serve_scaleout_burst", arrival_name="flash-crowd")
    return _serving_outcome(report, counters, machine.links, machine.host_time_ms)


# -- 6. serve_cluster_cached --------------------------------------------------

CLUSTER_REQUESTS = 3_000
CLUSTER_CACHE_MB = 0.25


def _cluster_setup(seed: int, scale: float):
    dataset = datasets.load("wikipedia", scale="small")
    cluster = Cluster("2n-2xA100-eth", backend="shape")
    config = TGATConfig(num_neighbors=10, batch_size=64, seed=seed)
    replicas, nodes = serve.build_cluster_replicas(
        cluster, lambda machine: TGAT(machine, dataset, config))
    span_start, span_end = dataset.stream.time_span
    for replica in replicas:
        with replica.machine.activate():
            cache.make_model_cache(
                replica,
                policy="lru",
                capacity_mb=CLUSTER_CACHE_MB,
                staleness_ms=(span_end - span_start) / 4.0,
            )
    requests = _fixed_requests(
        dataset.stream, "poisson", 2000.0, _scaled(CLUSTER_REQUESTS, scale), seed, slo_ms=50.0)
    policy = serve.make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    server = serve.ClusterServer(
        cluster, replicas, nodes, policy, serve.make_router("least-latency", len(replicas)))
    return {"cluster": cluster, "server": server, "requests": requests, "replicas": replicas}


def _cluster_run(state) -> Outcome:
    cluster = state["cluster"]
    counters = _Counters(cluster.nodes)
    report = state["server"].serve(
        state["requests"], label="serve_cluster_cached", arrival_name="poisson")
    links = [link for node in cluster.nodes for link in node.links] + list(cluster.nic_links)
    outcome = _serving_outcome(
        report, counters, links, cluster.time_ms, nic_bytes=cluster.nic_bytes())
    for replica in state["replicas"]:
        for kind in replica.cache.kinds:
            store = replica.cache.store(kind)
            if store.bytes_current > store.capacity_bytes:
                outcome.problems.append(
                    f"{kind} store holds {store.bytes_current} B over {store.capacity_bytes} B")
    return outcome


# -- 7 + 8. cache_read_hot / cache_write_churn ----------------------------------

ROW_NBYTES = 64
READ_ROUNDS = 4_500
READ_KEYS = 512
READ_UNIVERSE = 20_000
READ_CAPACITY_ROWS = 16_384
CHURN_ROUNDS = 110
CHURN_CAPACITY_ROWS = 2_048
CHURN_UNIVERSE = 8_192


def _store(machine: Machine, policy: str, capacity_rows: int) -> DeviceResidentCache:
    return DeviceResidentCache(
        machine,
        machine.gpus[0],
        "embedding",
        make_eviction_policy(policy),
        capacity_rows * ROW_NBYTES,
        1e12,
        weight_of=lambda key: float(key % 97),
    )


def _store_outcome(machine: Machine, stores: Sequence[DeviceResidentCache],
                   counters: _Counters, start_ms: float, calls: int) -> Outcome:
    events = counters.events
    sim_ms = machine.host_time_ms - start_ms
    stats = CacheStats()
    problems = []
    for store in stores:
        stats.merge(store.stats)
        if store.stats.hits + store.stats.misses != store.stats.lookups:
            problems.append(f"hits + misses != probes: {store.stats.as_dict()}")
        if store.bytes_current > store.capacity_bytes:
            problems.append(
                f"store holds {store.bytes_current} B over {store.capacity_bytes} B")
    return Outcome(
        events=events,
        sim_ms=sim_ms,
        sim_p99_ms=None,
        ops_attempted=calls,
        ops_failed=0,
        sim_stats={
            "events": events, "sim_ms": sim_ms, "hit_rate": stats.hit_rate,
            "evictions": stats.evictions, "invalidations": stats.invalidations,
        },
        layer={
            "hw.sim_gpu_util": machine.gpus[0].utilization(start_ms, start_ms + sim_ms),
            "hw.sim_link_busy_share": _busiest_link_share(
                machine.links, start_ms, start_ms + sim_ms),
            **_cache_layer(stats.as_dict()),
        },
        problems=problems,
    )


def _read_setup(seed: int, scale: float):
    rounds = _scaled(READ_ROUNDS, scale)
    rng = np.random.default_rng(seed)
    # Zipf(1.1) bounded to the universe: most of the mass fits in the store.
    weights = np.arange(1, READ_UNIVERSE + 1, dtype=float) ** -1.1
    keys = rng.choice(READ_UNIVERSE, size=(rounds, READ_KEYS), p=weights / weights.sum())
    machine = Machine.cpu_gpu()
    return {
        "machine": machine,
        "store": _store(machine, "lru", READ_CAPACITY_ROWS),
        # Kept as an array: two million boxed ints would be most of the
        # process's memory and make peak_rss_mb a measure of the allocator.
        "keys": keys,
    }


def _read_run(state) -> Outcome:
    machine = state["machine"]
    store = state["store"]
    calls = 0
    with machine.activate():
        machine.initialize_gpu(device=machine.gpus[0])
        counters = _Counters([machine])
        start_ms = machine.host_time_ms
        for index, row in enumerate(state["keys"]):
            now = float(index)
            keys = row.tolist()
            found = store.probe_many(keys, [now] * len(keys))
            misses = [key for key, value in zip(keys, found) if value is None]
            store.put_many(misses, True, [now] * len(misses), ROW_NBYTES)
            store.flush_charges("read")
            calls += 3
        machine.synchronize()
    return _store_outcome(machine, [store], counters, start_ms, calls)


def _churn_setup(seed: int, scale: float):
    rounds = _scaled(CHURN_ROUNDS, scale)
    rng = np.random.default_rng(seed)
    machine = Machine.cpu_gpu()
    return {
        "machine": machine,
        "stores": [_store(machine, policy, CHURN_CAPACITY_ROWS) for policy in ("lru", "degree")],
        "invalidate": rng.integers(0, CHURN_UNIVERSE, (rounds, 256)).tolist(),
        "put": rng.integers(0, CHURN_UNIVERSE, (rounds, 512)).tolist(),
        "probe": rng.integers(0, CHURN_UNIVERSE, (rounds, 64)).tolist(),
    }


def _churn_run(state) -> Outcome:
    machine = state["machine"]
    calls = 0
    with machine.activate():
        machine.initialize_gpu(device=machine.gpus[0])
        counters = _Counters([machine])
        start_ms = machine.host_time_ms
        for store in state["stores"]:
            rounds = zip(state["invalidate"], state["put"], state["probe"])
            for index, (dropped, put, probed) in enumerate(rounds):
                now = float(index)
                store.invalidate(dropped)
                store.put_many(put, True, [now] * len(put), ROW_NBYTES)
                store.probe_many(probed, [now] * len(probed))
                store.flush_charges("churn")
                calls += 4
        machine.synchronize()
    return _store_outcome(machine, state["stores"], counters, start_ms, calls)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "zoo_offline",
            "the paper's experiment: 9 models x cpu/gpu, numeric backend; tensor numerics and "
            "core analysis dominate",
            _zoo_setup, _zoo_run),
        Workload(
            "sched_raw",
            "raw hw scheduling calls only, no other layer runs, so a scheduler change shows "
            "undiluted",
            _sched_setup, _sched_run),
        Workload(
            "serve_single",
            "latency-shaped serving, small batches, no cache or tracer: the bypass workload "
            "for cache and obs changes",
            _single_setup, _single_run),
        Workload(
            "serve_single_traced",
            "serve_single plus tracer, metrics, export and critical path: its distance from "
            "serve_single is the obs layer",
            lambda seed, scale: _single_setup(seed, scale, traced=True), _single_run,
            bypass="serve_single"),
        Workload(
            "serve_scaleout_burst",
            "throughput-shaped serving: 4 replicas, big batches, a flash above capacity that "
            "must drain; sampling, router and slo policy",
            _burst_setup, _burst_run),
        Workload(
            "serve_cluster_cached",
            "2-node cluster with per-replica LRU caches smaller than the working set: NIC, "
            "invalidation and cache admin",
            _cluster_setup, _cluster_run),
        Workload(
            "cache_read_hot",
            "one cache store read under Zipf keys at ~98% hits: the probe path, almost no hw",
            _read_setup, _read_run),
        Workload(
            "cache_write_churn",
            "the same store under invalidate/insert churn with two eviction policies: the "
            "put/evict path and simulated alloc/free",
            _churn_setup, _churn_run),
    )
}
