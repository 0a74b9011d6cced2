"""Backend equivalence: the shape backend must reproduce numeric timelines.

The shape execution backend (``Machine(backend="shape")``) propagates only
shapes/dtypes/device placement through the tensor layer while charging every
kernel, transfer, cache probe and allocation exactly as the numeric backend
does.  These tests pin the contract that makes the backend usable at all:
for the serving, scale-out and cache workloads, the *entire simulated
timeline* -- the ordered event sequence, per-device busy totals, latency
percentiles and cache hit/miss counters -- is equal between backends.
"""

import numpy as np
import pytest

from repro.datasets import load as load_dataset
from repro.experiments import cache_ablation, scaling, serving
from repro.fuzz.program import signature
from repro.graph.sampling import NeighborhoodSample
from repro.hw.machine import Machine
from repro.models.tgat import TGAT, TGATConfig
from repro.serve import build_server, generate_requests, make_arrival_process
from repro.tensor import Tensor, ops
from repro.tensor.meta import is_placeholder

BACKENDS = ("numeric", "shape")


def _busy_by_device(machine):
    return {device.name: device.busy_ms() for device in machine.devices}


def _percentiles(report):
    if not report.completed:
        return None
    total = report.total_latency()
    return (total.p50_ms, total.p95_ms, total.p99_ms)


class Served:
    """One finished serving run: its machines, its report, its TGAT replicas."""

    def __init__(self, server, report):
        self.report = report
        cluster = server.cluster
        self.machines = list(cluster.nodes) if cluster is not None else [server.machine]
        # A sharded server holds one ShardedModel over the per-GPU replicas.
        self.models = [
            model for replica in server.replicas for model in getattr(replica, "replicas", [replica])
        ]

    def replay_stats(self):
        totals = {"recorded": 0, "replayed": 0, "direct": 0}
        for model in self.models:
            for name, count in model.replay_stats.items():
                totals[name] += count
        return totals


def _serve(
    backend,
    topology="1xA6000",
    *,
    rate=400.0,
    duration_ms=800.0,
    warm_pass=False,
    cache_mb=None,
    model_class=TGAT,
    **serving,
):
    """One tiny serving run (>= 300 requests) on the given backend."""
    dataset = load_dataset("wikipedia", scale="tiny")
    config = TGATConfig(num_neighbors=10, batch_size=64, seed=0)
    if cache_mb is not None:
        span_start, span_end = dataset.stream.time_span
        serving["cache"] = {
            "policy": "lru",
            "capacity_mb": cache_mb,
            "staleness_ms": max((span_end - span_start) * 2.0, 1.0),
        }
    serving.setdefault("batch_timeout_ms", 4.0)
    server = build_server(
        topology,
        lambda machine: model_class(machine, dataset, config),
        backend=backend,
        slo_ms=serving.pop("slo_ms", 50.0),
        **serving,
    )
    arrivals = make_arrival_process("poisson", rate, seed=0)
    requests = generate_requests(
        dataset.stream, arrivals, duration_ms=duration_ms, events_per_request=1, slo_ms=50.0
    )
    assert len(requests) >= 300
    if warm_pass:
        server.serve(requests, label="eq-warm", arrival_name="poisson")
    report = server.serve(requests, label="eq", arrival_name="poisson", warm_up=not warm_pass)
    return Served(server, report)


def _assert_equivalent(numeric, shape, *, check_cache=False, replays=True):
    """numeric == shape on every machine, and the shape side really replayed.

    The two guards keep the differential from passing vacuously: a shape run
    that never replayed proves nothing about replay == direct, and the numeric
    run is only a reference while it never touches a tape.
    """
    assert len(shape.machines) == len(numeric.machines)
    for shape_machine, numeric_machine in zip(shape.machines, numeric.machines):
        assert shape_machine.host_time_ms == numeric_machine.host_time_ms
        assert shape_machine.event_count == numeric_machine.event_count
        assert signature(shape_machine) == signature(numeric_machine)
        assert _busy_by_device(shape_machine) == _busy_by_device(numeric_machine)
        assert shape_machine.device_flops_totals() == numeric_machine.device_flops_totals()
    assert shape.report.completed == numeric.report.completed
    assert numeric.report.completed >= 300
    assert _percentiles(shape.report) == _percentiles(numeric.report)
    assert numeric.replay_stats() == {"recorded": 0, "replayed": 0, "direct": 0}
    stats = shape.replay_stats()
    if replays:
        assert stats["recorded"] > 0 and stats["replayed"] > 0, stats
    else:
        assert stats["recorded"] == stats["replayed"] == 0 and stats["direct"] > 0, stats
    if check_cache:
        numeric_cache = numeric.report.cache or {}
        shape_cache = shape.report.cache or {}
        for key in ("lookups", "hits", "misses", "inserts", "evictions",
                    "stale_rejects", "invalidations"):
            assert shape_cache.get(key) == numeric_cache.get(key)
        assert numeric_cache.get("hits", 0) > 0
    return stats


def test_single_overlap_serving_timeline_identical():
    stats = _assert_equivalent(_serve("numeric", overlap=True), _serve("shape", overlap=True))
    # One signature per batch size the timeout policy formed (at most 8).
    assert stats["recorded"] <= 8 and stats["direct"] == 0


def test_blocking_serving_timeline_identical():
    # Plan-less inference_iteration interleaves sampling with compute: never taped.
    _assert_equivalent(_serve("numeric"), _serve("shape"), replays=False)


def test_cached_serving_identical_including_hit_miss_stream():
    _assert_equivalent(
        _serve("numeric", overlap=True, cache_mb=8.0, warm_pass=True),
        _serve("shape", overlap=True, cache_mb=8.0, warm_pass=True),
        check_cache=True,
    )


def test_replicated_scaleout_identical():
    _assert_equivalent(
        _serve("numeric", "2xA100-pcie", placement="replicate"),
        _serve("shape", "2xA100-pcie", placement="replicate"),
    )


def test_sharded_scaleout_identical():
    _assert_equivalent(
        _serve("numeric", "2xA100-pcie", placement="shard"),
        _serve("shape", "2xA100-pcie", placement="shard"),
    )


def test_cluster_with_a_cache_smaller_than_the_working_set_identical():
    runs = [
        _serve(backend, "2n-1xA100-eth", router="least-latency", rate=800.0, duration_ms=500.0,
               cache_mb=0.02)
        for backend in BACKENDS
    ]
    _assert_equivalent(*runs, check_cache=True)
    assert runs[0].report.cache["evictions"] > 0
    assert all(machine.event_count > 0 for machine in runs[1].machines)


@pytest.mark.parametrize("cache_mb", (None, 8.0))
def test_slo_fidelity_under_overload_identical(cache_mb):
    runs = [
        _serve(backend, overlap=True, policy="slo", slo_ms=20.0, batch_timeout_ms=2.0,
               fidelity=True, rate=6000.0, duration_ms=60.0, cache_mb=cache_mb)
        for backend in BACKENDS
    ]
    _assert_equivalent(*runs, check_cache=cache_mb is not None)
    numeric, shape = (run.report.fidelity for run in runs)
    assert numeric == shape
    # The controller really narrowed the fan-out (and, cached, widened the
    # staleness bound), so the plans' own widths picked the tapes.
    assert numeric["fanout_requests"] > 0
    assert numeric["max_level_seen"] >= (2 if cache_mb else 1)


# -- shape-backend samples resolve their ids only when read --------------------


def _stamps(report):
    return [(r.request_id, r.arrival_ms, r.dispatched_ms, r.completed_ms, r.replica)
            for r in report.requests]


@pytest.mark.parametrize("topology, serving", [
    ("1xA6000", {"overlap": True}),
    ("2xA100-pcie", {"placement": "replicate"}),
])
def test_shape_serving_resolves_only_the_layer2_query(topology, serving, monkeypatch):
    """Of a batch's three queries (layer-2 targets, layer-1 targets, their
    neighbours), only the first one's ids feed a deeper query; the others are
    never resolved.  Resolving all of them up front changes nothing."""
    deferred = NeighborhoodSample.deferred.__func__
    made, resolved = [], []

    def counted(cls, resolve, *payload):
        index = len(made)
        made.append(index)

        def spy():
            resolved.append(index)
            return resolve()

        return deferred(cls, spy, *payload)

    monkeypatch.setattr(NeighborhoodSample, "deferred", classmethod(counted))
    lazy = _serve("shape", topology, **serving)
    assert len(made) % 3 == 0 and made
    assert resolved == made[::3]
    monkeypatch.setattr(
        NeighborhoodSample, "deferred",
        classmethod(lambda cls, resolve, *payload: cls(resolve(), *payload)),
    )
    eager = _serve("shape", topology, **serving)
    assert lazy.replay_stats() == eager.replay_stats()
    assert lazy.replay_stats()["replayed"] > 0
    assert _percentiles(lazy.report) == _percentiles(eager.report)
    assert _stamps(lazy.report) == _stamps(eager.report)
    for lazy_machine, eager_machine in zip(lazy.machines, eager.machines):
        assert signature(lazy_machine) == signature(eager_machine)


# -- what must run direct ------------------------------------------------------


def test_a_batch_before_the_feature_table_is_resident_runs_direct():
    """Its upload is charged once, by that batch, and is on no tape."""
    dataset = load_dataset("wikipedia", scale="tiny")
    config = TGATConfig(num_neighbors=10, batch_size=64, seed=0)
    batches = list(dataset.stream.iter_batches(4))[:4]
    machines = {}
    for backend in BACKENDS:
        machine = machines[backend] = Machine.cpu_gpu(backend=backend)
        with machine.activate():
            model = TGAT(machine, dataset, config)
            # No warm_up(): the first compute finds the table on the host only.
            for batch in batches:
                model.compute_iteration(batch, model.prepare_iteration(batch))
        uploads = [e for e in machine.events if e.name == "feature_table" and e.kind == "transfer"]
        assert len(uploads) == 1
        if backend == "shape":
            assert model.replay_stats == {"recorded": 1, "replayed": 2, "direct": 1}
    assert signature(machines["shape"]) == signature(machines["numeric"])
    assert machines["shape"].host_time_ms == machines["numeric"].host_time_ms


class SyncingTGAT(TGAT):
    """A TGAT whose compute block does something no tape can reproduce."""

    def _embed(self, nodes, times, layer, plan=None):
        if layer == self.config.num_layers:
            self.machine.synchronize(name="mid_embed_sync")
        return super()._embed(nodes, times, layer, plan=plan)


def test_a_model_that_synchronizes_inside_its_compute_is_never_replayed():
    numeric = _serve("numeric", overlap=True, model_class=SyncingTGAT)
    shape = _serve("shape", overlap=True, model_class=SyncingTGAT)
    _assert_equivalent(numeric, shape, replays=False)
    assert any(e.name == "mid_embed_sync" for e in shape.machines[0].events)


# -- experiment-level equivalence (default sweeps, tiny scale) ---------------


def _experiment_rows(experiment):
    rows = {backend: experiment.run("tiny", 0, backend).rows for backend in BACKENDS}
    assert rows["numeric"]
    return rows


def test_serving_experiment_rows_identical():
    rows = _experiment_rows(serving)
    assert rows["shape"] == rows["numeric"]


def test_scaling_experiment_rows_identical():
    rows = _experiment_rows(scaling)
    assert rows["shape"] == rows["numeric"]


def test_cache_ablation_experiment_rows_identical():
    rows = _experiment_rows(cache_ablation)
    # The warm nonzero-staleness cells must actually have served hits, or the
    # equality below proves nothing about the cache path.
    assert any(row["hit_rate"] for row in rows["numeric"])
    assert rows["shape"] == rows["numeric"]


# -- backend selection plumbing ----------------------------------------------


def test_machine_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown execution backend"):
        Machine.cpu_gpu(backend="symbolic")


def test_shape_mode_outputs_are_placeholders_and_numeric_are_dense():
    for backend, expect_placeholder in (("numeric", False), ("shape", True)):
        machine = Machine.cpu_gpu(backend=backend)
        with machine.activate():
            a = Tensor.zeros((4, 8), machine.gpus[0])
            b = Tensor.zeros((8, 3), machine.gpus[0])
            out = ops.matmul(a, b)
        assert out.data.shape == (4, 3)
        assert is_placeholder(out.data) == expect_placeholder
        assert out.data.dtype == np.float32


def _dense(shape, like):
    return Tensor(np.ones(shape, dtype=np.float32), like.device)


#: Calls numpy refuses, on ``x`` of shape (3, 4): each backend must refuse
#: them too, with a ``ValueError``, before anything is charged.
REFUSED = {
    "reduce_sum axis=2": lambda x: ops.reduce_sum(x, axis=2),
    "concat (3,4)+(2,5)": lambda x: ops.concat([x, _dense((2, 5), x)], axis=0),
    "concat axis=3": lambda x: ops.concat([x, x], axis=3),
    "stack axis=5": lambda x: ops.stack([x, x], axis=5),
    "reshape (5,5)": lambda x: ops.reshape(x, (5, 5)),
    "linear w(6,5)": lambda x: ops.linear(x, _dense((6, 5), x), _dense((6,), x)),
    "softmax axis=3": lambda x: ops.softmax(x, axis=3),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("call", sorted(REFUSED))
def test_both_backends_refuse_what_numpy_refuses_before_charging(call, backend):
    machine = Machine("1xA6000", backend=backend)
    machine.initialize_gpu()
    with machine.activate():
        x = Tensor(np.ones((3, 4), dtype=np.float32), machine.gpu)
        logged = len(machine.events)
        with pytest.raises(ValueError):
            REFUSED[call](x)
    assert len(machine.events) == logged
