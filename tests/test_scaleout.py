"""Scale-out serving: replicated throughput/latency wins, sharded execution."""

import pytest

from repro.datasets import load
from repro.graph.partition import make_partition
from repro.hw import Machine
from repro.models.tgat import TGAT, TGATConfig
from repro.serve import (
    InferenceServer,
    ScaleOutServer,
    ShardedModel,
    build_replicas,
    generate_requests,
    make_arrival_process,
    make_policy,
    make_router,
)


def make_dataset():
    return load("wikipedia", scale="tiny")


def make_replicas(dataset, spec, num_gpus, batch_size=32, num_neighbors=10, seed=0):
    machine = Machine.from_spec(spec)
    config = TGATConfig(num_neighbors=num_neighbors, batch_size=batch_size, seed=seed)
    with machine.activate():
        return build_replicas(
            machine,
            lambda: TGAT(machine, dataset, config),
            machine.gpus[:num_gpus],
        )


def serve_replicated(dataset, spec, num_gpus, rate, router="round-robin",
                     duration_ms=300.0, seed=0):
    replicas = make_replicas(dataset, spec, num_gpus, seed=seed)
    arrivals = make_arrival_process("poisson", rate, seed=seed)
    requests = generate_requests(
        dataset.stream, arrivals, duration_ms=duration_ms,
        events_per_request=4, slo_ms=50.0,
    )
    policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    server = ScaleOutServer(replicas, policy, make_router(router, len(replicas)))
    return server.serve(requests, label=f"{spec}-x{num_gpus}")


class TestReplicatedServing:
    def test_two_gpus_strictly_beat_one_at_queueing_rate(self):
        """The headline scale-out claim: at a rate that queues on one GPU,
        adding a replica strictly improves throughput *and* p99."""
        dataset = make_dataset()
        rate = 800.0  # above the ~600 req/s single-replica capacity
        one = serve_replicated(dataset, "1xA100", 1, rate)
        two = serve_replicated(dataset, "2xA100-pcie", 2, rate)
        assert one.completed == two.completed  # same offered workload
        assert two.throughput_rps > one.throughput_rps
        assert two.total_latency().p99_ms < one.total_latency().p99_ms

    def test_replicas_share_the_load(self):
        dataset = make_dataset()
        report = serve_replicated(dataset, "2xA100-pcie", 2, 800.0)
        spread = report.requests_per_replica()
        assert set(spread) == {0, 1}
        assert min(spread.values()) > 0

    def test_deterministic_under_fixed_seed(self):
        dataset = make_dataset()
        a = serve_replicated(dataset, "2xA100-pcie", 2, 700.0, seed=3)
        b = serve_replicated(dataset, "2xA100-pcie", 2, 700.0, seed=3)
        assert a.summary() == b.summary()

    def test_per_device_utilization_reported_for_every_gpu(self):
        dataset = make_dataset()
        report = serve_replicated(dataset, "2xA100-pcie", 2, 800.0)
        assert set(report.per_device_utilization) == {"a100-sxm:0", "a100-sxm:1"}
        assert all(v > 0 for v in report.per_device_utilization.values())
        assert report.placement == "replicate"
        assert report.num_replicas == 2

    def test_all_requests_complete_with_consistent_latencies(self):
        dataset = make_dataset()
        report = serve_replicated(dataset, "2xA100-pcie", 2, 700.0)
        assert report.completed == report.offered
        for request in report.requests:
            assert request.completed_ms >= request.dispatched_ms
            # Admission tolerates a 1e-9 clock epsilon, so allow it here too.
            assert request.dispatched_ms >= request.arrival_ms - 1e-6
            assert request.replica in (0, 1)

    def test_jsq_router_end_to_end(self):
        dataset = make_dataset()
        report = serve_replicated(dataset, "2xA100-pcie", 2, 800.0, router="jsq")
        assert report.completed == report.offered
        assert "jsq" in report.router

    def test_rejects_models_without_async_dispatch(self):
        dataset = make_dataset()
        replicas = make_replicas(dataset, "2xA100-pcie", 2)

        class Blocking:
            machine = replicas[0].machine
            supports_async_dispatch = False

        policy = make_policy("fifo")
        with pytest.raises(TypeError):
            ScaleOutServer([Blocking(), Blocking()], policy, make_router("jsq", 2))

    def test_rejects_router_replica_mismatch(self):
        dataset = make_dataset()
        replicas = make_replicas(dataset, "2xA100-pcie", 2)
        policy = make_policy("fifo")
        with pytest.raises(ValueError):
            ScaleOutServer(replicas, policy, make_router("jsq", 3))

    def test_router_feedback_excludes_queue_behind_own_replica(self):
        """The router must see per-batch *execution* time: a batch that sat
        behind its replica's previous batch reports only its own span."""
        from repro.hw.stream import StreamEvent
        from repro.serve.core import Flight
        from repro.serve.request import Request

        dataset = make_dataset()
        replicas = make_replicas(dataset, "1xA100", 1)
        policy = make_policy("fifo")
        router = make_router("least-latency", 1)
        observed = []
        original = router.notify_complete
        router.notify_complete = lambda i, n, ms: (observed.append(ms), original(i, n, ms))
        server = ScaleOutServer(replicas, policy, router)
        machine = server.machine

        def fake(request_id, dispatched, ready):
            request = Request(request_id=request_id, arrival_ms=dispatched,
                              payload=None, dispatched_ms=dispatched)
            event = StreamEvent(stream="default", resource="a100-sxm",
                                ready_ms=ready, name="t")
            return Flight([request], 0, event)

        # Batch A: dispatched at 0, done at 10.  Batch B: dispatched at 1,
        # done at 18 -- it executed for 8 ms after A finished, though its
        # dispatch->completion span is 17 ms.
        server._inflight = [fake(0, 0.0, 10.0), fake(1, 1.0, 18.0)]
        machine.advance_host(20.0 - machine.host_time_ms)
        server._retire([])  # the loop origin (server._t0) is 0.0 before serve()
        assert observed == [pytest.approx(10.0), pytest.approx(8.0)]

    def test_empty_workload_returns_empty_report(self):
        dataset = make_dataset()
        replicas = make_replicas(dataset, "2xA100-pcie", 2)
        policy = make_policy("fifo")
        server = ScaleOutServer(replicas, policy, make_router("round-robin", 2))
        report = server.serve([])
        assert report.completed == 0 and report.offered == 0


class TestShardedServing:
    def serve_sharded(self, dataset, spec, num_gpus, rate=250.0, seed=0,
                      partitioner="degree"):
        replicas = make_replicas(dataset, spec, num_gpus, seed=seed)
        partition = make_partition(partitioner, dataset.stream, num_gpus, seed=seed)
        sharded = ShardedModel(replicas, partition)
        arrivals = make_arrival_process("poisson", rate, seed=seed)
        requests = generate_requests(
            dataset.stream, arrivals, duration_ms=200.0,
            events_per_request=4, slo_ms=100.0,
        )
        policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
        server = InferenceServer(sharded, policy)
        return (sharded, server.serve(requests, label=f"shard-{spec}"))

    def test_sharded_serving_completes_and_reports_shard_placement(self):
        dataset = make_dataset()
        sharded, report = self.serve_sharded(dataset, "2xA100-nvlink", 2)
        assert report.completed == report.offered > 0
        assert report.placement == "shard"
        assert report.num_replicas == 2

    def test_cross_shard_gathers_are_charged_to_the_interconnect(self):
        dataset = make_dataset()
        sharded, _ = self.serve_sharded(dataset, "2xA100-nvlink", 2)
        assert sharded.cross_shard_rows > 0
        machine = sharded.machine
        peer = machine.topology.peer_link(machine.gpus[0], machine.gpus[1])
        assert sum(e.bytes for e in machine.events if e.resource == peer.name) > 0

    def test_pcie_sharding_stages_gathers_through_host_links(self):
        dataset = make_dataset()
        sharded, _ = self.serve_sharded(dataset, "2xA100-pcie", 2)
        machine = sharded.machine
        gather_bytes = [
            e.bytes
            for e in machine.events
            if e.kind == "transfer" and e.name == "shard_gather"
        ]
        assert gather_bytes  # staged hops emit transfer events on host links
        assert all(
            e.resource.startswith("pcie")
            for e in machine.events
            if e.kind == "transfer" and e.name == "shard_gather"
        )

    def test_both_gpus_do_work(self):
        dataset = make_dataset()
        _, report = self.serve_sharded(dataset, "2xA100-nvlink", 2)
        utils = report.per_device_utilization
        assert len(utils) == 2
        assert all(v > 0 for v in utils.values())

    def test_deterministic_under_fixed_seed(self):
        dataset = make_dataset()
        _, a = self.serve_sharded(dataset, "2xA100-nvlink", 2, seed=5)
        _, b = self.serve_sharded(dataset, "2xA100-nvlink", 2, seed=5)
        assert a.summary() == b.summary()

    def test_rejects_partition_replica_mismatch(self):
        dataset = make_dataset()
        replicas = make_replicas(dataset, "2xA100-pcie", 2)
        partition = make_partition("hash", dataset.stream, 3, seed=0)
        with pytest.raises(ValueError):
            ShardedModel(replicas, partition)


class TestScalingExperiment:
    def test_scaling_experiment_headline_invariants(self):
        from repro.experiments import run_experiment

        result = run_experiment("scaling", scale="tiny", backend="shape")
        # At the queueing utilization, replicated rows only.
        rows = {
            row["spec"]: row
            for row in result.rows
            if row["utilization"] == 1.6 and row["placement"] == "replicate"
        }
        one, two = (rows["1xA100"], rows["2xA100-pcie"])
        assert two["throughput_rps"] > one["throughput_rps"]
        assert two["p99_ms"] < one["p99_ms"]
        assert two["throughput_vs_1gpu"] > 1.0
        assert two["p99_vs_1gpu"] < 1.0
