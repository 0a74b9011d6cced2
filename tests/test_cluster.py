"""Cluster hardware + serving: NIC routing, single-node identity, cold starts."""

import pytest

from repro.datasets import load
from repro.hw import (
    CLUSTER_SPECS,
    Cluster,
    ETHERNET_25G,
    INFINIBAND_HDR,
    Machine,
    available_cluster_specs,
    cluster_spec,
)
from repro.models.tgat import TGAT, TGATConfig
from repro.serve import (
    AutoscaleConfig,
    Autoscaler,
    ClusterServer,
    ScaleOutServer,
    build_cluster_replicas,
    build_replicas,
    build_server,
    generate_requests,
    make_arrival_process,
    make_policy,
    make_requests,
    make_router,
)


def make_dataset():
    return load("wikipedia", scale="tiny")


def serve_cluster(dataset, cluster_name, rate=700.0, seed=0, router="round-robin",
                  backend="numeric", duration_ms=300.0, autoscale=None,
                  arrival="poisson", **arrival_kwargs):
    cluster = Cluster(cluster_name, backend=backend)
    config = TGATConfig(num_neighbors=10, batch_size=32, seed=seed)
    replicas, nodes = build_cluster_replicas(
        cluster, lambda machine: TGAT(machine, dataset, config)
    )
    arrivals = make_arrival_process(arrival, rate, seed=seed, **arrival_kwargs)
    requests = generate_requests(
        dataset.stream, arrivals, duration_ms=duration_ms,
        events_per_request=4, slo_ms=50.0,
    )
    policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    autoscaler = Autoscaler(autoscale) if autoscale is not None else None
    server = ClusterServer(
        cluster, replicas, nodes, policy,
        make_router(router, len(replicas)), autoscaler=autoscaler,
    )
    report = server.serve(requests, label=cluster_name, arrival_name=arrival)
    return cluster, report


def all_events(cluster):
    events = []
    for node in cluster.nodes:
        events.extend(node.events)
    return events


class TestClusterSpecs:
    def test_registry_is_sorted_and_resolves(self):
        names = available_cluster_specs()
        assert names == sorted(names)
        for name in names:
            spec = cluster_spec(name)
            assert spec is CLUSTER_SPECS[name]
            assert spec.total_gpus == spec.num_nodes * spec.node.num_gpus

    def test_unknown_spec_raises(self):
        with pytest.raises(KeyError):
            cluster_spec("3n-doesnotexist")

    def test_nic_presets_are_ordered_as_documented(self):
        assert INFINIBAND_HDR.bandwidth_gbps > ETHERNET_25G.bandwidth_gbps
        assert INFINIBAND_HDR.latency_us < ETHERNET_25G.latency_us

    def test_cluster_builds_one_link_per_node_pair(self):
        cluster = Cluster("4n-1xA100-eth")
        assert cluster.num_nodes == 4
        assert len(cluster.nic_links) == 6  # C(4, 2)
        with pytest.raises(ValueError):
            cluster.nic_link(1, 1)
        single = Cluster("1n-2xA100")
        assert single.nic_links == ()


class TestNicRouting:
    def test_cross_node_transfer_routes_gpu_host_nic_host_gpu(self):
        cluster = Cluster("2n-1xA100-eth")
        src = cluster.nodes[0].gpus[0]
        dst = cluster.nodes[1].gpus[0]
        nbytes = 1 << 20
        arrival = cluster.transfer(0, src, 1, dst, nbytes, name="xfer")
        assert arrival > 0
        assert cluster.nic_bytes() == nbytes
        hops = [e for e in all_events(cluster) if e.kind == "transfer" and e.name == "xfer"]
        resources = [e.resource for e in hops]
        # d2h on the source host link, the NIC hop, h2d on the destination.
        assert len(hops) == 3
        assert any(r.startswith("eth") for r in resources)
        assert sum(1 for r in resources if r.startswith("pcie")) == 2
        # Hops serialize: each starts no earlier than the previous one lands.
        ordered = sorted(hops, key=lambda e: e.start_ms)
        for earlier, later in zip(ordered, ordered[1:]):
            assert later.start_ms >= earlier.end_ms - 1e-9

    def test_host_to_host_transfer_skips_the_gpu_hops(self):
        cluster = Cluster("2n-1xA100-eth")
        cluster.transfer(0, cluster.nodes[0].cpu, 1, cluster.nodes[1].cpu, 4096, name="h2h")
        hops = [e for e in all_events(cluster) if e.kind == "transfer" and e.name == "h2h"]
        assert len(hops) == 1
        assert hops[0].resource.startswith("eth")

    def test_intra_node_transfer_never_touches_a_nic(self):
        cluster = Cluster("2n-2xA100-eth")
        node = cluster.nodes[0]
        cluster.transfer(0, node.cpu, 0, node.gpus[0], 1 << 16, name="local")
        assert cluster.nic_bytes() == 0
        hops = [e for e in all_events(cluster) if e.kind == "transfer" and e.name == "local"]
        assert hops and all(not e.resource.startswith("eth") for e in hops)

    def test_infiniband_beats_ethernet_on_the_same_payload(self):
        nbytes = 8 << 20

        def arrival(name):
            cluster = Cluster(name)
            return cluster.transfer(
                0, cluster.nodes[0].cpu, 1, cluster.nodes[1].cpu, nbytes
            )

        assert arrival("2n-1xA100-ib") < arrival("2n-1xA100-eth")

    def test_receiving_node_clock_syncs_forward_to_the_arrival(self):
        cluster = Cluster("2n-1xA100-eth")
        arrival = cluster.transfer(
            0, cluster.nodes[0].gpus[0], 1, cluster.nodes[1].gpus[0], 1 << 20
        )
        # The h2d hop was issued by node 1's host at (or after) payload
        # arrival at its NIC, so its clock cannot lag the hop's start.
        assert cluster.nodes[1].host_time_ms > 0
        assert cluster.nodes[1].host_time_ms <= arrival + 1e-6
        assert cluster.time_ms == pytest.approx(
            max(n.host_time_ms for n in cluster.nodes)
        )
        assert cluster.host_time_ms == cluster.time_ms

    def test_a_nic_hop_is_logged_on_the_stream_it_occupied(self):
        """The hop's event used to name the NIC's default stream whatever
        stream the copy queued on, so the log disagreed with the timelines."""
        cluster = Cluster("2n-1xA100-eth")
        nic = cluster.nic_link(0, 1)
        cluster.transfer(
            0, cluster.nodes[0].cpu, 1, cluster.nodes[1].cpu, 1 << 20, name="bulk_copy",
            stream=nic.stream("bulk"),
        )
        (hop,) = [e for e in all_events(cluster) if e.name == "bulk_copy"]
        busy = {s.name: s.busy_ms() for s in nic.streams}
        assert busy == {"default": 0.0, "bulk": hop.duration_ms}
        assert (hop.resource, hop.stream) == (nic.name, "bulk")
        # A stream of some other link is still refused.
        with pytest.raises(ValueError, match="not to link"):
            cluster.transfer(
                0, cluster.nodes[0].cpu, 1, cluster.nodes[1].cpu, 64,
                stream=cluster.nodes[0].link.stream("bulk"),
            )

    def test_rejects_negative_bytes_and_identical_endpoints(self):
        cluster = Cluster("2n-1xA100-eth")
        with pytest.raises(ValueError):
            cluster.transfer(0, cluster.nodes[0].cpu, 1, cluster.nodes[1].cpu, -1)
        with pytest.raises(ValueError):
            cluster.transfer(0, cluster.nodes[0].cpu, 0, cluster.nodes[0].cpu, 64)


class TestSingleNodeIdentity:
    def test_single_node_cluster_serving_is_event_identical_to_scaleout(self):
        """The acceptance bar: a 1-node cluster must replay the scale-out
        server's exact event stream -- same kinds, names, resources, times."""
        dataset = make_dataset()
        seed = 0
        config = TGATConfig(num_neighbors=10, batch_size=32, seed=seed)

        def requests_for(stream):
            arrivals = make_arrival_process("poisson", 700.0, seed=seed)
            return generate_requests(
                stream, arrivals, duration_ms=300.0,
                events_per_request=4, slo_ms=50.0,
            )

        cluster = Cluster("1n-2xA100")
        replicas, nodes = build_cluster_replicas(
            cluster, lambda machine: TGAT(machine, dataset, config)
        )
        cluster_server = ClusterServer(
            cluster, replicas, nodes,
            make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0),
            make_router("round-robin", len(replicas)),
        )
        cluster_report = cluster_server.serve(requests_for(dataset.stream))

        machine = Machine.from_spec("2xA100-pcie")
        with machine.activate():
            flat = build_replicas(machine, lambda: TGAT(machine, dataset, config))
        scaleout_server = ScaleOutServer(
            flat,
            make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0),
            make_router("round-robin", len(flat)),
        )
        scaleout_report = scaleout_server.serve(requests_for(dataset.stream))

        def trace(m):
            return [
                (e.kind, e.name, e.resource, e.start_ms, e.end_ms, e.bytes)
                for e in m.events
            ]

        assert trace(cluster.nodes[0]) == trace(machine)
        assert cluster.nic_bytes() == 0
        assert cluster_report.completed == scaleout_report.completed
        assert cluster_report.total_latency().p99_ms == pytest.approx(
            scaleout_report.total_latency().p99_ms
        )

    def test_identity_holds_with_cache_backfill_and_fidelity(self):
        """The same bar with every optional part attached: per-replica caches,
        the post-warm-up backfill and the slo policy's fidelity controller all
        reach the machine-topology server through the same pass-throughs."""
        dataset = make_dataset()
        config = TGATConfig(num_neighbors=10, batch_size=32, seed=0)

        def serve(topology, placement):
            server = build_server(
                topology, lambda machine: TGAT(machine, dataset, config),
                placement=placement, policy="slo", batch_timeout_ms=2.0, slo_ms=20.0,
                router="least-latency", fidelity=True, backfill=16,
                cache={"policy": "lru", "capacity_mb": 8.0, "staleness_ms": 1e6},
            )
            requests = make_requests(
                dataset.stream, "poisson", 9000.0, 60.0, events_per_request=4, slo_ms=20.0
            )
            return server, server.serve(requests, label="identity", arrival_name="poisson")

        cluster_server, cluster_report = serve("1n-2xA100", "single")
        machine_server, machine_report = serve("2xA100-pcie", "replicate")
        assert isinstance(cluster_server, ClusterServer)
        assert isinstance(machine_server, ScaleOutServer)

        def trace(m):
            return [
                (e.kind, e.name, e.resource, e.start_ms, e.end_ms, e.bytes, e.region)
                for e in m.events
            ]

        assert trace(cluster_server.machine) == trace(machine_server.machine)
        assert any("Cache Backfill" in e.region for e in machine_server.machine.events)
        assert machine_report.fidelity["degraded_batches"] > 0
        assert cluster_report.fidelity == machine_report.fidelity
        assert cluster_report.cache == machine_report.cache
        assert cluster_report.cache["hits"] > 0
        assert [r.completed_ms for r in cluster_report.requests] == [
            r.completed_ms for r in machine_report.requests
        ]


class TestMultiNodeServing:
    def test_two_node_serving_completes_and_spreads_load(self):
        dataset = make_dataset()
        cluster, report = serve_cluster(dataset, "2n-1xA100-eth")
        assert report.completed == report.offered > 0
        spread = report.requests_per_replica()
        assert set(spread) == {0, 1}
        assert min(spread.values()) > 0
        assert cluster.nic_bytes() > 0  # replica 1's payloads crossed the NIC

    def test_report_carries_the_cluster_block_and_remote_gpu_keys(self):
        dataset = make_dataset()
        cluster, report = serve_cluster(dataset, "2n-1xA100-eth")
        nic_busy = report.cluster.pop("nic_busy")
        assert report.cluster == {
            "spec": "2n-1xA100-eth",
            "num_nodes": 2,
            "nic": "eth-25g",
            "nic_bytes": cluster.nic_bytes(),
        }
        # Per-link NIC busy fractions, one per node pair, within [0, 1] and
        # non-zero: replica 1's payloads crossed the 0-1 link.
        assert set(nic_busy) == {"eth-25g:0-1"}
        assert 0 < nic_busy["eth-25g:0-1"] <= 1
        # Multi-node runs node-qualify every per-device key: node machines
        # share GPU names, so bare node-0 names would collide with remote ones.
        keys = set(report.per_device_utilization)
        assert "node0:a100-sxm" in keys
        assert "node1:a100-sxm" in keys
        assert all(v > 0 for v in report.per_device_utilization.values())

    def test_deterministic_under_fixed_seed(self):
        dataset = make_dataset()
        _, a = serve_cluster(dataset, "2n-1xA100-eth", seed=3)
        _, b = serve_cluster(dataset, "2n-1xA100-eth", seed=3)
        assert a.summary() == b.summary()

    def assert_shape_matches_numeric(self, cluster_name, **kwargs):
        dataset = make_dataset()
        numeric_cluster, numeric = serve_cluster(dataset, cluster_name, **kwargs)
        shape_cluster, shape = serve_cluster(
            dataset, cluster_name, backend="shape", **kwargs
        )
        assert shape_cluster.event_count == numeric_cluster.event_count
        assert shape_cluster.time_ms == numeric_cluster.time_ms
        assert shape.total_latency().p99_ms == numeric.total_latency().p99_ms
        return numeric, shape

    def test_shape_backend_matches_numeric_event_for_event(self):
        self.assert_shape_matches_numeric("2n-1xA100-eth")

    def test_shape_backend_matches_numeric_under_autoscaling(self):
        """The autoscaler reads simulated latencies, so a backend that moved
        one would change its decisions: both must scale identically."""
        numeric, shape = self.assert_shape_matches_numeric(
            "2n-2xA100-eth", rate=400.0, duration_ms=250.0, router="least-latency",
            arrival="flash-crowd", flash_at_ms=75.0, flash_duration_ms=100.0,
            flash_multiplier=6.0,
            autoscale=AutoscaleConfig(
                min_replicas=1, max_replicas=4, slo_ms=50.0,
                up_cooldown_ms=10.0, down_cooldown_ms=40.0,
            ),
        )
        assert numeric.autoscale["scale_ups"] >= 1
        assert shape.autoscale["scale_ups"] == numeric.autoscale["scale_ups"]
        assert shape.autoscale["scale_downs"] == numeric.autoscale["scale_downs"]

    def test_payload_nbytes_counts_the_event_arrays(self):
        dataset = make_dataset()
        requests = generate_requests(
            dataset.stream, make_arrival_process("poisson", 500.0, seed=0),
            duration_ms=100.0, events_per_request=4,
        )
        payload = requests[0].payload
        expected = sum(
            array.nbytes
            for array in (payload.src, payload.dst, payload.timestamps, payload.edge_features)
        )
        assert payload.nbytes() == expected > 1

    def test_rejects_replica_on_the_wrong_node(self):
        dataset = make_dataset()
        cluster = Cluster("2n-1xA100-eth")
        config = TGATConfig(num_neighbors=10, batch_size=32, seed=0)
        replicas, nodes = build_cluster_replicas(
            cluster, lambda machine: TGAT(machine, dataset, config)
        )
        with pytest.raises(ValueError):
            ClusterServer(
                cluster, replicas, list(reversed(nodes)),
                make_policy("fifo"), make_router("round-robin", len(replicas)),
            )


class TestColdStart:
    def test_flash_crowd_scale_up_charges_weight_transfer(self):
        dataset = make_dataset()
        cluster, report = serve_cluster(
            dataset, "2n-2xA100-eth", rate=500.0, router="least-latency",
            arrival="flash-crowd", flash_at_ms=80.0, flash_duration_ms=120.0,
            flash_multiplier=6.0,
            autoscale=AutoscaleConfig(
                min_replicas=1, max_replicas=4, slo_ms=50.0,
                up_cooldown_ms=10.0, down_cooldown_ms=40.0,
            ),
        )
        stats = report.autoscale
        assert stats["scale_ups"] >= 1
        assert stats["cold_start_ms"] > 0
        weights = [
            e for e in all_events(cluster)
            if e.kind == "transfer" and e.name == "weight_transfer"
        ]
        assert weights
        # Every up event's ready time trails its initiation by the charge.
        for event in stats["events"]:
            if event["action"] == "up":
                assert event["ready_ms"] > event["t_ms"]
                assert event["cold_start_ms"] == pytest.approx(
                    event["ready_ms"] - event["t_ms"], abs=1e-3
                )
        # GPU-time integral sits between the floor and the full static fleet.
        assert stats["gpu_time_ms"] > report.duration_ms  # more than 1 replica
        assert stats["gpu_time_ms"] < 4 * report.duration_ms

    def test_remote_cold_start_costs_more_than_local(self):
        """Spinning up across the NIC pays the NIC hop a local spin-up skips."""
        dataset = make_dataset()
        config = TGATConfig(num_neighbors=10, batch_size=32, seed=0)
        cluster = Cluster("2n-2xA100-eth")
        replicas, nodes = build_cluster_replicas(
            cluster, lambda machine: TGAT(machine, dataset, config)
        )
        server = ClusterServer(
            cluster, replicas, nodes, make_policy("fifo"),
            make_router("round-robin", len(replicas)),
        )
        local = server._spin_up(1, 0.0)  # node 0, GPU 1
        remote = server._spin_up(2, 0.0)  # node 1, GPU 0
        assert remote > local > 0
