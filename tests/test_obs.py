"""Observability layer: tracer identity, trace export, attribution, merges."""

import gc
import hashlib
import json

import pytest

from repro.cache import merge_cache_stats
from repro.cli import main
from repro.datasets import load
from repro.fuzz.program import signature
from repro.hw import Cluster, Machine
from repro.models.tgat import TGAT, TGATConfig
from repro.obs import (
    EPS_MS,
    MetricsRegistry,
    Tracer,
    attribute_request,
    build_trace,
    pick_request,
    top_spans,
    validate_trace,
)
from repro.obs.critical_path import BREAKDOWN_SEGMENTS
from repro.serve import (
    ClusterServer,
    InferenceServer,
    PoissonProcess,
    build_cluster_replicas,
    build_server,
    generate_requests,
    make_policy,
    make_requests,
    make_router,
)

#: sha256 over ``repr(attribute_request(...))`` of every completed request of
#: the shared ``small_export``, in request order.
SMALL_EXPORT_ATTRIBUTION_SHA256 = "bb702608480385fa6c5405d597f96afb6d90ff703c4fe72a8daad97a76806633"


@pytest.fixture(scope="module")
def tiny_wikipedia():
    return load("wikipedia", scale="tiny")


def _serve_single(dataset, tracer=None, metrics=None, overlap=True):
    machine = Machine.cpu_gpu()
    config = TGATConfig(num_neighbors=5, batch_size=8)
    with machine.activate():
        model = TGAT(machine, dataset, config)
    if tracer is not None:
        tracer.attach(machine)
    requests = generate_requests(
        dataset.stream, PoissonProcess(600.0, seed=3),
        duration_ms=150.0, events_per_request=1, slo_ms=50.0,
    )
    policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    server = InferenceServer(
        model, policy, overlap=overlap, tracer=tracer, metrics=metrics
    )
    report = server.serve(requests, arrival_name="poisson")
    return machine, report


def _serve_cluster(dataset, tracer=None, metrics=None, cluster_name="2n-1xA100-eth"):
    cluster = Cluster(cluster_name)
    config = TGATConfig(num_neighbors=5, batch_size=8)
    replicas, nodes = build_cluster_replicas(
        cluster, lambda machine: TGAT(machine, dataset, config)
    )
    requests = generate_requests(
        dataset.stream, PoissonProcess(500.0, seed=0),
        duration_ms=250.0, events_per_request=2, slo_ms=50.0,
    )
    policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    server = ClusterServer(
        cluster, replicas, nodes, policy,
        make_router("round-robin", len(replicas)),
        tracer=tracer, metrics=metrics,
    )
    report = server.serve(requests, arrival_name="poisson")
    return cluster, report


class TestTracerIdentity:
    """Attaching the tracer must never perturb the simulation."""

    def test_single_machine_serving_is_event_identical(self, tiny_wikipedia):
        bare_machine, bare = _serve_single(tiny_wikipedia)
        traced_machine, traced = _serve_single(
            tiny_wikipedia, tracer=Tracer(), metrics=MetricsRegistry()
        )
        assert signature(bare_machine) == signature(traced_machine)
        assert bare_machine.host_time_ms == traced_machine.host_time_ms
        assert [r.completed_ms for r in bare.requests] == [
            r.completed_ms for r in traced.requests
        ]
        assert bare.total_latency().p99_ms == traced.total_latency().p99_ms

    def test_cluster_serving_is_event_identical(self, tiny_wikipedia):
        bare_cluster, bare = _serve_cluster(tiny_wikipedia)
        traced_cluster, traced = _serve_cluster(
            tiny_wikipedia, tracer=Tracer(), metrics=MetricsRegistry()
        )
        for bare_node, traced_node in zip(bare_cluster.nodes, traced_cluster.nodes):
            assert signature(bare_node) == signature(traced_node)
        assert bare_cluster.time_ms == traced_cluster.time_ms
        assert [r.completed_ms for r in bare.requests] == [
            r.completed_ms for r in traced.requests
        ]

    def test_attach_requires_event_recording(self):
        machine = Machine.cpu_gpu(record_events=False)
        with pytest.raises(ValueError, match="record_events"):
            Tracer().attach(machine)


class TestSpans:
    def test_spans_reconstruct_the_latency_split(self, tiny_wikipedia):
        tracer = Tracer()
        _, report = _serve_single(tiny_wikipedia, tracer=tracer)
        assert report.completed > 0
        for request in report.requests:
            spans = [s for s in tracer.spans if request.request_id in s.trace_ids]
            queue = [s for s in spans if s.category == "queue"]
            service = [s for s in spans if s.category == "service"]
            assert len(queue) == 1 and len(service) == 1
            assert queue[0].duration_ms == pytest.approx(request.queue_ms, abs=EPS_MS)
            assert service[0].duration_ms == pytest.approx(
                request.service_ms, abs=EPS_MS
            )

    def test_every_span_closes_and_children_nest(self, tiny_wikipedia):
        tracer = Tracer()
        _, _ = _serve_single(tiny_wikipedia, tracer=tracer)
        assert tracer.spans
        for span in tracer.spans:
            assert span.end_ms is not None
            assert span.end_ms >= span.start_ms - EPS_MS
            if span.parent_id is not None:
                parent = tracer.spans[span.parent_id]
                assert parent.start_ms - EPS_MS <= span.start_ms
                assert span.end_ms <= parent.end_ms + EPS_MS

    def test_cluster_trace_emits_nic_spans_with_request_context(self, tiny_wikipedia):
        tracer = Tracer()
        _, report = _serve_cluster(tiny_wikipedia, tracer=tracer)
        nic = [s for s in tracer.spans if s.category == "nic"]
        assert nic, "cross-node dispatch should record NIC hop spans"
        assert any(s.trace_ids for s in nic)
        for span in nic:
            assert span.name.startswith("nic:")
            assert span.attrs["bytes"] > 0


class TestExport:
    def test_exported_trace_validates_and_flows_cross_nodes(self, tiny_wikipedia):
        tracer = Tracer()
        metrics = MetricsRegistry()
        _, report = _serve_cluster(tiny_wikipedia, tracer=tracer, metrics=metrics)
        payload = build_trace(tracer, report=report, label="test-cluster")
        validate_trace(payload)
        assert payload["repro"]["label"] == "test-cluster"
        assert len(payload["repro"]["nodes"]) == 2
        flows = [e for e in payload["traceEvents"] if e.get("ph") in ("s", "f")]
        assert flows
        assert {e["pid"] for e in flows} == {1, 2}, "flows must cross node tracks"
        # The payload must survive a JSON round trip unchanged.
        assert json.loads(json.dumps(payload)) == payload

    def test_profile_style_trace_without_a_report_validates(self, tiny_wikipedia):
        """``profile --trace`` exports a tracer with no serving report."""
        tracer = Tracer()
        _serve_single(tiny_wikipedia, tracer=tracer)
        payload = build_trace(tracer, label="tgat-profile")
        validate_trace(payload)
        assert payload["repro"]["requests"] == []
        assert payload["repro"]["metrics"] is None
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_autoscaled_trace_with_instant_attrs_validates(self, tiny_wikipedia):
        config = TGATConfig(num_neighbors=5, batch_size=8)
        tracer = Tracer()
        server = build_server(
            "2n-2xA100-eth", lambda machine: TGAT(machine, tiny_wikipedia, config),
            backend="shape", batch_timeout_ms=4.0, slo_ms=50.0, router="least-latency",
            autoscale={"min_replicas": 1, "max_replicas": 4,
                       "up_cooldown_ms": 10.0, "down_cooldown_ms": 40.0},
            tracer=tracer, metrics=MetricsRegistry(),
        )
        requests = make_requests(
            tiny_wikipedia.stream, "flash-crowd", 400.0, 250.0, seed=0, slo_ms=50.0,
            flash_at_ms=75.0, flash_duration_ms=100.0, flash_multiplier=6.0,
        )
        report = server.serve(requests, arrival_name="flash-crowd")
        payload = build_trace(tracer, report=report)
        validate_trace(payload)
        scale_ups = [i for i in payload["repro"]["instants"] if i["name"].startswith("scale:up")]
        assert scale_ups and all("node_index" in i["attrs"] for i in scale_ups)
        assert any(e["ph"] == "i" and e["args"] for e in payload["traceEvents"])

    def test_a_tracer_attached_to_the_front_end_still_traces_the_cluster(self, tiny_wikipedia):
        """Pre-attaching the front-end node must not leave the other nodes unnamed."""
        config = TGATConfig(num_neighbors=5, batch_size=8)

        def traced(pre_attach):
            tracer = Tracer()
            server = build_server(
                "2n-1xA100-eth", lambda machine: TGAT(machine, tiny_wikipedia, config),
                backend="shape", batch_timeout_ms=4.0, slo_ms=50.0, tracer=tracer,
            )
            if pre_attach:
                tracer.attach(server.machine)
            requests = make_requests(
                tiny_wikipedia.stream, "poisson", 500.0, 250.0, seed=0, slo_ms=50.0
            )
            report = server.serve(requests, arrival_name="poisson")
            return build_trace(tracer, report=report)

        payload = traced(pre_attach=True)
        assert payload == traced(pre_attach=False)
        assert {span["node"] for span in payload["repro"]["spans"]} == {"node0", "node1"}

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
    def test_build_trace_leaves_the_collector_as_it_found_it(self, enabled):
        """The build pauses the cyclic collector and restores the caller's
        setting afterwards -- also when it raises."""
        paused = []

        class UnreadableReport:
            @property
            def label(self):
                paused.append(not gc.isenabled())
                raise RuntimeError("unreadable report")

        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            build_trace(Tracer())
            assert gc.isenabled() is enabled
            with pytest.raises(RuntimeError, match="unreadable report"):
                build_trace(Tracer(), report=UnreadableReport())
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()
        assert paused == [True]

    def test_validate_trace_rejects_unbalanced_spans(self, tiny_wikipedia):
        tracer = Tracer()
        _, report = _serve_single(tiny_wikipedia, tracer=tracer)
        payload = build_trace(tracer, report=report)
        begins = [e for e in payload["traceEvents"] if e.get("ph") == "b"]
        assert begins
        payload["traceEvents"].remove(begins[0])
        with pytest.raises(ValueError):
            validate_trace(payload)


class TestAttribution:
    @pytest.fixture(scope="class")
    def cluster_payload(self, tiny_wikipedia):
        tracer = Tracer()
        _, report = _serve_cluster(tiny_wikipedia, tracer=tracer)
        return build_trace(tracer, report=report, label="attr")

    @pytest.mark.parametrize("selector", ["p50", "p95", "p99", "max"])
    def test_segments_sum_to_total(self, cluster_payload, selector):
        request = pick_request(cluster_payload, selector)
        breakdown = attribute_request(cluster_payload, request)
        covered = sum(breakdown[segment] for segment in BREAKDOWN_SEGMENTS)
        assert covered == pytest.approx(breakdown["total"], abs=1e-6)
        assert breakdown["queue"] == pytest.approx(request["queue_ms"], abs=1e-6)
        assert all(value >= -1e-9 for value in breakdown.values())

    def test_attribution_of_every_request_is_pinned(self, small_export):
        """sha256 over ``repr`` of every completed request's breakdown in the
        shared cluster export: the order in which the sweep filters events
        (phase, category, window, node) must not move one float."""
        requests = small_export["repro"]["requests"]
        digest = hashlib.sha256()
        for request in requests:
            digest.update(repr(attribute_request(small_export, request)).encode())
        assert len(requests) == 10
        assert digest.hexdigest() == SMALL_EXPORT_ATTRIBUTION_SHA256

    def test_pick_request_by_id_and_errors(self, cluster_payload):
        first = cluster_payload["repro"]["requests"][0]
        assert pick_request(cluster_payload, str(first["id"])) == first
        with pytest.raises(ValueError):
            pick_request(cluster_payload, "999999")
        with pytest.raises(ValueError):
            pick_request(cluster_payload, "fastest")

    def test_top_spans_are_sorted_and_closed(self, cluster_payload):
        spans = top_spans(cluster_payload, k=5)
        assert len(spans) == 5
        durations = [s["duration_ms"] for s in spans]
        assert durations == sorted(durations, reverse=True)


class TestMetrics:
    def test_registry_records_dispatch_and_completion(self, tiny_wikipedia):
        metrics = MetricsRegistry()
        _, report = _serve_single(tiny_wikipedia, metrics=metrics)
        snap = metrics.snapshot(at_ms=123.0)
        assert snap["at_ms"] == 123.0
        m = snap["metrics"]
        assert m["serve.requests"]["value"] == report.completed
        assert m["serve.batches"]["value"] > 0
        assert m["serve.latency_total_ms"]["count"] == report.completed
        assert sum(m["serve.batch_size"]["buckets"]) == m["serve.batches"]["value"]
        assert m["serve.queue_depth"]["peak"] >= m["serve.queue_depth"]["value"]

    def test_report_carries_the_snapshot(self, tiny_wikipedia):
        metrics = MetricsRegistry()
        _, report = _serve_single(tiny_wikipedia, metrics=metrics)
        assert report.metrics is not None
        assert "serve.requests" in report.metrics["metrics"]
        assert "metrics" in report.summary()


class TestMergeHelpers:
    def test_merge_cache_stats_heterogeneous_fleet(self):
        a = {
            "policy": "lru", "capacity_mb": 4.0, "staleness_ms": 1.0,
            "kinds": ["embedding"], "lookups": 10, "hits": 5, "misses": 5,
            "bytes_peak": 100,
        }
        b = {
            "policy": "lru", "capacity_mb": 8.0, "staleness_ms": 1.0,
            "kinds": ["sample", "embedding"], "lookups": 10, "hits": 10,
            "misses": 0, "bytes_peak": 300,
        }
        merged = merge_cache_stats([a, None, b])
        assert merged["capacity_mb"] == 12.0
        assert merged["kinds"] == ["embedding", "sample"]
        assert merged["caches"] == 2
        assert merged["lookups"] == 20
        assert merged["hit_rate"] == pytest.approx(15 / 20)
        assert merged["bytes_peak"] == 300
        assert merged["bytes_peak_sum"] == 400
        assert merge_cache_stats([None, {}]) is None


class TestCli:
    def test_serve_trace_and_attribution_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main([
            "serve", "tgat", "--scale", "tiny", "--topology", "2n-1xA100-eth",
            "--rate", "400", "--duration", "200", "--trace", str(out),
        ])
        assert code == 0
        assert out.exists()
        capsys.readouterr()
        assert main(["trace", str(out), "--request", "p99"]) == 0
        printed = capsys.readouterr().out
        assert "segment" in printed
        assert "top spans by duration:" in printed

    def test_trace_diff_of_a_file_against_itself(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main([
            "serve", "tgat", "--scale", "tiny", "--rate", "300",
            "--duration", "120", "--trace", str(out),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", str(out), "--diff", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "trace diff:" in printed
        assert "(+0.000)" in printed

    @pytest.fixture(scope="class")
    def good_and_bad(self, tmp_path_factory):
        """A real export, and a copy whose first request lost ``arrival_ms``."""
        tmp_path = tmp_path_factory.mktemp("traces")
        good = tmp_path / "good.json"
        assert main([
            "serve", "tgat", "--scale", "tiny", "--rate", "300",
            "--duration", "120", "--trace", str(good),
        ]) == 0
        payload = json.loads(good.read_text(encoding="utf-8"))
        del payload["repro"]["requests"][0]["arrival_ms"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        return str(good), str(bad)

    def test_malformed_trace_file_is_a_reported_outcome(self, good_and_bad, tmp_path, capsys):
        """A schema-invalid file exits 2 naming the first offending path --
        it used to reach the analysis and die with a ``KeyError`` traceback."""
        _, bad = good_and_bad
        hand_made = tmp_path / "hand-made.json"
        hand_made.write_text(
            '{"repro": {"requests": [{"id": 1, "total_ms": 3.0}]}, "traceEvents": 3}',
            encoding="utf-8",
        )
        for path, where in (
            (bad, "$.repro.requests[0]: missing required key 'arrival_ms'"),
            (str(hand_made), "$: missing required key 'displayTimeUnit'"),
        ):
            assert main(["trace", path, "--request", "p99"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cannot load trace {path!r}: {where}\n"

    def test_trace_diff_names_the_malformed_file(self, good_and_bad, capsys):
        good, bad = good_and_bad
        assert main(["trace", good, "--diff", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot load trace {bad!r}: $.repro.requests[0]")
