"""Test bootstrap: make ``src/`` importable without an installed package,
and the real trace export that the schema and attribution tests share."""

import json
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def _cluster_export(duration_ms):
    """A real cached 2-node cluster export, as ``json.load`` would return it.

    It carries everything the schema describes: all seven ``ph`` values the
    exporter emits, spans with parents/attrs/trace ids, invalidation instants
    with attrs, nullable request fields and a metrics snapshot.
    """
    from repro.datasets import load
    from repro.models.tgat import TGAT, TGATConfig
    from repro.obs import MetricsRegistry, Tracer, build_trace
    from repro.serve import build_server, make_requests

    dataset = load("wikipedia", scale="tiny")
    config = TGATConfig(num_neighbors=5, batch_size=8)
    tracer = Tracer()
    server = build_server(
        "2n-1xA100-eth",
        lambda machine: TGAT(machine, dataset, config),
        backend="shape",
        batch_timeout_ms=4.0,
        slo_ms=50.0,
        cache={"staleness_ms": 1e6},
        tracer=tracer,
        metrics=MetricsRegistry(),
    )
    requests = make_requests(dataset.stream, "poisson", 600.0, duration_ms, seed=3, slo_ms=50.0)
    report = server.serve(requests, arrival_name="poisson")
    return json.loads(json.dumps(build_trace(tracer, report=report, label="schema-test")))


@pytest.fixture(scope="session")
def cluster_export():
    """``cluster_export(duration_ms)`` builds a fresh export."""
    return _cluster_export


@pytest.fixture(scope="session")
def small_export():
    """The 15 ms export; read-only -- a test that edits it copies it first."""
    payload = _cluster_export(15.0)
    assert {e["ph"] for e in payload["traceEvents"]} == {"M", "X", "b", "e", "s", "f", "i"}
    block = payload["repro"]
    assert block["requests"] and block["spans"] and block["instants"] and block["metrics"]
    return payload
