"""One serving core: the three server classes share every loop and hook body."""

import ast
import os

import pytest

import repro.serve
from repro.datasets import load
from repro.models.tgat import TGAT, TGATConfig
from repro.serve import ClusterServer, InferenceServer, ScaleOutServer, build_server
from repro.serve.core import ServingCore

SERVE_DIR = os.path.dirname(repro.serve.__file__)

#: The loop plus one hook per cross-cutting concern.
SHARED = (
    "_loop",
    "_dispatch",
    "_trace_dispatch",
    "_degrade",
    "_broadcast_invalidation",
    "_retire",
    "_complete",
)


@pytest.mark.parametrize("name", SHARED)
def test_servers_resolve_to_the_same_function_objects(name):
    body = getattr(ServingCore, name)
    for cls in (InferenceServer, ScaleOutServer, ClusterServer):
        assert getattr(cls, name) is body


def _definitions():
    """``{function name: [files defining it]}`` over ``src/repro/serve/``."""
    found = {}
    for filename in sorted(os.listdir(SERVE_DIR)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(SERVE_DIR, filename), "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                found.setdefault(node.name, []).append(filename)
    return found


def test_each_loop_and_hook_name_is_defined_once_under_serve():
    definitions = _definitions()
    for name in SHARED + ("sampling_stream", "_spin_up", "_spin_down"):
        assert definitions.get(name) == ["core.py"], name


def test_thin_classes_define_only_a_constructor_and_a_delegating_serve():
    # benchmarks/spans.py wraps ``serve`` only where the class itself defines it.
    for cls in (InferenceServer, ScaleOutServer, ClusterServer):
        methods = {name for name, value in vars(cls).items() if callable(value)}
        assert methods == {"__init__", "serve"}


def test_an_empty_run_reports_the_shape_it_was_built_with():
    """No request served still names the placement, fleet size and cluster."""
    dataset = load("wikipedia", scale="tiny")

    def factory(machine):
        return TGAT(machine, dataset, TGATConfig(num_neighbors=5))

    cluster = {"spec": "2n-1xA100-eth", "num_nodes": 2, "nic": "eth-25g", "nic_bytes": 0}
    for topology, placement, shape in (
        ("2xA100-nvlink", "shard", ("shard", 2, None)),
        ("2xA100-nvlink", "replicate", ("replicate", 2, None)),
        ("2n-1xA100-eth", "single", ("replicate", 2, cluster)),
    ):
        server = build_server(topology, factory, placement=placement, backend="shape")
        report = server.serve([], label="empty")
        assert (report.placement, report.num_replicas, report.cluster) == shape, topology
        assert report.offered == report.completed == 0
