"""One serving assembly: ``repro.serve.build_server``.

Every server the CLI, the fuzzer and the serving experiments run is stood up
by one function, which is also the one statement of which combinations the
serving core can run.  These tests hold that line: nothing in ``src/repro``
outside ``serve/`` calls a server constructor or a replica/cache/policy
builder, every rule raises from ``build_server`` and exits 2 from the CLI
with the same message, the two combinations that used to be refused only
because a constructor lacked a pass-through now run, and backfill is charged
after warm-up on every placement (so the Sec. 4.4 weight upload is).
"""

import ast
import os

import pytest

import repro
from repro.cli import main
from repro.datasets import load
from repro.hw import Machine
from repro.models import build_model
from repro.models.tgat import TGAT, TGATConfig
from repro.serve import (
    ClusterServer,
    InferenceServer,
    ScaleOutServer,
    build_server,
    make_requests,
)

SRC = os.path.dirname(os.path.abspath(repro.__file__))

#: Calls that assemble a server; ``build_server`` makes them on everyone's behalf.
ASSEMBLY_CALLS = {
    "InferenceServer",
    "ScaleOutServer",
    "ClusterServer",
    "build_replicas",
    "build_cluster_replicas",
    "make_model_cache",
    "applicable_policy_overrides",
}

CACHE = {"policy": "lru", "capacity_mb": 8.0, "staleness_ms": 1e6}
CACHE_ARGV = ["--cache", "--cache-mb", "8", "--staleness-ms", "1e6"]
TGAT_ARGV = ["serve", "tgat", "--scale", "tiny", "--backend", "shape", "--param", "num_neighbors=5"]


@pytest.fixture(scope="module")
def dataset():
    return load("wikipedia", scale="tiny")


def tgat_factory(dataset):
    config = TGATConfig(num_neighbors=5)
    return lambda machine: TGAT(machine, dataset, config)


# -- one call site ----------------------------------------------------------------


def test_no_server_is_assembled_outside_the_serve_package():
    found = []
    for directory, _, filenames in os.walk(SRC):
        package = os.path.relpath(directory, SRC).split(os.sep)[0]
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name not in ASSEMBLY_CALLS or package == "serve":
                    continue
                if name == "make_model_cache" and package == "cache":
                    continue  # the cache package's own factory
                found.append(f"{os.path.relpath(path, SRC)}:{node.lineno} {name}(")
    assert found == []


# -- the rule table, checked through both doors -------------------------------------

#: (topology, build_server kwargs, the equivalent serve flags, a phrase of the message)
RULES = {
    "backfill-without-cache": (
        "1xA100", {"backfill": 4}, ["--backfill", "4"], "pass --cache",
    ),
    "autoscale-on-a-machine": (
        "4xA100-pcie", {"placement": "replicate", "autoscale": {"min_replicas": 1}},
        ["--placement", "replicate", "--autoscale"], "--autoscale needs a cluster topology",
    ),
    "shard-on-a-cluster": (
        "2n-1xA100-eth", {"placement": "shard"}, ["--placement", "shard"],
        "--placement shard is single-machine only",
    ),
    "shard-with-fidelity": (
        "2xA100-nvlink", {"placement": "shard", "policy": "slo", "fidelity": True},
        ["--placement", "shard", "--policy", "slo", "--fidelity"],
        "--fidelity is not offered with --placement shard",
    ),
    "overlap-with-replicate": (
        "2xA100-pcie", {"placement": "replicate", "overlap": True},
        ["--placement", "replicate", "--overlap"], "--overlap applies to single-model serving",
    ),
    "overlap-with-shard": (
        "2xA100-pcie", {"placement": "shard", "overlap": True},
        ["--placement", "shard", "--overlap"], "--overlap applies to single-model serving",
    ),
    "overlap-on-a-cluster": (
        "2n-1xA100-eth", {"overlap": True}, ["--overlap"],
        "--overlap applies to single-model serving",
    ),
    "replicate-without-a-gpu": (
        "cpu-only", {"placement": "replicate"}, ["--placement", "replicate"],
        "--placement replicate needs a GPU topology",
    ),
    "shard-without-a-gpu": (
        "cpu-only", {"placement": "shard"}, ["--placement", "shard"],
        "--placement shard needs a GPU topology",
    ),
    "gpus-with-single": (
        "4xA100-pcie", {"num_replicas": 4}, ["--gpus", "4"], "--gpus only applies",
    ),
    "too-many-gpus": (
        "2xA100-pcie", {"placement": "replicate", "num_replicas": 3},
        ["--placement", "replicate", "--gpus", "3"],
        "--gpus on '2xA100-pcie' must be an integer >= 1 and <= 2",
    ),
    "too-many-gpus-on-a-cluster": (
        "2n-2xA100-eth", {"num_replicas": 5}, ["--gpus", "5"],
        "--gpus on '2n-2xA100-eth' must be an integer >= 1 and <= 4",
    ),
    "fidelity-without-slo": (
        "1xA100", {"policy": "fifo", "fidelity": True}, ["--policy", "fifo", "--fidelity"],
        "adaptive fidelity requires the 'slo' policy",
    ),
}


@pytest.mark.parametrize("rule", sorted(RULES))
def test_rule_raises_from_build_server_and_exits_2_from_the_cli(rule, dataset, capsys):
    topology, kwargs, argv, phrase = RULES[rule]
    with pytest.raises((ValueError, TypeError)) as raised:
        build_server(topology, tgat_factory(dataset), backend="shape", **kwargs)
    message = str(raised.value)
    assert phrase in message
    assert main(TGAT_ARGV + ["--topology", topology] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_values_the_flag_types_refuse_are_refused_by_build_server_too(dataset):
    """``--gpus 0`` and ``--backfill -1`` never reach ``build_server`` from the
    CLI (their flag types refuse them); a programmatic caller gets the
    owner's domain error."""
    refusal = "--gpus on '2xA100-pcie' must be an integer >= 1 and <= 2, got 0"
    with pytest.raises(ValueError, match=refusal):
        build_server(
            "2xA100-pcie",
            tgat_factory(dataset),
            placement="shard",
            num_replicas=0,
            backend="shape",
        )
    with pytest.raises(ValueError, match="backfill_nodes must be an integer >= 0, got -1"):
        build_server("1xA100", tgat_factory(dataset), cache=CACHE, backfill=-1, backend="shape")


def test_an_explicit_batch_timeout_is_still_an_error_with_fifo(capsys):
    """``build_server`` hands each policy what it consumes (sweeps carry one
    pair across policies); a flag the user typed is checked verbatim."""
    assert main(TGAT_ARGV + ["--policy", "fifo", "--batch-timeout-ms", "20"]) == 2
    assert "does not take batch_timeout_ms" in capsys.readouterr().err


# -- what the pass-throughs made legal ------------------------------------------------


def test_fidelity_runs_on_machine_topology_replicas(dataset, capsys):
    server = build_server(
        "2xA100-pcie", tgat_factory(dataset), placement="replicate", backend="shape",
        policy="slo", batch_timeout_ms=2.0, slo_ms=20.0, fidelity=True, cache=CACHE,
    )
    assert isinstance(server, ScaleOutServer)
    requests = make_requests(dataset.stream, "poisson", 9000.0, 60.0, slo_ms=20.0)
    report = server.serve(requests, label="replicate-fidelity")
    assert report.completed == report.offered > 0
    assert report.fidelity["total_dispatches"] > 0
    assert report.fidelity["degraded_batches"] > 0  # overloaded on purpose
    code = main(
        TGAT_ARGV + ["--topology", "2xA100-pcie", "--placement", "replicate", "--policy", "slo",
                     "--fidelity", "--rate", "400", "--duration", "100"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "placement: replicate x2" in out
    assert "fidelity: debt" in out


def test_gpus_sizes_a_static_fleet_on_a_cluster(dataset, capsys):
    server = build_server(
        "2n-2xA100-eth", tgat_factory(dataset), num_replicas=3, backend="shape",
        batch_timeout_ms=4.0,
    )
    assert isinstance(server, ClusterServer)
    assert len(server.replicas) == 3
    assert server.replica_nodes == [0, 0, 1]  # topology order: node-major
    code = main(
        TGAT_ARGV + ["--topology", "2n-2xA100-eth", "--gpus", "2", "--rate", "400",
                     "--duration", "100"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "tgat-serve-cluster" in out
    assert "placement: replicate x2" in out


def test_autoscale_ceiling_defaults_to_the_fleet_and_slo_to_the_runs(dataset):
    server = build_server(
        "2n-2xA100-eth", tgat_factory(dataset), backend="shape", slo_ms=35.0,
        autoscale={"min_replicas": 2, "max_replicas": None},
    )
    config = server.autoscaler.config
    assert (config.min_replicas, config.max_replicas, config.slo_ms) == (2, 4, 35.0)


# -- backfill runs after warm-up, inside the core, on every placement -------------------


@pytest.mark.parametrize(
    "topology, placement, gpus",
    [
        ("1xA100", "single", None),
        ("2xA100-pcie", "replicate", None),
        ("4xA100-nvlink", "shard", 3),
    ],
)
def test_cli_backfill_on_a_machine_topology_charges_the_weight_upload(
    topology, placement, gpus, dataset, monkeypatch, capsys
):
    """Backfilling by hand before the core's warm-up created each GPU context
    implicitly with no model bytes, so warm-up's weight upload never ran."""
    param_bytes = build_model(
        "tgat", Machine.from_spec(topology), dataset=dataset, num_neighbors=5
    ).param_bytes()
    built = []
    from_spec = Machine.from_spec.__func__

    def recording(cls, *args, **kwargs):
        built.append(from_spec(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(Machine, "from_spec", classmethod(recording))
    argv = TGAT_ARGV + CACHE_ARGV + [
        "--topology", topology, "--placement", placement, "--backfill", "16",
        "--rate", "300", "--duration", "60",
    ]
    if gpus is not None:
        argv += ["--gpus", str(gpus)]
    assert main(argv) == 0
    assert "cache hits:" in capsys.readouterr().out
    (machine,) = built
    used = gpus or len(machine.gpus)
    events = list(machine.events)
    uploads = [event for event in events if event.name == "weight_upload"]
    assert [event.bytes for event in uploads] == [param_bytes] * used
    assert len({event.dst for event in uploads}) == used  # one per GPU used
    # ... and every replica's (every shard's) backfill ran, after its upload.
    backfills = [i for i, event in enumerate(events) if "Cache Backfill" in event.region]
    assert backfills and min(backfills) > events.index(uploads[0])
    assert {events[i].resource for i in backfills} >= {gpu.name for gpu in machine.gpus[:used]}


def test_single_placements_return_the_inference_server(dataset):
    for placement, topology in (("single", "cpu-only"), ("shard", "2xA100-nvlink")):
        server = build_server(topology, tgat_factory(dataset), placement=placement)
        assert isinstance(server, InferenceServer)
        assert server.cluster is None
