"""Seed-equivalence golden tests for the paper artefacts.

Each golden file under ``tests/golden/`` is the canonical JSON serialization
of one experiment's rows+notes on its default config at ``tiny`` scale.  The
tests assert the *serialized bytes* match, so any refactor that drifts a
figure/table number -- a reordered kernel, a changed cost constant, a float
that moved by one ulp -- fails loudly instead of silently rewriting the
paper's numbers.  ``bottlenecks.json`` pins the analysis layer the same way:
the four detectors, the CPU-busy/GPU-idle fraction and the utilization
reports for every model on both machines, floats unrounded.
``serving.json`` pins the online tiers: eight TGAT serving configurations
across the three server classes, each run bare and with a tracer + metrics
registry attached -- reports, per-request stamps, sha256 digests of every
node's event log and of the exported trace payload.
``fuzz_programs.json`` pins the fuzz generator: the drawn config and a
sha256 of the drawn op list for 100 cases of three campaign seeds plus one
fault-planting campaign, so a change to the op table that moves any drawn
program (and so silently retargets every checked-in seed) fails here.

Regenerate (only when a change is *supposed* to move the numbers, and say so
in the commit message)::

    PYTHONPATH=src python tests/test_golden_regression.py --regenerate
"""

import hashlib
import json
import os

import pytest

from repro.cache import make_model_cache
from repro.core import analyze_profile, cpu_busy_gpu_idle_fraction, utilization_report
from repro.datasets import load
from repro.experiments import run_experiment, table1, table2
from repro.experiments.runner import profile_cell
from repro.fuzz import draw_case
from repro.graph.partition import make_partition
from repro.hw import Cluster, Machine
from repro.models import MODEL_NAMES
from repro.models.tgat import TGAT, TGATConfig
from repro.obs import MetricsRegistry, Tracer, build_trace
from repro.serve import (
    AutoscaleConfig,
    Autoscaler,
    ClusterServer,
    FidelityController,
    InferenceServer,
    ScaleOutServer,
    ShardedModel,
    build_cluster_replicas,
    build_replicas,
    generate_requests,
    make_arrival_process,
    make_policy,
    make_router,
)

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: Experiments pinned by golden files, with the config the goldens captured.
GOLDEN_EXPERIMENTS = {
    "table1": {},
    "table2": {"scale": "tiny"},
    "fig6": {"scale": "tiny"},
    "fig7": {"scale": "tiny"},
    "fig8": {"scale": "tiny"},
    "fig9": {"scale": "tiny"},
    # Pinned before PR 21 folded the offline experiments onto one cell.
    "ablations": {"scale": "tiny"},
    "warmup_onetime": {"scale": "tiny"},
    "overlap_exec": {"scale": "tiny"},
    # The serving sweeps (PR 17): shape backend, same rows as numeric.
    "serving": {"scale": "tiny", "backend": "shape"},
    "scaling": {"scale": "tiny", "backend": "shape"},
    "autoscaling": {"scale": "tiny", "backend": "shape"},
    "cache_ablation": {"scale": "tiny", "backend": "shape"},
    "adaptive_fidelity": {"scale": "tiny", "backend": "shape"},
}


def canonical_json(name, kwargs):
    """Deterministic byte-for-byte serialization of one experiment run."""
    result = run_experiment(name, **kwargs)
    payload = {
        "experiment": result.experiment,
        "config": dict(kwargs),
        "rows": result.rows,
        "notes": result.notes,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def bottlenecks_json():
    """The bottleneck detectors and utilization reports over the model zoo.

    Floats are serialized unrounded (``json`` writes ``repr``), so the file
    pins every detector input to the last bit, not just the rounded rows.
    """
    rows = []
    for name in MODEL_NAMES:
        for use_gpu in (False, True):
            _, (profile,) = profile_cell(name, None, use_gpu=use_gpu, scale="tiny")
            report = analyze_profile(profile)
            utilization = {}
            for kind in ("cpu", "gpu"):
                util = utilization_report(profile, device_kind=kind)
                utilization[kind] = {
                    "device": util.device,
                    "average": util.average,
                    "peak": util.peak,
                    "busy_ms": util.busy_ms,
                    "idle_ms": util.idle_ms,
                    "longest_idle_gap_ms": util.longest_idle_gap_ms,
                    "series": [[p.time_ms, p.utilization] for p in util.series],
                }
            row = {
                "model": name,
                "machine": "cpu_gpu" if use_gpu else "cpu_only",
                "findings": report.as_rows(),
                "exact": [
                    {"bottleneck": f.name, "severity": f.severity, "evidence": f.evidence}
                    for f in report.findings
                ],
                "cpu_busy_gpu_idle_fraction": cpu_busy_gpu_idle_fraction(profile),
                "utilization": utilization,
            }
            rows.append(row)
    payload = {"golden": "bottlenecks", "config": {"scale": "tiny"}, "rows": rows}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- serving tiers --------------------------------------------------------------

SERVING_SEED = 7
_TIMEOUT = {"batch_timeout_ms": 4.0}
_SLO = {"batch_timeout_ms": 2.0, "slo_ms": 20.0}


def _serving_requests(dataset, rate, duration_ms, arrival="poisson", slo_ms=50.0, **kwargs):
    arrivals = make_arrival_process(arrival, rate, seed=SERVING_SEED, **kwargs)
    return generate_requests(
        dataset.stream, arrivals, duration_ms=duration_ms, events_per_request=2, slo_ms=slo_ms
    )


def _attach_caches(models):
    for model in models:
        with model.machine.activate():
            make_model_cache(model, policy="lru", capacity_mb=8.0, staleness_ms=1e6)


def _single_case(overlap=False, cached=False, fidelity=False, shard=False):
    """``InferenceServer`` over one TGAT (or a 2-GPU ``ShardedModel``)."""

    def build(dataset, tracer, metrics):
        config = TGATConfig(num_neighbors=5, batch_size=16, seed=SERVING_SEED)
        machine = Machine.from_spec("2xA100-nvlink") if shard else Machine.cpu_gpu()
        with machine.activate():
            if shard:
                replicas = build_replicas(machine, lambda: TGAT(machine, dataset, config))
                partition = make_partition("degree", dataset.stream, 2, seed=SERVING_SEED)
                model = ShardedModel(replicas, partition)
            else:
                model = TGAT(machine, dataset, config)
        if cached:
            _attach_caches([model])
        if fidelity:
            # Overload, so the controller's level moves.
            policy = make_policy("slo", max_batch_size=8, **_SLO)
            requests = _serving_requests(dataset, 6000.0, 60.0, slo_ms=20.0)
        else:
            policy = make_policy("timeout", max_batch_size=8, **_TIMEOUT)
            requests = _serving_requests(dataset, 500.0, 150.0)
        server = InferenceServer(
            model,
            policy,
            overlap=overlap,
            fidelity=FidelityController() if fidelity else None,
            tracer=tracer,
            metrics=metrics,
        )
        return [machine], server.serve(requests, arrival_name="poisson")

    return build


def _scaleout_case(dataset, tracer, metrics):
    machine = Machine.from_spec("2xA100-pcie")
    config = TGATConfig(num_neighbors=5, batch_size=16, seed=SERVING_SEED)
    with machine.activate():
        replicas = build_replicas(machine, lambda: TGAT(machine, dataset, config))
    _attach_caches(replicas)
    server = ScaleOutServer(
        replicas,
        make_policy("timeout", max_batch_size=8, **_TIMEOUT),
        make_router("jsq", len(replicas)),
        tracer=tracer,
        metrics=metrics,
    )
    requests = _serving_requests(dataset, 900.0, 150.0)
    return [machine], server.serve(requests, arrival_name="poisson")


def _cluster_case(name, cached=False, fidelity=False, backfill=0, autoscale=False):
    def build(dataset, tracer, metrics):
        cluster = Cluster(name)
        config = TGATConfig(num_neighbors=5, batch_size=16, seed=SERVING_SEED)
        replicas, nodes = build_cluster_replicas(
            cluster, lambda machine: TGAT(machine, dataset, config)
        )
        if cached:
            _attach_caches(replicas)
        arrival = "poisson"
        if fidelity:
            policy = make_policy("slo", max_batch_size=8, **_SLO)
            requests = _serving_requests(dataset, 9000.0, 60.0, slo_ms=20.0)
        elif autoscale:
            arrival = "flash-crowd"
            policy = make_policy("timeout", max_batch_size=8, **_TIMEOUT)
            requests = _serving_requests(
                dataset,
                350.0,
                500.0,
                arrival=arrival,
                flash_at_ms=100.0,
                flash_duration_ms=120.0,
                flash_multiplier=6.0,
            )
        else:
            policy = make_policy("timeout", max_batch_size=8, **_TIMEOUT)
            requests = _serving_requests(dataset, 900.0, 150.0)
        autoscaler = None
        if autoscale:
            autoscaler = Autoscaler(
                AutoscaleConfig(
                    min_replicas=1,
                    max_replicas=len(replicas),
                    slo_ms=50.0,
                    up_cooldown_ms=20.0,
                    down_cooldown_ms=80.0,
                )
            )
        server = ClusterServer(
            cluster,
            replicas,
            nodes,
            policy,
            make_router("least-latency", len(replicas)),
            autoscaler=autoscaler,
            fidelity=FidelityController() if fidelity else None,
            backfill_nodes=backfill,
            tracer=tracer,
            metrics=metrics,
        )
        return list(cluster.nodes), server.serve(requests, arrival_name=arrival)

    return build


#: The eight pinned serving configurations (all TGAT on wikipedia/tiny).
SERVING_CASES = {
    "1-single-blocking": _single_case(),
    "2-single-overlap-cache": _single_case(overlap=True, cached=True),
    "3-single-slo-fidelity": _single_case(cached=True, fidelity=True),
    "4-sharded-through-single": _single_case(shard=True),
    "5-scaleout-jsq-caches": _scaleout_case,
    "6-cluster-1n-2xA100": _cluster_case("1n-2xA100"),
    "7-cluster-2n-cache-fidelity-backfill": _cluster_case(
        "2n-1xA100-eth", cached=True, fidelity=True, backfill=32
    ),
    "8-cluster-2n-autoscale-flash": _cluster_case(
        "2n-1xA100-eth", cached=True, backfill=32, autoscale=True
    ),
}


def _digest(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def _serving_record(machines, report):
    return {
        "summary": report.summary(),
        "exact": {
            "duration_ms": report.duration_ms,
            "gpu_utilization": report.gpu_utilization,
            "cpu_utilization": report.cpu_utilization,
            "per_device_utilization": report.per_device_utilization,
        },
        "requests": [
            [r.request_id, r.dispatched_ms, r.completed_ms, r.batch_size, r.replica]
            for r in report.requests
        ],
        "event_digests": [
            _digest(
                [
                    [e.kind, e.name, e.resource, e.start_ms, e.end_ms, e.bytes, e.stream]
                    for e in machine.events
                ]
            )
            for machine in machines
        ],
        "host_time_ms": [machine.host_time_ms for machine in machines],
    }


def serving_json():
    """Every serving configuration, bare and observed, floats unrounded.

    The trace digest covers span names, attributes, parents and order, the
    instants and the rendered event log; bare and traced runs must agree on
    everything the simulation produced (the tracer is read-only).
    """
    dataset = load("wikipedia", scale="tiny")
    cases = {}
    for name, build in SERVING_CASES.items():
        bare = _serving_record(*build(dataset, None, None))
        tracer = Tracer()
        machines, report = build(dataset, tracer, MetricsRegistry())
        traced = _serving_record(machines, report)
        for key in ("exact", "requests", "event_digests", "host_time_ms"):
            assert traced[key] == bare[key], f"{name}: attaching the tracer moved {key}"
        payload = build_trace(tracer, report=report)
        cases[name] = {
            "bare": bare,
            "traced_summary": traced["summary"],
            "trace": {
                "spans": len(tracer.spans),
                "instants": len(tracer.instants),
                "digest": _digest(payload),
            },
        }
    config = {"scale": "tiny", "seed": SERVING_SEED}
    payload = {"golden": "serving", "config": config, "cases": cases}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# -- fuzz programs --------------------------------------------------------------

#: (campaign seed, fault_rate) pairs whose cases 0-99 are pinned.
FUZZ_CAMPAIGNS = ((0, 0.0), (1, 0.0), (2, 0.0), (3, 0.2))


def fuzz_programs_json():
    """What ``draw_case`` draws: every config, and a digest of every op list."""
    campaigns = []
    for seed, fault_rate in FUZZ_CAMPAIGNS:
        cases = []
        for case in range(100):
            config, ops = draw_case(seed, case, fault_rate=fault_rate)
            cases.append({"config": config.as_dict(), "num_ops": len(ops), "ops": _digest(ops)})
        campaigns.append({"seed": seed, "fault_rate": fault_rate, "cases": cases})
    payload = {"golden": "fuzz_programs", "campaigns": campaigns}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def golden_path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def experiment_golden_path(name):
    # ``serving.json`` is the serving-tier golden above, not the experiment's.
    return golden_path("serving_experiment" if name == "serving" else name)


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPERIMENTS))
def test_experiment_matches_golden(name):
    path = experiment_golden_path(name)
    assert os.path.exists(path), (
        f"golden file {path} is missing; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_regression.py --regenerate`"
    )
    with open(path, "r", encoding="utf-8") as handle:
        expected = handle.read()
    actual = canonical_json(name, GOLDEN_EXPERIMENTS[name])
    assert actual == expected, (
        f"{name} output drifted from the golden file.  If the change is "
        "intentional, regenerate the goldens and justify the drift in the "
        "commit message."
    )
    if name == "table1":
        # The one place output is compared to the paper's published content.
        assert table1.matches_paper(table1.run()) == []
    if name == "table2":
        # ... and to its one tabulated trend (`table2.PAPER_TREND`).
        assert table2.breaks_paper_trend(json.loads(expected)["rows"]) == []


def test_bottlenecks_match_golden():
    with open(golden_path("bottlenecks"), "r", encoding="utf-8") as handle:
        expected = handle.read()
    assert bottlenecks_json() == expected, (
        "the bottleneck detectors or utilization reports drifted from the golden file"
    )


def test_serving_matches_golden():
    with open(golden_path("serving"), "r", encoding="utf-8") as handle:
        expected = handle.read()
    assert serving_json() == expected, (
        "a serving report, request stamp, event log or exported trace drifted "
        "from the golden file"
    )


def test_fuzz_programs_match_golden():
    with open(golden_path("fuzz_programs"), "r", encoding="utf-8") as handle:
        expected = handle.read()
    assert fuzz_programs_json() == expected, (
        "draw_case drew a different config or program: the op table's order, "
        "weights or RNG consumption moved, which retargets every fuzz seed"
    )


def regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    contents = {
        experiment_golden_path(name): canonical_json(name, kwargs)
        for name, kwargs in GOLDEN_EXPERIMENTS.items()
    }
    contents[golden_path("bottlenecks")] = bottlenecks_json()
    contents[golden_path("serving")] = serving_json()
    contents[golden_path("fuzz_programs")] = fuzz_programs_json()
    for path, text in sorted(contents.items()):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
