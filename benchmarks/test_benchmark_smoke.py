"""Smoke test of the benchmark itself (every workload at 1/50 size, < 10 s)."""

from __future__ import annotations

import pytest

from benchmarks import run, spans
from benchmarks.workloads import WORKLOADS

SMOKE_SCALE = 0.02


@pytest.fixture(scope="module")
def traced_reps():
    """One traced repetition per workload, wrappers removed afterwards."""
    originals = _boundary_callables()
    recorder = spans.Recorder().install()
    try:
        reps = {
            name: run.run_rep(workload, seed=3, scale=SMOKE_SCALE, recorder=recorder)
            for name, workload in WORKLOADS.items()
        }
    finally:
        recorder.uninstall()
    return originals, reps


def _boundary_callables():
    import importlib

    found = {}
    for _, path, methods, _ in spans.CLASS_TARGETS:
        module_name, class_name = path.split(":")
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            if method in cls.__dict__:
                found[(path, method)] = cls.__dict__[method]
    for _, module_name, names, _ in spans.FUNCTION_TARGETS:
        module = importlib.import_module(module_name)
        for name in names or ("matmul", "softmax"):
            found[(module_name, name)] = getattr(module, name)
    return found


def test_declared_names_match_benchmark_json():
    assert run.declaration_problems() == []
    assert len(run.PER_LAYER) == len({name for name, *_ in run.PER_LAYER})


def test_wrappers_restore_the_original_callables(traced_reps):
    originals, _ = traced_reps
    assert _boundary_callables() == originals
    from repro import serve
    from repro.serve import workload

    assert serve.generate_requests is workload.generate_requests


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_metric(traced_reps, name):
    _, reps = traced_reps
    rep = reps[name]
    outcome = rep.outcome
    assert outcome.problems == []
    assert outcome.ops_attempted >= 1 and outcome.ops_failed == 0
    assert outcome.events > 0 and outcome.sim_ms > 0
    assert rep.setup_s > 0 and rep.wall_s > 0 and rep.cpu_s >= 0
    assert (outcome.sim_p99_ms is not None) == name.startswith("serve_")
    values = run.layer_metrics(rep)
    assert set(values) == {metric for metric, *_ in run.PER_LAYER}
    table = rep.trace.layer_table()
    assert sum(row["self_s"] for row in table[:-1]) <= rep.wall_s
    assert table[-1]["self_s"] >= 0.0
    assert values["hw.calls"] > 0


def test_untraced_repetition_reports_the_same_simulation(traced_reps):
    _, reps = traced_reps
    for name in ("serve_single", "cache_write_churn"):
        plain = run.run_rep(WORKLOADS[name], seed=3, scale=SMOKE_SCALE)
        assert plain.trace is None
        assert run.fingerprint(plain.outcome) == run.fingerprint(reps[name].outcome)


def test_cache_layer_is_silent_where_it_is_bypassed(traced_reps):
    _, reps = traced_reps
    for name in ("serve_single", "sched_raw"):
        assert reps[name].trace.total("cache", column=0) == 0
    assert reps["serve_cluster_cached"].trace.total("cache", column=0) > 0
    assert reps["serve_single"].trace.total("obs", column=0) == 0
    assert reps["serve_single_traced"].trace.total("obs", column=0) > 0


def test_traced_and_untraced_serving_agree_on_the_tail(traced_reps):
    _, reps = traced_reps
    assert reps["serve_single_traced"].outcome.sim_p99_ms == reps["serve_single"].outcome.sim_p99_ms
