"""The `serving` experiment: sweep shape, acceptance property, seeding."""

import json

import pytest

from repro.experiments import run_experiment
from repro.experiments.serving import MODES, POLICIES, UTILIZATIONS
from repro.experiments.serving import run as run_serving


@pytest.fixture(scope="module")
def serving_result():
    return run_serving("tiny", 0, "shape")


@pytest.fixture(scope="module")
def seed_one_result():
    return run_serving("tiny", 1, "shape")


def test_sweep_covers_policies_by_rates_by_modes(serving_result):
    rows = serving_result.rows
    combos = {(r["policy"], r["utilization"], r["mode"]) for r in rows}
    assert len(rows) == len(combos) == len(POLICIES) * len(UTILIZATIONS) * len(MODES) == 8
    for row in rows:
        for column in (
            "p50_ms", "p95_ms", "p99_ms", "throughput_rps",
            "slo_violation_rate", "gpu_util",
        ):
            assert column in row, column
        assert row["requests"] > 0


def test_overlap_p99_strictly_below_blocking_at_every_rate(serving_result):
    """The acceptance criterion, per (policy, arrival-rate) pair."""
    rows = serving_result.rows
    pairs = 0
    for policy in POLICIES:
        for utilization in UTILIZATIONS:
            by_mode = {
                r["mode"]: r
                for r in rows
                if r["policy"] == policy and r["utilization"] == utilization
            }
            assert set(by_mode) == set(MODES)
            assert by_mode["overlap"]["p99_ms"] < by_mode["blocking"]["p99_ms"]
            pairs += 1
    assert pairs == 4


def test_serving_runs_are_byte_identical_for_the_same_seed(serving_result):
    again = run_serving("tiny", 0, "shape")
    assert json.dumps(again.rows, sort_keys=True) == json.dumps(serving_result.rows, sort_keys=True)


def test_different_seeds_draw_different_workloads(serving_result, seed_one_result):
    assert json.dumps(serving_result.rows) != json.dumps(seed_one_result.rows)


def test_run_experiment_threads_seed_and_drops_it_elsewhere(seed_one_result):
    # `serving` declares seed: the value must reach the workload generators.
    seeded = run_experiment("serving", scale="tiny", seed=1, backend="shape")
    assert json.dumps(seeded.rows) == json.dumps(seed_one_result.rows)
    # `table1` does not declare seed: the shared CLI kwarg is dropped, not fatal.
    table = run_experiment("table1", seed=5)
    assert table.rows


def test_run_experiment_refuses_a_removed_sweep_keyword():
    # A sweep axis is a module constant now; a caller still passing it must
    # hear so, not have it dropped the way the shared `seed` is.
    with pytest.raises(TypeError, match="utilizations"):
        run_experiment("scaling", utilizations=(1.5,))
