"""The fuzz harness's own test suite: bounded campaigns, planted faults,
shrinker behaviour, reproducer round-trips, and the regression corpus.

The bounded campaign here IS the CI fuzz entry point: fixed seeds, every
invariant on, small enough to stay within the tier-1 budget.  Real findings
get fixed and their shrunken reproducers checked into ``tests/fuzz_corpus/``,
which the corpus test replays on every run.
"""

import glob
import json
import os
import subprocess
import sys

import pytest

from repro.fuzz import (
    FuzzConfig,
    INVARIANTS,
    check_case,
    draw_case,
    fuzz,
    load_reproducer,
    replay,
    reproducer_dict,
    resolve_checks,
    save_reproducer,
    shrink,
)
from repro.fuzz.program import Execution, InvariantViolation
from repro.hw.machine import Machine
from repro.hw.spec import machine_spec
from repro.hw.tape import Tape

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "fuzz_corpus")


# -- bounded campaigns (the CI fuzz gate) ------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bounded_campaign_holds_every_invariant(seed):
    report = fuzz(seed=seed, budget=12)
    assert report.ok, report.summary()
    assert report.cases_run == 12
    assert report.ops_executed > 0
    assert set(report.checks) == set(INVARIANTS)


def test_campaign_cases_are_deterministic():
    config_a, ops_a = draw_case(7, 3)
    config_b, ops_b = draw_case(7, 3)
    assert config_a.as_dict() == config_b.as_dict()
    assert ops_a == ops_b
    # Cases are independently seeded: a different case index, different draw.
    _, ops_c = draw_case(7, 4)
    assert ops_c != ops_a


def test_seed_zero_serving_episodes_replay_tapes(monkeypatch):
    """``backend-equivalence`` polices replay == direct only if episodes replay.

    The invariant runs every case on both backends, so the shape side of each
    serving episode of the ``--seed 0 --budget 100`` campaign is run here
    with a spy on ``Machine.replay``.
    """
    replayed = []
    original = Machine.replay

    def spy(machine, tape):
        replayed.append(len(tape.entries))
        original(machine, tape)

    monkeypatch.setattr(Machine, "replay", spy)
    episodes = replaying = 0
    for case in range(100):
        config, ops = draw_case(0, case)
        if config.serving is None:
            continue
        config.backend = "shape"
        before = len(replayed)
        Execution(config, checks=set()).run(ops)
        episodes += 1
        replaying += len(replayed) > before
    assert episodes >= 20
    assert replaying >= episodes // 2, (replaying, episodes)
    assert all(entries > 0 for entries in replayed)


def test_seed_zero_spread_episodes_replay_tapes_a_sibling_recorded(monkeypatch):
    """Renamed tapes stay under ``backend-equivalence`` only if some episode
    replays one: a replicate or shard episode of the ``--seed 0 --budget 100``
    campaign must replay a tape another replica recorded.

    A sibling's tape reaches a replica as a copy ``Tape.renamed`` made, or --
    across a cluster's nodes, whose device names repeat -- as the tape itself
    replaying on another machine than its recorder's.
    """
    recorded_on, copies, sibling_replays = {}, {}, []
    record, replay, renamed = Machine.record, Machine.replay, Tape.renamed

    def record_spy(machine, block):
        result, tape = record(machine, block)
        if tape is not None:
            recorded_on[id(tape)] = (tape, machine)
        return result, tape

    def renamed_spy(tape, names):
        copy = renamed(tape, names)
        copies[id(copy)] = copy
        return copy

    def replay_spy(machine, tape):
        _, recorder = recorded_on.get(id(tape), (tape, machine))
        if id(tape) in copies or recorder is not machine:
            sibling_replays.append(tape)
        replay(machine, tape)

    monkeypatch.setattr(Machine, "record", record_spy)
    monkeypatch.setattr(Machine, "replay", replay_spy)
    monkeypatch.setattr(Tape, "renamed", renamed_spy)
    episodes = sharing = 0
    for case in range(100):
        config, ops = draw_case(0, case)
        serving = config.serving
        if serving is None or serving["placement"] == "single":
            continue
        if machine_spec(config.topology).num_gpus < 2:
            continue
        config.backend = "shape"
        before = len(sibling_replays)
        Execution(config, checks=set()).run(ops)
        episodes += 1
        sharing += len(sibling_replays) > before
    assert episodes >= 5
    assert sharing >= max(1, episodes // 2), (sharing, episodes)


# -- planted violations ------------------------------------------------------


def test_planted_rewind_is_caught_and_shrunk_to_a_tiny_reproducer():
    report = fuzz(seed=3, budget=5, fault_rate=0.3)
    assert not report.ok
    failure = report.failure
    assert failure.invariant == "monotone-clock"
    assert len(failure.reproducer["ops"]) <= 5
    # The reproducer is self-contained: replaying it trips the same invariant.
    with pytest.raises(InvariantViolation) as excinfo:
        replay(failure.reproducer)
    assert excinfo.value.invariant == "monotone-clock"


def test_planted_fault_shrinks_config_to_the_smallest_machine():
    report = fuzz(seed=3, budget=5, fault_rate=0.3)
    config = report.failure.reproducer["config"]
    # A clock rewind needs no cluster, cache or serving episode to reproduce.
    assert config["cluster"] is None
    assert config["cache"] is None
    assert config["serving"] is None


# -- the shrinker ------------------------------------------------------------


def _plain_config():
    return FuzzConfig(topology="1xA6000", backend="numeric")


def test_shrinker_drops_irrelevant_ops():
    config = _plain_config()
    ops = [
        {"op": "host", "node": 0, "stream": "default", "ms": 0.5},
        {"op": "kernel", "node": 0, "device": 1, "stream": "default",
         "flops": 1e6, "bytes": 1e4},
        {"op": "advance", "node": 0, "ms": 0.25},
        {"op": "rewind", "node": 0, "ms": 2.0},
        {"op": "host", "node": 0, "stream": "default", "ms": 0.5},
    ]
    with pytest.raises(InvariantViolation) as excinfo:
        check_case(config, ops, ["monotone-clock"])
    shrunk_config, shrunk_ops, final = shrink(
        config, ops, excinfo.value, ["monotone-clock"]
    )
    assert final.invariant == "monotone-clock"
    assert shrunk_ops == [{"op": "rewind", "node": 0, "ms": 2.0}]
    assert shrunk_config.as_dict() == config.as_dict()


def test_shrinker_output_is_always_a_true_reproducer():
    config = _plain_config()
    ops = [
        {"op": "advance", "node": 0, "ms": 1.0},
        {"op": "rewind", "node": 0, "ms": 0.5},
    ]
    with pytest.raises(InvariantViolation) as excinfo:
        check_case(config, ops, ["monotone-clock"])
    _, shrunk_ops, final = shrink(config, ops, excinfo.value, ["monotone-clock"])
    assert final.invariant == "monotone-clock"
    # Every candidate is judged by re-running the full check, so whatever
    # survives shrinking must itself still trip the invariant.
    with pytest.raises(InvariantViolation):
        check_case(config, shrunk_ops, ["monotone-clock"])


# -- reproducer files --------------------------------------------------------


def test_reproducer_round_trip(tmp_path):
    config = _plain_config()
    ops = [{"op": "rewind", "node": 0, "ms": 1.5}]
    violation = InvariantViolation("monotone-clock", "cursor moved backwards")
    document = reproducer_dict(config, ops, violation, seed="9:2")
    path = tmp_path / "repro.json"
    save_reproducer(str(path), document)
    loaded = load_reproducer(str(path))
    assert loaded == json.loads(json.dumps(document))
    assert loaded["invariant"] == "monotone-clock"
    assert loaded["seed"] == "9:2"
    with pytest.raises(InvariantViolation):
        replay(loaded)


def test_resolve_checks_rejects_unknown_invariants():
    with pytest.raises(KeyError):
        resolve_checks(["not-an-invariant"])
    assert resolve_checks(None) == set(INVARIANTS)
    assert resolve_checks(["all"]) == set(INVARIANTS)
    assert resolve_checks(["monotone-clock"]) == {"monotone-clock"}


# -- the regression corpus ---------------------------------------------------


def _corpus_files():
    return sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def test_corpus_is_not_empty():
    assert _corpus_files(), "the regression corpus lost its reproducers"


@pytest.mark.parametrize(
    "path", _corpus_files(), ids=[os.path.basename(p) for p in _corpus_files()]
)
def test_corpus_reproducer_replays_clean(path):
    """Every checked-in finding stays fixed: replay must not raise."""
    reproducer = load_reproducer(path)
    assert reproducer.get("version") == 1
    assert reproducer.get("invariant") in set(INVARIANTS) | {"crash"}
    replay(reproducer)


# -- the CLI entry point -----------------------------------------------------


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )},
    )


def test_cli_fuzz_clean_campaign_exits_zero():
    proc = _run_cli("fuzz", "--seed", "0", "--budget", "4")
    assert proc.returncode == 0, proc.stderr
    assert "all invariants held" in proc.stdout


def test_cli_fuzz_failure_writes_reproducer_and_exits_one(tmp_path):
    out = tmp_path / "repro.json"
    proc = _run_cli(
        "fuzz", "--seed", "3", "--budget", "5",
        "--fault-rate", "0.3", "--out", str(out),
    )
    assert proc.returncode == 1
    assert "FAILED" in proc.stdout
    reproducer = load_reproducer(str(out))
    assert reproducer["invariant"] == "monotone-clock"
    assert len(reproducer["ops"]) <= 5
    # And the replay path round-trips through the CLI too: the fault is a
    # deliberate contract break, so the reproducer must still fail.
    replayed = _run_cli("fuzz", "--replay", str(out))
    assert replayed.returncode == 1
    assert "still fails" in replayed.stderr


def test_cli_fuzz_replay_of_fixed_corpus_exits_zero():
    proc = _run_cli(
        "fuzz", "--replay",
        os.path.join(CORPUS_DIR, "nic_barrier_drain.json"),
    )
    assert proc.returncode == 0, proc.stderr
    assert "replays clean" in proc.stdout


def test_cli_fuzz_rejects_unknown_invariant():
    proc = _run_cli("fuzz", "--check", "bogus")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "document, complaint",
    [
        ({"config": {}, "ops": [{"op": "kernle", "node": 0}]}, "unknown fuzz op 'kernle'"),
        ({"config": {}, "ops": [{"node": 0}]}, "unknown fuzz op None"),
        ({"config": {}, "ops": {"op": "sync"}}, "'ops' must be a list"),
        ({"config": {}, "ops": ["sync"]}, "'ops' must be a list"),
        ({"config": "1xA6000", "ops": []}, "'config' object"),
        (["not", "a", "reproducer"], "'config' object"),
    ],
)
def test_cli_fuzz_replay_of_malformed_reproducer_exits_two(tmp_path, document, complaint):
    """Bad input is a usage error (2), never "reproducer still fails" (1)."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = _run_cli("fuzz", "--replay", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "error: cannot load reproducer" in proc.stderr
    assert complaint in proc.stderr
    assert "Traceback" not in proc.stderr


def test_execution_rejects_an_unknown_op_for_programmatic_callers():
    with pytest.raises(ValueError, match="unknown fuzz op 'kernle'"):
        check_case(_plain_config(), [{"op": "kernle", "node": 0}])
