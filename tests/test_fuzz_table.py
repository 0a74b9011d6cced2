"""The fuzz harness spells each op kind and each invariant exactly once.

``OPS`` (``repro/fuzz/program.py``) and ``REGISTRY``
(``repro/fuzz/invariants.py``) are the two tables everything else reads.
These tests hold that line: no kind is named outside the table, the table
reproduces the palette the generator has always drawn from, a new row
works end to end without touching another function, and
``docs/INVARIANTS.md`` lists exactly what the tables hold.
"""

import ast
import inspect
import os
import random
import re

import repro.cli
import repro.fuzz
from repro.fuzz import INVARIANTS, FuzzConfig, check_case, draw_program, fuzz
from repro.fuzz import invariants, program
from repro.fuzz.program import OPS, OpSpec

FUZZ_DIR = os.path.dirname(repro.fuzz.__file__)
DOC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "docs", "INVARIANTS.md"
)

#: The three palette tuples ``draw_program`` concatenated before the table.
MACHINE_PALETTE = (
    "kernel", "kernel", "kernel",
    "host", "host",
    "transfer", "transfer",
    "record", "wait",
    "sync", "stream_sync", "device_sync", "event_sync",
    "alloc", "alloc", "free",
    "advance",
)
CLUSTER_PALETTE = ("nic_transfer", "nic_transfer", "node_sync", "cluster_sync")
CACHE_PALETTE = (
    "cache_probe", "cache_probe",
    "cache_put", "cache_put", "cache_put_many",
    "cache_invalidate", "cache_flush", "cache_charges",
)

_CACHE = {"policy": "lru", "capacity_bytes": 4096, "staleness_ms": 2.0, "kind": "embedding"}


def _source(module):
    with open(inspect.getsourcefile(module), "r", encoding="utf-8") as handle:
        return handle.read()


def _table_lines():
    """The (first, last) line numbers of program.py's table section."""
    lines = _source(program).split("\n")
    starts = [i + 1 for i, line in enumerate(lines) if line.startswith("# -- ")]
    first = next(i for i in starts if "the op table" in lines[i - 1])
    return first, starts[starts.index(first) + 1]


def _kind_literals(tree):
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in OPS
    ]


# -- one spelling --------------------------------------------------------------


def test_no_op_kind_is_named_outside_the_table():
    first, last = _table_lines()
    for filename in sorted(os.listdir(FUZZ_DIR)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(FUZZ_DIR, filename), "r", encoding="utf-8") as handle:
            found = _kind_literals(ast.parse(handle.read()))
        if filename == "program.py":
            found = [(line, kind) for line, kind in found if not first <= line < last]
        assert found == [], f"{filename} names op kinds outside the table: {found}"
    # cli.py's other subcommands share words with op kinds; the fuzz one may not.
    assert _kind_literals(ast.parse(inspect.getsource(repro.cli._cmd_fuzz))) == []


def test_each_kind_keys_exactly_one_table_row_in_source_order():
    registered = []
    for node in ast.parse(_source(program)).body:
        for decorator in getattr(node, "decorator_list", []):
            if isinstance(decorator, ast.Call) and getattr(decorator.func, "id", "") == "_op":
                kind = decorator.args[0]
                registered.append(
                    kind.value if isinstance(kind, ast.Constant) else getattr(program, kind.id)
                )
    assert registered == list(OPS)
    assert len(set(registered)) == len(registered)


def test_dispatch_is_a_table_lookup_with_one_needs_guard():
    tree = ast.parse(_source(program))
    chains = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and getattr(node.left, "id", "") == "kind"
        and isinstance(node.ops[0], ast.Eq)
    ]
    assert chains == []
    guards = [
        function.name for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == "needs" for n in ast.walk(function))
    ]
    assert guards == ["_applies"]


def test_check_case_names_no_invariant():
    tree = ast.parse(inspect.getsource(invariants.check_case))
    named = [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in INVARIANTS
    ]
    assert named == []
    assert not any(isinstance(node, ast.If) and node.orelse for node in ast.walk(tree))


def test_registry_is_the_invariant_catalogue_with_differentials_first():
    names = [name for name, _, _ in invariants.REGISTRY]
    assert len(set(names)) == len(names) == 12
    assert INVARIANTS == {name: description for name, description, _ in invariants.REGISTRY}
    # The finals mutate the base execution (frees, flushes, barriers), so
    # every check that re-runs the program must come before all of them.
    finals = {"stream-intervals", "telemetry-conservation", "cache-conservation",
              "drain-after-sync", "memory-pools"}
    first_final = min(names.index(name) for name in finals)
    assert set(names[first_final:]) == finals


# -- same palette --------------------------------------------------------------


def _palette(config):
    return tuple(
        kind for kind, spec in OPS.items()
        if spec.needs is None or getattr(config, spec.needs)
        for _ in range(spec.weight)
    )


def test_table_weights_expand_to_the_original_palettes():
    assert _palette(FuzzConfig()) == MACHINE_PALETTE
    assert _palette(FuzzConfig(cluster="2n-1xA100-eth")) == MACHINE_PALETTE + CLUSTER_PALETTE
    assert _palette(FuzzConfig(cache=_CACHE)) == MACHINE_PALETTE + CACHE_PALETTE
    assert _palette(FuzzConfig(cluster="1n-2xA100", cache=_CACHE)) == (
        MACHINE_PALETTE + CLUSTER_PALETTE + CACHE_PALETTE
    )
    assert {kind for kind, spec in OPS.items() if spec.weight == 0} == {"noop", "rewind", "serve"}
    assert [kind for kind, spec in OPS.items() if spec.fault] == ["rewind"]
    assert {kind for kind, spec in OPS.items() if spec.bare} == set(CLUSTER_PALETTE)


# -- one row is the whole change -------------------------------------------------


def test_a_new_row_is_drawn_executed_and_shrunk_without_any_other_edit(monkeypatch):
    executed = []

    def apply(execution, index, op):
        executed.append(op["ms"])
        if op["ms"] > 0.5:
            raise RuntimeError(f"poked too hard at op {index}")
        execution._node(op["node"]).advance_host(op["ms"])

    poke = OpSpec(
        weight=10, needs=None, apply=apply,
        draw=lambda rng, s: {"node": s.node, "ms": round(rng.random(), 3)},
    )
    monkeypatch.setattr(program, "OPS", {**OPS, "poke": poke})

    ops = draw_program(random.Random(0), FuzzConfig(), num_ops=30)
    gentle = [op for op in ops if op["op"] != "poke" or op["ms"] <= 0.5]
    poked_ms = sum(op["ms"] for op in gentle if op["op"] == "poke")
    assert poked_ms > 0.0
    base = check_case(FuzzConfig(), gentle)
    assert executed and base.nodes[0].host_time_ms >= poked_ms

    report = fuzz(seed=0, budget=3, num_ops=30)
    assert not report.ok
    assert report.failure.invariant == "crash"
    assert report.failure.error.startswith("RuntimeError: poked too hard")
    (culprit,) = report.failure.reproducer["ops"]
    assert culprit["op"] == "poke" and culprit["ms"] > 0.5
    simplest = {"topology": "1xA6000", "backend": "numeric",
                "cluster": None, "cache": None, "serving": None}
    assert report.failure.reproducer["config"] == simplest


# -- docs ------------------------------------------------------------------------


def test_invariants_doc_lists_exactly_the_tables():
    with open(DOC, "r", encoding="utf-8") as handle:
        text = handle.read()
    headings = re.findall(r"^### `([a-z-]+)`", text, flags=re.MULTILINE)
    assert sorted(headings) == sorted(INVARIANTS)
    rows = re.findall(r"^\| `([a-z_]+)` \| (\d+) \| (\S+) \|", text, flags=re.MULTILINE)
    assert [(kind, int(weight), None if needs == "—" else needs) for kind, weight, needs in rows] == [
        (kind, spec.weight, spec.needs) for kind, spec in OPS.items()
    ]
