"""The schema walk behind ``validate_trace``: verdicts, words and cost.

Three nets under ``repro.obs.export``'s checker, all through the public
``validate_trace``:

* a literal table of mutations of a small real export and the exact
  ``ValueError`` text each must produce (every keyword of the subset, the
  bool-is-not-a-number rule, nullable fields, first-violation-wins);
* a seeded differential against the interpreted walker the compiled checker
  replaced, kept verbatim below as the reference oracle -- and every mutant
  the validator accepts must also be analysable by ``repro-dgnn trace``;
* a deterministic cost guard: Python-level calls per trace event.
"""

import copy
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

from repro.obs import (
    attribute_request,
    diff_traces,
    format_breakdown,
    format_diff,
    format_top_spans,
    pick_request,
    top_spans,
    validate_trace,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_PATH = os.path.join(REPO_ROOT, "src", "repro", "obs", "trace.schema.json")


def _load_schema():
    with open(SCHEMA_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _outcome(check, *args):
    """``None`` when ``check`` accepts, else the ``ValueError`` text."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


# -- (a) pinned verdicts and messages ----------------------------------------

DELETE = object()

EVENT0 = ("traceEvents", 0)
#: The last trace event; ``{last}`` in a message stands for its index.
LAST = ("traceEvents", -1)
REQUEST0 = ("repro", "requests", 0)
SPAN0 = ("repro", "spans", 0)
INSTANT0 = ("repro", "instants", 0)
PH_ENUM = "['X', 'i', 'b', 'e', 's', 'f', 'M', 'C']"

#: (edits, expected outcome).  An edit is ``(path, value)``: set the node at
#: ``path`` (creating the key if absent) or, with ``DELETE``, remove it.
PINNED = [
    # type, single-valued, at every depth
    ([((), [])], "$: expected type object, got list"),
    ([(("traceEvents",), 3)], "$.traceEvents: expected type array, got int"),
    ([(EVENT0, "event")], "$.traceEvents[0]: expected type object, got str"),
    ([(("displayTimeUnit",), None)], "$.displayTimeUnit: expected type string, got NoneType"),
    ([(("repro",), [])], "$.repro: expected type object, got list"),
    ([(("repro", "t0_ms"), "x")], "$.repro.t0_ms: expected type number, got str"),
    ([(EVENT0 + ("args",), [])], "$.traceEvents[0].args: expected type object, got list"),
    ([(INSTANT0 + ("attrs",), None)],
     "$.repro.instants[0].attrs: expected type object, got NoneType"),
    ([(REQUEST0 + ("slo_violated",), 0)],
     "$.repro.requests[0].slo_violated: expected type boolean, got int"),
    # a bool is neither an integer nor a number; a float is not an integer
    ([(EVENT0 + ("pid",), True)], "$.traceEvents[0].pid: expected type integer, got bool"),
    ([(EVENT0 + ("pid",), 1.5)], "$.traceEvents[0].pid: expected type integer, got float"),
    ([(EVENT0 + ("ts",), True)], "$.traceEvents[0].ts: expected type number, got bool"),
    ([(("repro", "version"), 1.5)], "$.repro.version: expected type integer, got float"),
    ([(EVENT0 + ("ts",), 3)], None),
    # list-valued type: null where allowed and where not
    ([(REQUEST0 + ("slo_ms",), None)], None),
    ([(REQUEST0 + ("slo_ms",), "x")],
     "$.repro.requests[0].slo_ms: expected type number/null, got str"),
    ([(REQUEST0 + ("batch_size",), True)],
     "$.repro.requests[0].batch_size: expected type integer/null, got bool"),
    ([(REQUEST0 + ("replica",), 1.5)],
     "$.repro.requests[0].replica: expected type integer/null, got float"),
    ([(REQUEST0 + ("arrival_ms",), None)],
     "$.repro.requests[0].arrival_ms: expected type number, got NoneType"),
    ([(SPAN0 + ("parent",), None)], None),
    ([(("repro", "metrics"), None)], None),
    ([(("repro", "metrics"), [])], "$.repro.metrics: expected type object/null, got list"),
    ([(("repro", "metrics", "at_ms"), "x")],
     "$.repro.metrics.at_ms: expected type number, got str"),
    # enum
    ([(EVENT0 + ("ph",), "Z")], f"$.traceEvents[0].ph: value 'Z' not in {PH_ENUM}"),
    ([(EVENT0 + ("bp",), "x")], "$.traceEvents[0].bp: value 'x' not in ['e']"),
    ([(("displayTimeUnit",), "s")], "$.displayTimeUnit: value 's' not in ['ms', 'ns']"),
    # required, at four depths
    ([(("traceEvents",), DELETE)], "$: missing required key 'traceEvents'"),
    ([(("repro", "spans"), DELETE)], "$.repro: missing required key 'spans'"),
    ([(EVENT0 + ("ph",), DELETE)], "$.traceEvents[0]: missing required key 'ph'"),
    ([(REQUEST0 + ("arrival_ms",), DELETE)],
     "$.repro.requests[0]: missing required key 'arrival_ms'"),
    ([(INSTANT0 + ("node",), DELETE)], "$.repro.instants[0]: missing required key 'node'"),
    ([(("repro", "metrics"), DELETE)], None),
    # items
    ([(("repro", "nodes"), ["node0", 7])], "$.repro.nodes[1]: expected type string, got int"),
    ([(("repro", "requests"), [None])], "$.repro.requests[0]: expected type object, got NoneType"),
    ([(SPAN0 + ("trace_ids",), [1, "x"])],
     "$.repro.spans[0].trace_ids[1]: expected type integer, got str"),
    ([(SPAN0 + ("trace_ids",), [True])],
     "$.repro.spans[0].trace_ids[0]: expected type integer, got bool"),
    ([(SPAN0 + ("trace_ids",), {})],
     "$.repro.spans[0].trace_ids: expected type array, got dict"),
    # two violations: the first in traversal order wins --
    # type before enum, required before properties, properties in schema
    # order (a nested one before a later leaf), items in index order
    ([(EVENT0 + ("ph",), 3)], "$.traceEvents[0].ph: expected type string, got int"),
    ([(EVENT0 + ("ph",), DELETE), (EVENT0 + ("name",), 3)],
     "$.traceEvents[0]: missing required key 'ph'"),
    ([(EVENT0 + ("pid",), "x"), (EVENT0 + ("name",), 3)],
     "$.traceEvents[0].name: expected type string, got int"),
    ([(("displayTimeUnit",), "s"), (EVENT0 + ("pid",), True)],
     "$.traceEvents[0].pid: expected type integer, got bool"),
    ([(("repro", "label"), 3), (("displayTimeUnit",), 3)],
     "$.displayTimeUnit: expected type string, got int"),
    ([(("traceEvents", 1, "ph"), "Z"), (EVENT0 + ("tid",), "x")],
     "$.traceEvents[0].tid: expected type integer, got str"),
    ([(("repro", "spans"), DELETE), (("repro", "version"), "x")],
     "$.repro: missing required key 'spans'"),
    # the last event: when the columns do not show ``traceEvents`` valid,
    # the item walk words the violation at its real index
    ([(LAST + ("ph",), "Z")], f"$.traceEvents[{{last}}].ph: value 'Z' not in {PH_ENUM}"),
    ([(LAST + ("pid",), True)], "$.traceEvents[{last}].pid: expected type integer, got bool"),
    ([(LAST + ("ph",), DELETE)], "$.traceEvents[{last}]: missing required key 'ph'"),
    ([(LAST, None)], "$.traceEvents[{last}]: expected type object, got NoneType"),
    ([(LAST + ("ph",), "X"), (LAST + ("ts",), DELETE)],
     "$.traceEvents[{last}]: 'X' event without 'ts'"),
]


def _edited(payload, edits):
    payload = copy.deepcopy(payload)
    for path, value in edits:
        if not path:
            payload = value
            continue
        node = payload
        for step in path[:-1]:
            node = node[step]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return payload


@pytest.mark.parametrize(
    "edits, expected", PINNED, ids=[f"{i:02d}" for i in range(len(PINNED))]
)
def test_pinned_mutation_gives_the_exact_message(small_export, edits, expected):
    if expected is not None:
        expected = expected.replace("{last}", str(len(small_export["traceEvents"]) - 1))
    assert _outcome(validate_trace, _edited(small_export, edits)) == expected


# -- (b) differential against the walker the compiled checker replaced --------
#
# Verbatim copy of ``_TYPE_CHECKS`` / ``_validate`` as they stood in
# ``src/repro/obs/export.py`` before the schema was compiled (PR 18 and
# earlier).  Reference oracle: do not "fix" or speed it up.

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _validate(instance, schema, path):
    types = schema.get("type")
    if types is not None:
        allowed = types if isinstance(types, list) else [types]
        if not any(_TYPE_CHECKS[t](instance) for t in allowed):
            raise ValueError(
                f"{path}: expected type {'/'.join(allowed)}, "
                f"got {type(instance).__name__}"
            )
    enum = schema.get("enum")
    if enum is not None and instance not in enum:
        raise ValueError(f"{path}: value {instance!r} not in {enum}")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                raise ValueError(f"{path}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in instance:
                _validate(instance[key], subschema, f"{path}.{key}")
    if isinstance(instance, list):
        items = schema.get("items")
        if items is not None:
            for index, entry in enumerate(instance):
                _validate(entry, items, f"{path}[{index}]")


REPLACEMENTS = (None, True, 0, 1.5, "x", [], {})

#: What the structural pass after the schema walk may say about a payload
#: the schema accepts.
STRUCTURAL_MESSAGES = ("unbalanced async span events", "dangling flow events", "'X' event without")


def _mutate(rng, payload):
    """One single-site mutation at a random depth; returns a description."""
    parent, key, node = None, None, payload
    while isinstance(node, (dict, list)) and node:
        if parent is not None and rng.random() < 0.2:
            break
        parent = node
        key = rng.choice(sorted(node)) if isinstance(node, dict) else rng.randrange(len(node))
        node = node[key]
    choice = rng.randrange(len(REPLACEMENTS) + 1)
    if choice == len(REPLACEMENTS):
        del parent[key]
        return f"delete {key!r}"
    parent[key] = copy.deepcopy(REPLACEMENTS[choice])
    return f"{key!r} = {REPLACEMENTS[choice]!r}"


def _analyse(payload):
    """Everything ``repro-dgnn trace`` does with a loaded file."""
    if payload["repro"]["requests"]:
        request = pick_request(payload, "p99")
        format_breakdown(request, attribute_request(payload, request))
    else:
        with pytest.raises(ValueError, match="no completed requests"):
            pick_request(payload, "p99")
    format_top_spans(top_spans(payload, 10))
    format_diff(diff_traces(payload, payload))


def test_random_mutants_match_the_reference_walker_and_accepted_ones_analyse(small_export):
    schema = _load_schema()
    text = json.dumps(small_export)
    rng = random.Random(19)
    rejected = accepted = 0
    for _ in range(800):
        mutant = json.loads(text)
        what = _mutate(rng, mutant)
        expected = _outcome(_validate, mutant, schema, "$")
        actual = _outcome(validate_trace, mutant)
        if expected is not None:
            assert actual == expected, what
            rejected += 1
        elif actual is not None:
            assert any(message in actual for message in STRUCTURAL_MESSAGES), (what, actual)
        else:
            _analyse(mutant)
            accepted += 1
    # The draw must exercise both verdicts, or the comparison proves nothing.
    assert rejected >= 400 and accepted >= 60, (rejected, accepted)


def test_x_event_without_ts_is_rejected_by_the_structural_pass(small_export):
    """The one field the attribution sweep reads unguarded that the schema
    subset cannot require per ``ph``; the schema walk alone accepts it."""
    index = next(i for i, e in enumerate(small_export["traceEvents"]) if e["ph"] == "X")
    mutant = _edited(small_export, [(("traceEvents", index, "ts"), DELETE)])
    assert _outcome(_validate, mutant, _load_schema(), "$") is None
    assert _outcome(validate_trace, mutant) == f"$.traceEvents[{index}]: 'X' event without 'ts'"


# -- (c) cost guard -----------------------------------------------------------


def test_python_calls_per_trace_event_stay_bounded(cluster_export):
    """A count, not a timing.  The interpreted walker made 39 Python-level
    calls per trace event (one ``_validate`` per schema node, a generator
    and a lambda per type check); the compiled item walk made 4 685 calls
    for this payload's 3 578 trace events (1.3 per event).  Checked by
    column it makes 970: about 400 to compile the schema, 4 per span
    (``repro.spans`` is still walked entry by entry for its nested
    ``trace_ids``) and none per trace event."""
    payload = cluster_export(150.0)
    events = len(payload["traceEvents"])
    spans = len(payload["repro"]["spans"])
    assert events >= 2000
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        validate_trace(payload)
    finally:
        sys.setprofile(None)
    assert calls <= 4 * spans + 500, f"{calls} calls for {events} trace events, {spans} spans"


# -- a schema the checker cannot enforce is refused ---------------------------


def test_checked_in_schema_compiles_and_accepts_a_real_export(small_export):
    validate_trace(small_export)


def test_a_copy_of_the_package_without_docs_finds_its_schema(tmp_path, small_export):
    """The schema ships inside ``repro.obs``: no checkout around the package."""
    site = tmp_path / "site"
    shutil.copytree(
        os.path.join(REPO_ROOT, "src", "repro"),
        site / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    trace = tmp_path / "sample-trace.json"
    trace.write_text(json.dumps(small_export), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(site))
    found = subprocess.run(
        [sys.executable, "-c", "from repro.obs import export; print(export.SCHEMA_PATH)"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert found.stdout.strip() == str(site / "repro" / "obs" / "trace.schema.json")
    run = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", str(trace)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "error" not in run.stderr


@pytest.mark.parametrize("lines_read", [0, 1])
def test_trace_into_a_closed_pipe_exits_quietly(tmp_path, small_export, lines_read):
    """``repro-dgnn trace ... | head -1``: once the reader is gone the rest
    of the report is dropped, with exit 0 and no traceback.  Closed before
    anything is read, the pipe is sure to refuse the command's first write."""
    trace = tmp_path / "sample-trace.json"
    trace.write_text(json.dumps(small_export), encoding="utf-8")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "trace", str(trace), "--request", "p99"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
    )
    for _ in range(lines_read):
        assert child.stdout.readline().startswith(b"request ")
    child.stdout.close()
    stderr = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 0, stderr
    assert "Traceback" not in stderr
    assert "Broken pipe" not in stderr


@pytest.mark.parametrize(
    "path, value, words",
    [
        (("properties", "repro", "properties", "version", "minimum"), 0,
         ("'minimum'", "$.properties.repro.properties.version")),
        (("properties", "traceEvents", "items", "additionalProperties"), False,
         ("'additionalProperties'", "$.properties.traceEvents.items")),
        (("properties", "repro", "properties", "version", "type"), "int",
         ("'int'", "$.properties.repro.properties.version")),
        (("properties", "repro", "properties", "t0_ms", "type"), ["number", "nil"],
         ("'nil'", "$.properties.repro.properties.t0_ms")),
        # keyword values of the wrong shape: a string enum would test
        # substrings, a string required would require its letters, and an
        # empty type list would reject everything
        (("properties", "traceEvents", "items", "properties", "ph", "enum"), "XM",
         ("'enum'", "$.properties.traceEvents.items.properties.ph")),
        (("properties", "traceEvents", "items", "required"), "ph",
         ("'required'", "$.properties.traceEvents.items")),
        (("properties", "repro", "properties", "version", "type"), [],
         ("'type'", "$.properties.repro.properties.version")),
        (("properties", "repro", "properties"), [],
         ("'properties'", "$.properties.repro")),
    ],
)
def test_schema_with_an_unimplemented_constraint_is_refused(tmp_path, path, value, words):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(_edited(_load_schema(), [(path, value)])), encoding="utf-8")
    # Refused while compiling, before any payload is read: even a payload
    # that is not a trace at all gets the schema error.
    for payload in ({"traceEvents": []}, None):
        with pytest.raises(ValueError) as raised:
            validate_trace(payload, schema_path=str(schema_path))
        message = str(raised.value)
        assert message.startswith("schema ")
        for word in words:
            assert word in message
