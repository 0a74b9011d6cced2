"""Chrome trace-event / Perfetto JSON export of a traced run.

:func:`build_trace` renders one :class:`~repro.obs.trace.Tracer` (and the
machines attached to it) into the Chrome trace-event format that Perfetto
and ``chrome://tracing`` load directly:

* every node machine becomes a *process* (pid), every ``(resource, stream)``
  pair one of its *threads* (tid) -- streams show up as tracks;
* kernels, transfers and NIC hops become ``"X"`` duration events on their
  stream track, categorised (``kernel``/``copy``/``nic``/``cache``/
  ``sample``/``sync``/``warmup``) for the attribution CLI;
* spans become ``"b"``/``"e"`` async pairs on their node, so a request's
  queue -> service -> sample/nic tree renders as nested async rows;
* scale events, invalidation broadcasts and fidelity lever changes become
  ``"i"`` instants;
* each request contributes an ``"s"``/``"f"`` *flow* from the end of its
  queue span (front-end node) to the start of its service span (serving
  node) -- on a cluster run the arrow crosses node tracks.

Besides ``traceEvents`` the payload carries a ``repro`` block (schema
version, request records with their latency split, the span/instant lists,
the metrics snapshot) that :mod:`repro.obs.critical_path` consumes, so an
exported file is self-contained for both Perfetto and ``repro-dgnn trace``.
Timestamps in ``traceEvents`` are microseconds (trace-event convention);
everything in ``repro`` stays in simulated milliseconds.

:func:`validate_trace` checks a payload against the JSON schema shipped in
this package (``trace.schema.json``, next to this module) with a small
built-in validator, so CI needs no third-party jsonschema package.  It
implements the subset ``type``/``enum``/``required``/``properties``/``items``
and compiles the schema into closures before it reads the payload.  An
array of flat objects such as ``traceEvents`` is accepted by column -- a few
C-level passes over the whole array, no Python call per trace event -- and
only when the columns do not show it valid are its entries checked one by
one, which finds and words the first violation.  A schema using any other constraint keyword, an unknown
type name or a keyword value of the wrong shape is refused while compiling
rather than left silently unchecked.
"""

from __future__ import annotations

import gc
import json
import os
from contextlib import contextmanager
from itertools import repeat
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..hw.events import ALLOC, FREE, KERNEL, MARKER, SYNC, TRANSFER, WARMUP
from .trace import Tracer

#: Trace payload schema version (bump when the layout changes).
TRACE_VERSION = 1

#: The JSON schema the exporter promises, shipped as package data beside
#: this module so an installed package validates without a checkout.
SCHEMA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace.schema.json")


def classify_event(
    kind: str, name: str, resource: str, nic_resources: set, cpu_names: set
) -> Optional[str]:
    """Attribution category of one timeline event (``None`` = skip).

    Cache charges are recognisable by their ``cache_`` name prefix on either
    side of the PCIe bus; NIC hops by their link resource; remaining GPU
    kernels are compute, remaining host kernels are the sampling/marshalling
    work the paper attributes to the CPU.
    """
    if kind == MARKER or kind == ALLOC or kind == FREE:
        return None
    if name.startswith("cache_"):
        return "cache"
    if kind == TRANSFER:
        return "nic" if resource in nic_resources else "copy"
    if kind == KERNEL:
        return "sample" if resource in cpu_names else "kernel"
    if kind == SYNC:
        return "sync"
    if kind == WARMUP:
        return "warmup"
    return None


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector; the caller's setting is restored on exit.

    A payload is a tree of fresh, acyclic dicts -- one per trace event --
    that refcounting frees; the collections their count would trigger
    mid-build (full ones included) can find nothing to collect.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def build_trace(
    tracer: Tracer,
    report: Optional[Any] = None,
    label: str = "",
) -> Dict[str, Any]:
    """Render a tracer (+ optional :class:`ServingReport`) into a payload."""
    nodes = sorted(tracer.machines)
    pids = {node: index + 1 for index, node in enumerate(nodes)}
    cpu_names = {machine.cpu.name for machine in tracer.machines.values()}
    nic_resources = set(tracer.nic_resources)
    events: List[Dict[str, Any]] = []

    # -- process/thread metadata + timeline tracks -------------------------
    for node in nodes:
        machine = tracer.machines[node]
        pid = pids[node]
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "args": {"name": f"{node} ({machine.cpu.name})"},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": "spans"},
            }
        )
        tracks: Dict[Tuple[str, str], int] = {}
        for (
            kind, name, resource, start_ms, end_ms, flops, nbytes, _, _, _, stream
        ) in machine.events.rows:
            category = classify_event(kind, name, resource, nic_resources, cpu_names)
            if category is None:
                continue
            track = (resource, stream)
            tid = tracks.get(track)
            if tid is None:
                tid = tracks[track] = len(tracks) + 1
                stream_label = f" [{stream}]" if stream else ""
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": f"{resource}{stream_label}"},
                    }
                )
            record: Dict[str, Any] = {
                "ph": "X",
                "name": name,
                "cat": category,
                "pid": pid,
                "tid": tid,
                "ts": start_ms * 1000.0,
                "dur": (end_ms - start_ms) * 1000.0,
                "args": {"node": node, "resource": resource, "stream": stream},
            }
            if nbytes:
                record["args"]["bytes"] = int(nbytes)
            if flops:
                record["args"]["flops"] = flops
            events.append(record)

    # -- spans as async begin/end pairs ------------------------------------
    for span in tracer.spans:
        if span.end_ms is None:
            continue
        pid = pids.get(span.node, 0)
        base = {
            "cat": span.category,
            "name": span.name,
            "id": str(span.span_id),
            "pid": pid,
            "tid": 0,
        }
        begin = dict(base)
        begin["ph"] = "b"
        begin["ts"] = span.start_ms * 1000.0
        begin["args"] = {
            "node": span.node,
            "trace_ids": list(span.trace_ids),
            "parent": span.parent_id,
        }
        end = dict(base)
        end["ph"] = "e"
        end["ts"] = span.end_ms * 1000.0
        events.append(begin)
        events.append(end)

    # -- instants ----------------------------------------------------------
    for instant in tracer.instants:
        events.append(
            {
                "ph": "i",
                "s": "g",
                "name": instant.name,
                "cat": instant.category,
                "pid": pids.get(instant.node, 0),
                "tid": 0,
                "ts": instant.ts_ms * 1000.0,
                "args": dict(instant.attrs),
            }
        )

    # -- request flows: queue span end -> service span start ---------------
    queue_spans: Dict[int, Any] = {}
    service_spans: Dict[int, Any] = {}
    for span in tracer.spans:
        if span.end_ms is None:
            continue
        if span.category == "queue" and len(span.trace_ids) == 1:
            queue_spans[span.trace_ids[0]] = span
        elif span.category == "service":
            for rid in span.trace_ids:
                service_spans[rid] = span
    for rid in sorted(queue_spans):
        service = service_spans.get(rid)
        if service is None:
            continue
        queue = queue_spans[rid]
        events.append(
            {
                "ph": "s",
                "cat": "request",
                "name": f"req-{rid}",
                "id": str(rid),
                "pid": pids.get(queue.node, 0),
                "tid": 0,
                "ts": queue.end_ms * 1000.0,
            }
        )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "cat": "request",
                "name": f"req-{rid}",
                "id": str(rid),
                "pid": pids.get(service.node, 0),
                "tid": 0,
                "ts": service.start_ms * 1000.0,
            }
        )

    # -- self-contained analysis block -------------------------------------
    requests: List[Dict[str, Any]] = []
    metrics = None
    if report is not None:
        label = label or report.label
        metrics = report.metrics
        for request in report.requests:
            if not request.is_completed:
                continue
            service = service_spans.get(request.request_id)
            requests.append(
                {
                    "id": request.request_id,
                    "arrival_ms": request.arrival_ms,
                    "dispatched_ms": request.dispatched_ms,
                    "completed_ms": request.completed_ms,
                    "queue_ms": request.queue_ms,
                    "service_ms": request.service_ms,
                    "total_ms": request.total_ms,
                    "slo_ms": request.slo_ms,
                    "slo_violated": request.slo_violated,
                    "batch_size": request.batch_size,
                    "replica": request.replica,
                    "node": service.node if service is not None else nodes[0] if nodes else "",
                }
            )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "repro": {
            "version": TRACE_VERSION,
            "label": label,
            "t0_ms": tracer.t0,
            "nodes": nodes,
            "requests": requests,
            "spans": [span.as_dict() for span in tracer.spans if span.end_ms is not None],
            "instants": [instant.as_dict() for instant in tracer.instants],
            "metrics": metrics,
        },
    }


def export_trace(
    path: str,
    tracer: Tracer,
    report: Optional[Any] = None,
    label: str = "",
) -> Dict[str, Any]:
    """Build the payload and write it to ``path``; returns the payload."""
    payload = build_trace(tracer, report=report, label=label)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    return payload


# -- schema validation -------------------------------------------------------


#: Accepted classes per schema type name.  ``bool`` subclasses ``int``, so
#: ``number``/``integer`` additionally reject booleans (see :func:`_head`).
_TYPE_CLASSES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "number": (int, float),
    "integer": (int,),
    "boolean": (bool,),
    "null": (type(None),),
}

#: Keywords that make a schema node more than a leaf (``type``/``enum`` only).
_STRUCTURE = frozenset(("required", "properties", "items"))
#: All a schema node may say: the constraints that are checked, and annotations.
_KEYWORDS = frozenset(("type", "enum", *_STRUCTURE, "$schema", "title", "description"))


class _Violation(Exception):
    """The first violation, unwinding: each level prefixes its path step."""

    path = ""


def _head(schema: Any, where: str) -> Tuple[Tuple[type, ...], bool, str, Optional[List[Any]]]:
    """Resolve one schema node's ``type``/``enum`` and refuse what is not checked.

    Returns ``(classes, no_bool, expected, enum)``: the accepted class tuple,
    whether a ``bool`` must be turned away although ``isinstance`` lets it
    through as an ``int``, the type names as the message prints them, and
    the enum list (or ``None``).  A keyword or type name the subset does
    not implement, or a keyword value of the wrong shape (an ``enum`` that
    is not a list, an empty ``type`` list), raises ``ValueError`` naming the
    schema path ``where`` -- a constraint that is not enforced as written
    must not look enforced.
    """
    if not isinstance(schema, dict):
        raise ValueError(f"schema {where}: expected an object, got {type(schema).__name__}")
    for keyword in schema:
        if keyword not in _KEYWORDS:
            raise ValueError(f"schema {where}: unsupported keyword {keyword!r}")
    enum = schema.get("enum")
    if enum is not None and not isinstance(enum, list):
        raise ValueError(f"schema {where}: 'enum' must be a list, got {type(enum).__name__}")
    types = schema.get("type")
    if types is None:
        return (object,), False, "", enum
    names = types if isinstance(types, list) else [types]
    if not names:
        raise ValueError(f"schema {where}: 'type' must name at least one type")
    for name in names:
        if not isinstance(name, str) or name not in _TYPE_CLASSES:
            raise ValueError(f"schema {where}: unknown type {name!r}")
    classes = tuple(cls for name in names for cls in _TYPE_CLASSES[name])
    return classes, int in classes and bool not in classes, "/".join(names), enum


class _Absent:
    """Class of the placeholder a column holds for an entry without the key."""


_ABSENT = _Absent()


def _exact(classes: Tuple[type, ...]) -> Optional[FrozenSet[type]]:
    """The exact classes a column may hold for a node (``None``: any type).

    A value's class must be one of them, so a subclass -- ``bool`` for an
    ``integer`` included -- is never accepted by column.
    """
    return None if classes == (object,) else frozenset(classes)


def _fits(values: Iterable[Any], classes: Optional[FrozenSet[type]], enum: Optional[list]) -> bool:
    """Whether every value of one column passes a leaf's type and enum test.

    ``classes`` comes from :func:`_exact`; ``_ABSENT`` entries are skipped.
    ``False`` means "not shown", not "invalid": the caller then walks the
    entries one by one and words the first violation.
    """
    if enum is not None:
        values = list(values)
    if classes is not None:
        # Classes of every value, not of the distinct ones: a set keeps one
        # of 1, 1.0 and True.
        types = set(map(type, values))
        types.discard(_Absent)
        if not types <= classes:
            return False
    if enum is None:
        return True
    try:
        distinct = set(values)
    except TypeError:  # an unhashable value
        return False
    distinct.discard(_ABSENT)
    return all(map(enum.__contains__, distinct))


def _column(
    exact: Optional[FrozenSet[type]],
    enum: Optional[list],
    required: Tuple[str, ...],
    leaves: List[Tuple[str, Optional[FrozenSet[type]], Optional[list]]],
) -> Callable[[list], bool]:
    """Compile ``accepts(array)`` for an array whose entries obey one leaf-only node.

    True only if every entry would pass the node's ``check``, shown a column
    at a time by C-level passes: the distinct entry classes, each required
    key by ``dict.__contains__``, each leaf property's values by
    ``dict.get``.  Entries with properties to check must be plain dicts.
    """
    if required or leaves:
        exact = frozenset((dict,)) if exact is None else exact & {dict}

    def accepts(array: list) -> bool:
        if not _fits(array, exact, enum):
            return False
        for key in required:
            if not all(map(dict.__contains__, array, repeat(key))):
                return False
        for key, sub_classes, sub_enum in leaves:
            if not _fits(map(dict.get, array, repeat(key), repeat(_ABSENT)), sub_classes, sub_enum):
                return False
        return True

    return accepts


def _compile(
    schema: Any, where: str = "$"
) -> Tuple[Callable[[Any], None], Optional[Callable[[list], bool]]]:
    """Compile a schema node into ``(check, accepts)``.

    Supported keywords: ``type`` (string or list), ``enum``, ``required``,
    ``properties``, ``items``.  Everything a node asks is resolved here,
    once: its class tuple, enum, required keys, the ``items`` checker and
    the property list in schema order, where a *leaf* property (``type``/
    ``enum`` only) is checked inline by its parent and only a nested one
    costs a call.  ``check(instance)`` raises :class:`_Violation` on the
    first violation in the order type, enum, required, properties (schema
    order), items (index order); the path is assembled while it unwinds, so
    a valid payload formats nothing.

    ``accepts(array)`` is the column check for an array of such instances
    (:func:`_column`), or ``None`` when the node has a nested property or
    ``items``.  An array whose ``items`` node has one runs it first -- a few
    C-level passes for the whole array -- and checks its entries one by one
    only when the columns do not show every entry valid.  That walk finds
    and words the first violation, so verdicts and messages are the item
    walk's; on the checked-in schema only ``repro.spans`` (nested
    ``trace_ids``) is walked entry by entry on a valid export.
    """
    classes, no_bool, expected, enum = _head(schema, where)
    required = schema.get("required", [])
    if not isinstance(required, list) or not all(isinstance(key, str) for key in required):
        raise ValueError(f"schema {where}: 'required' must be a list of strings, got {required!r}")
    required = tuple(required)
    declared = schema.get("properties", {})
    if not isinstance(declared, dict):
        raise ValueError(
            f"schema {where}: 'properties' must be an object, got {type(declared).__name__}"
        )
    properties = []
    leaves = []
    for key, subschema in declared.items():
        sub_where = f"{where}.properties.{key}"
        head = _head(subschema, sub_where)
        if _STRUCTURE.isdisjoint(subschema):
            properties.append((key, None) + head)
            leaves.append((key, _exact(head[0]), head[3]))
        else:
            properties.append((key, _compile(subschema, sub_where)[0]) + head)
    items = schema.get("items")
    check_item, accepts_items = (None, None) if items is None else _compile(items, f"{where}.items")

    def check(instance: Any) -> None:
        if not isinstance(instance, classes) or (no_bool and isinstance(instance, bool)):
            raise _Violation(f"expected type {expected}, got {type(instance).__name__}")
        if enum is not None and instance not in enum:
            raise _Violation(f"value {instance!r} not in {enum}")
        if isinstance(instance, dict):
            for key in required:
                if key not in instance:
                    raise _Violation(f"missing required key {key!r}")
            try:
                for key, nested, sub_classes, sub_no_bool, sub_expected, sub_enum in properties:
                    if key not in instance:
                        continue
                    value = instance[key]
                    if nested is not None:
                        nested(value)
                    elif not isinstance(value, sub_classes) or (
                        sub_no_bool and isinstance(value, bool)
                    ):
                        raise _Violation(
                            f"expected type {sub_expected}, got {type(value).__name__}"
                        )
                    elif sub_enum is not None and value not in sub_enum:
                        raise _Violation(f"value {value!r} not in {sub_enum}")
            except _Violation as violation:
                violation.path = f".{key}{violation.path}"
                raise
        elif check_item is not None and isinstance(instance, list):
            if accepts_items is not None and accepts_items(instance):
                return
            try:
                for index, entry in enumerate(instance):
                    check_item(entry)
            except _Violation as violation:
                violation.path = f"[{index}]{violation.path}"
                raise

    if items is not None or len(leaves) < len(properties):
        return check, None
    return check, _column(_exact(classes), enum, required, leaves)


def validate_trace(payload: Dict[str, Any], schema_path: Optional[str] = None) -> None:
    """Validate a trace payload against the packaged ``trace.schema.json``.

    Raises ``ValueError`` on the first violation, naming its path.  Beyond
    the schema it checks three structural promises the schema subset cannot
    express: async ``b``/``e`` events pair up, every flow step has both
    ends, and every ``X`` event has the ``ts`` the attribution sweep reads
    -- so a payload accepted here is one ``repro-dgnn trace`` can analyse.
    """
    with open(schema_path or SCHEMA_PATH, "r", encoding="utf-8") as handle:
        check, _ = _compile(json.load(handle))
    try:
        check(payload)
    except _Violation as violation:
        raise ValueError(f"${violation.path}: {violation}") from None
    opens: Dict[Tuple[str, str, str], int] = {}
    flows: Dict[str, int] = {}
    for index, event in enumerate(payload["traceEvents"]):
        ph = event.get("ph")
        if ph == "X":
            if "ts" not in event:
                raise ValueError(f"$.traceEvents[{index}]: 'X' event without 'ts'")
        elif ph in ("b", "e"):
            key = (event.get("cat", ""), event.get("id", ""), event.get("name", ""))
            opens[key] = opens.get(key, 0) + (1 if ph == "b" else -1)
        elif ph in ("s", "f"):
            fid = event.get("id", "")
            flows[fid] = flows.get(fid, 0) + (1 if ph == "s" else -1)
    unbalanced = [key for key, count in opens.items() if count != 0]
    if unbalanced:
        raise ValueError(f"unbalanced async span events: {unbalanced[:5]}")
    dangling = [fid for fid, count in flows.items() if count != 0]
    if dangling:
        raise ValueError(f"dangling flow events: {dangling[:5]}")


def validate_trace_file(path: str, schema_path: Optional[str] = None) -> Dict[str, Any]:
    """Load ``path`` and validate it; returns the payload."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_trace(payload, schema_path=schema_path)
    return payload
