"""Critical-path attribution over exported trace files.

Given a trace produced by :func:`repro.obs.export.export_trace`, decompose
one request's end-to-end latency into the paper's bottleneck categories:

* ``queue`` -- waiting in the batcher before dispatch (straight from the
  request record);
* the service window ``[dispatched, completed]`` is swept over the timeline
  events of the node that served the batch (plus all NIC hops): at every
  instant the highest-priority *active* category wins, so concurrent work
  is never double-counted and the segments **sum exactly to the service
  time** -- whatever no event covers is reported as ``wait`` (device queueing
  behind earlier batches, cross-stream dependencies);
* priority order ``kernel > nic > copy > cache > sample > sync > warmup``:
  when a kernel overlaps a host-side sample, the paper charges the span to
  compute and the overlapped sampling is hidden -- exactly the overlap the
  optimization PRs exploit.

The same module powers ``repro-dgnn trace``'s other views: top-k span
tables and the diff of two trace files (per-category busy totals and
latency percentiles side by side).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from .._compat import ordered_sum
from ..core.stats import percentile
from ..domain import NON_NEGATIVE_INT

#: Sweep priority, strongest claim first.
ATTRIBUTION_PRIORITY = ("kernel", "nic", "copy", "cache", "sample", "sync", "warmup")

#: Categories reported in a breakdown, in print order.
BREAKDOWN_SEGMENTS = ("queue",) + ATTRIBUTION_PRIORITY + ("wait",)


def completed_requests(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    return list(payload["repro"].get("requests", []))


def pick_request(payload: Dict[str, Any], selector: str = "p99") -> Dict[str, Any]:
    """Resolve a request selector to one request record.

    ``p50``/``p95``/``p99`` pick the completed request whose total latency
    is closest to that percentile (ties to the later request id, the one a
    tail analysis would look at); ``max`` the slowest; an integer picks by
    request id.
    """
    requests = completed_requests(payload)
    if not requests:
        raise ValueError("trace contains no completed requests")
    if selector.isdigit():
        rid = int(selector)
        for request in requests:
            if request["id"] == rid:
                return request
        raise ValueError(f"no completed request with id {rid}")
    if selector == "max":
        return max(requests, key=lambda r: (r["total_ms"], r["id"]))
    if selector.startswith("p") and selector[1:].isdigit():
        q = float(selector[1:])
        target = percentile([r["total_ms"] for r in requests], q)
        return min(requests, key=lambda r: (abs(r["total_ms"] - target), -r["id"]))
    raise ValueError(f"unknown request selector {selector!r} (p50/p95/p99/max/<id>)")


def _window_events(
    payload: Dict[str, Any], node: str, start_ms: float, end_ms: float
) -> List[Tuple[str, float, float]]:
    """Attributable (category, start, end) intervals clipped to the window.

    Takes every categorised timeline event on the serving node, plus NIC
    hops from *any* node (the route to a remote replica is charged on the
    front-end's log but belongs to this request's path).  The window is
    tested before the node, so only events that reach into it pay the
    ``args`` lookup; the test reads the same bounds the clipping does.
    """
    intervals: List[Tuple[str, float, float]] = []
    for event in payload["traceEvents"]:
        if event.get("ph") != "X":
            continue
        category = event.get("cat")
        if category not in ATTRIBUTION_PRIORITY:
            continue
        ts = event["ts"] / 1000.0
        te = ts + event.get("dur", 0.0) / 1000.0
        if te <= start_ms or ts >= end_ms:
            continue
        if category != "nic" and event.get("args", {}).get("node") != node:
            continue
        lo = max(ts, start_ms)
        hi = min(te, end_ms)
        if hi > lo:
            intervals.append((category, lo, hi))
    return intervals


def attribute_request(
    payload: Dict[str, Any], request: Dict[str, Any]
) -> Dict[str, float]:
    """Decompose one request's latency into segments that sum to the total.

    Returns ``{"queue": ..., "kernel": ..., ..., "wait": ..., "total": ...}``
    in milliseconds.  ``queue + sum(service segments) == total`` by
    construction (the sweep partitions the service window).
    """
    t0 = payload["repro"].get("t0_ms", 0.0)
    start = t0 + request["dispatched_ms"]
    end = t0 + request["completed_ms"]
    intervals = _window_events(payload, request.get("node", ""), start, end)
    breakdown = {segment: 0.0 for segment in BREAKDOWN_SEGMENTS}
    breakdown["queue"] = request["queue_ms"]
    points = sorted({start, end, *(p for _, lo, hi in intervals for p in (lo, hi))})
    covered = 0.0
    for lo, hi in zip(points, points[1:]):
        active = {cat for cat, ilo, ihi in intervals if ilo < hi and ihi > lo}
        for category in ATTRIBUTION_PRIORITY:
            if category in active:
                breakdown[category] += hi - lo
                covered += hi - lo
                break
    breakdown["wait"] = (end - start) - covered
    breakdown["total"] = request["total_ms"]
    return breakdown


def format_breakdown(request: Dict[str, Any], breakdown: Dict[str, float]) -> str:
    """Render one request's critical-path table for the CLI."""
    lines = [
        f"request {request['id']}: total {breakdown['total']:.3f} ms "
        f"(queue {request['queue_ms']:.3f} + service {request['service_ms']:.3f}), "
        f"batch {request.get('batch_size')}, replica {request.get('replica')}, "
        f"node {request.get('node', '?')}"
    ]
    total = breakdown["total"] or 1.0
    lines.append("  segment     ms        share")
    for segment in BREAKDOWN_SEGMENTS:
        value = breakdown[segment]
        if value <= 0.0 and segment not in ("queue", "wait"):
            continue
        lines.append(f"  {segment:<10} {value:9.3f}   {value / total * 100:5.1f}%")
    covered = ordered_sum(breakdown[s] for s in BREAKDOWN_SEGMENTS)
    lines.append(f"  {'sum':<10} {covered:9.3f}   {covered / total * 100:5.1f}%")
    return "\n".join(lines)


def top_spans(payload: Dict[str, Any], k: int = 10) -> List[Dict[str, Any]]:
    """The k longest closed spans, with their duration filled in."""
    NON_NEGATIVE_INT.check("k", k)
    spans = []
    for span in payload["repro"].get("spans", []):
        if span.get("end_ms") is None:
            continue
        entry = dict(span)
        entry["duration_ms"] = span["end_ms"] - span["start_ms"]
        spans.append(entry)
    spans.sort(key=lambda s: (-s["duration_ms"], s["id"]))
    return spans[:k]


def format_top_spans(spans: Sequence[Dict[str, Any]]) -> str:
    lines = ["top spans by duration:"]
    lines.append(f"  {'span':<22} {'category':<9} {'node':<7} {'ms':>9}  requests")
    for span in spans:
        ids = span.get("trace_ids", [])
        riders = ",".join(str(i) for i in ids[:4]) + ("..." if len(ids) > 4 else "")
        lines.append(
            f"  {span['name']:<22} {span['category']:<9} {span['node']:<7} "
            f"{span['duration_ms']:9.3f}  {riders or '-'}"
        )
    return "\n".join(lines)


# -- trace diffing -----------------------------------------------------------


def _category_totals(payload: Dict[str, Any]) -> Dict[str, float]:
    totals = {category: 0.0 for category in ATTRIBUTION_PRIORITY}
    for event in payload["traceEvents"]:
        if event.get("ph") != "X":
            continue
        category = event.get("cat")
        if category in totals:
            totals[category] += event.get("dur", 0.0) / 1000.0
    return totals


def _latency_summary(payload: Dict[str, Any]) -> Dict[str, float]:
    values = [r["total_ms"] for r in completed_requests(payload)]
    if not values:
        return {"requests": 0}
    return {
        "requests": len(values),
        "p50_ms": percentile(values, 50),
        "p95_ms": percentile(values, 95),
        "p99_ms": percentile(values, 99),
        "max_ms": max(values),
    }


def diff_traces(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Compare two traces: per-category busy totals and latency percentiles."""
    totals_a = _category_totals(a)
    totals_b = _category_totals(b)
    return {
        "a": {"label": a["repro"].get("label", ""), **_latency_summary(a)},
        "b": {"label": b["repro"].get("label", ""), **_latency_summary(b)},
        "categories": {
            category: {"a_ms": totals_a[category], "b_ms": totals_b[category]}
            for category in ATTRIBUTION_PRIORITY
        },
    }


def format_diff(diff: Dict[str, Any]) -> str:
    a, b = diff["a"], diff["b"]
    lines = [f"trace diff: {a.get('label') or 'A'}  vs  {b.get('label') or 'B'}"]
    lines.append(
        f"  requests: {a.get('requests', 0)} vs {b.get('requests', 0)}"
    )
    for key in ("p50_ms", "p95_ms", "p99_ms", "max_ms"):
        if key in a and key in b:
            delta = b[key] - a[key]
            lines.append(f"  {key:<8}: {a[key]:9.3f} -> {b[key]:9.3f}  ({delta:+.3f})")
    lines.append("  busy ms by category:")
    for category, row in diff["categories"].items():
        delta = row["b_ms"] - row["a_ms"]
        if row["a_ms"] == 0.0 and row["b_ms"] == 0.0:
            continue
        lines.append(
            f"    {category:<8}: {row['a_ms']:9.3f} -> {row['b_ms']:9.3f}  ({delta:+.3f})"
        )
    return "\n".join(lines)


__all__ = [
    "ATTRIBUTION_PRIORITY",
    "BREAKDOWN_SEGMENTS",
    "attribute_request",
    "completed_requests",
    "diff_traces",
    "format_breakdown",
    "format_diff",
    "format_top_spans",
    "pick_request",
    "top_spans",
]
