"""The named global contracts every fuzz case is checked against.

Three families:

* **Online** checks run inside the executor after every op (monotone
  host/node clocks, non-negative memory pools, drain-after-sync at every
  barrier) -- see :mod:`repro.fuzz.program`.
* **Structural** checks run once after the program finishes: stream
  timelines hold disjoint, sorted, non-negative intervals; a final barrier
  really drains everything; freeing every live allocation balances the
  pools back to zero; cache counters conserve (hits + misses = lookups,
  occupancy = live entry bytes, occupancy <= capacity <= peak bookkeeping);
  serving telemetry conserves (offered = completed, latency splits add up).
* **Differential** checks re-run the same op list under a paired config and
  demand event-log identity: ``shape`` vs ``numeric`` backends, a 1-node
  cluster vs the bare node machine, a staleness-0 cache vs the never-store
  reference proxy, and a debt-free adaptive-fidelity serving run vs the
  controller detached.

``REGISTRY`` is the catalogue -- one ``(name, description, check)`` entry
per invariant -- and ``check_case`` the single entry point: it runs a
program under its config and applies every selected entry in order,
raising :class:`~repro.fuzz.program.InvariantViolation` on the first breach.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from ..hw.machine import Machine
from .config import FuzzConfig
from .program import (
    Execution,
    InvariantViolation,
    Op,
    on_bare_machine,
    signature,
    without_faults,
)


def resolve_checks(names: Optional[Iterable[str]]) -> Set[str]:
    """Normalize a ``--check`` selection (``None``/``"all"`` = everything)."""
    if names is None:
        return set(INVARIANTS)
    selected = set()
    for name in names:
        if name == "all":
            return set(INVARIANTS)
        if name not in INVARIANTS:
            raise KeyError(
                f"unknown invariant {name!r}; available: "
                f"{', '.join(sorted(INVARIANTS))} (or 'all')"
            )
        selected.add(name)
    return selected


# -- structural finals ------------------------------------------------------


def _check_stream_intervals(config: FuzzConfig, ops: List[Op], base: Execution) -> None:
    machines: List[Machine] = list(base.nodes)
    if base.serve_machine is not None:
        machines.append(base.serve_machine)
    for machine in machines:
        resources = list(machine.devices) + list(machine.links)
        for resource in resources:
            for stream in resource.streams:
                previous_end = None
                for interval in stream.timeline:
                    if interval.duration_ms < 0:
                        raise InvariantViolation(
                            "stream-intervals",
                            f"negative duration on {resource.name}:{stream.name}",
                        )
                    if previous_end is not None and interval.start_ms < previous_end - 1e-12:
                        raise InvariantViolation(
                            "stream-intervals",
                            f"overlapping intervals on {resource.name}:{stream.name} "
                            f"({interval.start_ms} < {previous_end})",
                        )
                    previous_end = interval.end_ms
        for _, name, _, start_ms, end_ms, *_ in machine.events.rows:
            if end_ms < start_ms:
                raise InvariantViolation(
                    "stream-intervals",
                    f"event {name!r} ends before it starts ({end_ms} < {start_ms})",
                )


def _check_final_drain(config: FuzzConfig, ops: List[Op], base: Execution) -> None:
    for index, node in enumerate(base.nodes):
        node.synchronize()
        base._check_drained(node, f"final synchronize (node {index})")
    if base.cluster is not None:
        base.cluster.synchronize()
        base._check_nics_drained("final barrier")


def _check_memory_balance(config: FuzzConfig, ops: List[Op], base: Execution) -> None:
    # Release everything the program still holds; pools must return to zero.
    for machine, device, alloc_id in base.live_allocs.values():
        machine.free(device, alloc_id)
    base.live_allocs.clear()
    if base.cache is not None:
        base.cache.flush()
        base.cache.flush_charges()
    for index, node in enumerate(base.nodes):
        for device in node.devices:
            if device.memory.current_bytes != 0:
                raise InvariantViolation(
                    "memory-pools",
                    f"node {index} {device.name} holds "
                    f"{device.memory.current_bytes} bytes after every free",
                )


def _check_cache_conservation(config: FuzzConfig, ops: List[Op], base: Execution) -> None:
    cache = base.cache
    if cache is None or cache.stats is None:
        return
    stats = cache.stats
    if stats.hits + stats.misses != stats.lookups:
        raise InvariantViolation(
            "cache-conservation",
            f"hits ({stats.hits}) + misses ({stats.misses}) != "
            f"lookups ({stats.lookups})",
        )
    if stats.stale_rejects > stats.misses:
        raise InvariantViolation(
            "cache-conservation",
            f"stale_rejects ({stats.stale_rejects}) exceed misses ({stats.misses})",
        )
    live_bytes = sum(entry[2] for entry in cache._entries.values())
    if stats.bytes_current != live_bytes:
        raise InvariantViolation(
            "cache-conservation",
            f"bytes_current ({stats.bytes_current}) != live entry bytes ({live_bytes})",
        )
    if stats.bytes_current > cache.capacity_bytes:
        raise InvariantViolation(
            "cache-conservation",
            f"occupancy ({stats.bytes_current}) exceeds capacity "
            f"({cache.capacity_bytes})",
        )
    if stats.bytes_peak < stats.bytes_current:
        raise InvariantViolation(
            "cache-conservation",
            f"bytes_peak ({stats.bytes_peak}) below bytes_current "
            f"({stats.bytes_current})",
        )
    if stats.entries != len(cache._entries):
        raise InvariantViolation(
            "cache-conservation",
            f"entries counter ({stats.entries}) != live entries ({len(cache._entries)})",
        )


def _check_telemetry(config: FuzzConfig, ops: List[Op], base: Execution) -> None:
    report = base.serve_report
    if report is None:
        return
    if report.offered != report.completed:
        raise InvariantViolation(
            "telemetry-conservation",
            f"offered ({report.offered}) != completed ({report.completed}); "
            "the server dropped requests without accounting for them",
        )
    if len(report.requests) != report.completed:
        raise InvariantViolation(
            "telemetry-conservation",
            f"report carries {len(report.requests)} requests but counts "
            f"{report.completed} completed",
        )
    for request in report.requests:
        if not request.is_completed:
            raise InvariantViolation(
                "telemetry-conservation",
                f"request {request.request_id} in the completed list was "
                "never completed",
            )
        if request.dispatched_ms is None:
            raise InvariantViolation(
                "telemetry-conservation",
                f"request {request.request_id} completed without dispatch",
            )
        if request.queue_ms < -1e-9 or request.service_ms < -1e-9:
            raise InvariantViolation(
                "telemetry-conservation",
                f"request {request.request_id} has a negative latency split "
                f"(queue {request.queue_ms}, service {request.service_ms})",
            )
        if abs(request.total_ms - (request.queue_ms + request.service_ms)) > 1e-6:
            raise InvariantViolation(
                "telemetry-conservation",
                f"request {request.request_id}: queue + service != total",
            )
        if not request.batch_size or request.batch_size < 1:
            raise InvariantViolation(
                "telemetry-conservation",
                f"request {request.request_id} rode in a batch of "
                f"{request.batch_size}",
            )
    cache = report.cache
    if cache is not None:
        if cache.get("hits", 0) + cache.get("misses", 0) != cache.get("lookups", 0):
            raise InvariantViolation(
                "telemetry-conservation",
                f"serving cache telemetry: hits ({cache.get('hits')}) + misses "
                f"({cache.get('misses')}) != lookups ({cache.get('lookups')})",
            )


# -- differentials ----------------------------------------------------------


def _signatures(execution: Execution) -> List[List]:
    sigs = [signature(node) for node in execution.nodes]
    if execution.serve_machine is not None:
        sigs.append(signature(execution.serve_machine))
    return sigs


def _compare(invariant: str, base: List[List], paired: List[List], what: str) -> None:
    if len(base) != len(paired):
        raise InvariantViolation(
            invariant, f"{what}: machine counts differ ({len(base)} vs {len(paired)})"
        )
    for index, (a, b) in enumerate(zip(base, paired)):
        if a == b:
            continue
        if len(a) != len(b):
            raise InvariantViolation(
                invariant,
                f"{what}: machine {index} event counts differ "
                f"({len(a)} vs {len(b)})",
            )
        for position, (ea, eb) in enumerate(zip(a, b)):
            if ea != eb:
                raise InvariantViolation(
                    invariant,
                    f"{what}: machine {index} event {position} differs: "
                    f"{ea} vs {eb}",
                )


def _compare_completions(invariant: str, base: Execution, paired: Execution, what: str) -> None:
    if base.serve_report is None or paired.serve_report is None:
        return
    base_times = [r.completed_ms for r in base.serve_report.requests]
    paired_times = [r.completed_ms for r in paired.serve_report.requests]
    if base_times != paired_times:
        raise InvariantViolation(invariant, what)


def _check_backend_equivalence(config: FuzzConfig, ops: List[Op], base: Execution) -> None:
    flipped = FuzzConfig.from_dict(base.config.as_dict())
    flipped.backend = "shape" if config.backend == "numeric" else "numeric"
    paired = Execution(flipped, checks=set()).run(without_faults(ops))
    _compare(
        "backend-equivalence",
        _signatures(base),
        _signatures(paired),
        f"{config.backend} vs {flipped.backend}",
    )
    _compare_completions(
        "backend-equivalence", base, paired, "serving completion times differ between backends"
    )


def _check_single_node_cluster(config: FuzzConfig, ops: List[Op], base: Execution) -> None:
    if base.cluster is None or base.cluster.num_nodes != 1:
        return
    bare = FuzzConfig.from_dict(config.as_dict())
    bare.cluster = None
    bare.topology = base.cluster.spec.node.name
    paired = Execution(bare, checks=set()).run(on_bare_machine(ops))
    _compare(
        "single-node-cluster",
        [signature(base.nodes[0])],
        [signature(paired.nodes[0])],
        f"cluster {config.cluster} vs bare {bare.topology}",
    )


def _check_batched_scalar(config: FuzzConfig, ops: List[Op], base: Execution) -> None:
    if not config.cache:
        return
    paired = Execution(config, checks=set(), scalar_cache=True).run(without_faults(ops))
    _compare(
        "batched-scalar-cache",
        [signature(node) for node in base.nodes],
        [signature(node) for node in paired.nodes],
        "batched probe_many/put_many vs scalar probe/put",
    )
    batched, scalar = base.cache.stats, paired.cache.stats
    if batched is not None and batched.as_dict() != scalar.as_dict():
        raise InvariantViolation(
            "batched-scalar-cache",
            f"final stats diverge: batched {batched.as_dict()} vs scalar {scalar.as_dict()}",
        )


def _check_staleness_zero(config: FuzzConfig, ops: List[Op], base: Execution) -> None:
    if not config.cache or config.cache["staleness_ms"] != 0.0:
        return
    paired = Execution(config, checks=set(), null_cache=True).run(without_faults(ops))
    _compare(
        "staleness-zero",
        [signature(node) for node in base.nodes],
        [signature(node) for node in paired.nodes],
        "staleness-0 cache vs never-store reference",
    )
    stats = base.cache.stats
    if stats.hits or stats.inserts or stats.entries or stats.bytes_peak:
        raise InvariantViolation(
            "staleness-zero",
            f"staleness-0 cache stored state: hits={stats.hits} "
            f"inserts={stats.inserts} entries={stats.entries} "
            f"bytes_peak={stats.bytes_peak}",
        )


def _check_fidelity_identity(config: FuzzConfig, ops: List[Op], base: Execution) -> None:
    """Zero pressure => zero fidelity debt => byte-identical serving.

    The controller must be a strict no-op until the SLO policy actually
    reports deadline pressure: when the base run's fidelity episode accrued
    no debt, re-running the identical program with the controller detached
    must produce the same event log and the same per-request completion
    times as today's (fidelity-free) serving.  A debt-free run that still
    diverges means the controller leaked modeled state (fan-out, staleness
    override, EWMA feedback) into an undegraded timeline.
    """
    serving = config.serving
    if not serving or not serving.get("fidelity"):
        return
    report = base.serve_report
    if report is None or report.fidelity is None:
        raise InvariantViolation(
            "fidelity-identity",
            "serving ran with fidelity enabled but reported no fidelity snapshot",
        )
    snapshot = report.fidelity
    if snapshot["debt_score"] == 0.0 and snapshot["degraded_batches"] != 0:
        raise InvariantViolation(
            "fidelity-identity",
            f"zero debt but {snapshot['degraded_batches']} degraded batches",
        )
    if snapshot["debt_score"] != 0.0:
        return  # pressure happened; degradation is allowed to diverge
    detached = FuzzConfig.from_dict(config.as_dict())
    detached.serving = dict(detached.serving)
    detached.serving["fidelity"] = False
    paired = Execution(detached, checks=set()).run(without_faults(ops))
    _compare(
        "fidelity-identity",
        _signatures(base),
        _signatures(paired),
        "debt-free fidelity serving vs fidelity disabled",
    )
    _compare_completions(
        "fidelity-identity", base, paired,
        "debt-free fidelity serving changed request completion times",
    )


def _check_trace_conservation(config: FuzzConfig, ops: List[Op], base: Execution) -> None:
    """The tracer observes the run; it must never change or misreport it.

    Two halves.  *Identity*: re-running the identical program with the
    tracer detached must produce event-for-event identical logs and the
    same per-request completion times -- the tracer is read-only.
    *Conservation*: within the traced run, every span closes, children nest
    inside their parents, each completed request's queue/service spans
    reproduce its reported latency split within ``EPS_MS``.
    """
    serving = config.serving
    if not serving or not serving.get("trace"):
        return
    from ..obs.trace import EPS_MS

    tracer = base.serve_tracer
    report = base.serve_report
    if tracer is None or report is None:
        raise InvariantViolation(
            "trace-conservation",
            "serving ran with trace enabled but produced no tracer/report",
        )
    # -- identity differential ------------------------------------------
    paired = Execution(config, checks=set(), no_trace=True).run(without_faults(ops))
    _compare(
        "trace-conservation",
        _signatures(base),
        _signatures(paired),
        "traced serving vs tracer detached",
    )
    _compare_completions(
        "trace-conservation", base, paired,
        "attaching the tracer changed request completion times",
    )
    # -- span structure --------------------------------------------------
    spans = tracer.spans
    for span in spans:
        if span.end_ms is None:
            raise InvariantViolation(
                "trace-conservation",
                f"span {span.span_id} ({span.name}) was never closed",
            )
        if span.end_ms < span.start_ms - EPS_MS:
            raise InvariantViolation(
                "trace-conservation",
                f"span {span.span_id} ({span.name}) ends before it starts",
            )
        if span.parent_id is not None:
            if not 0 <= span.parent_id < len(spans):
                raise InvariantViolation(
                    "trace-conservation",
                    f"span {span.span_id} has dangling parent {span.parent_id}",
                )
            parent = spans[span.parent_id]
            if (
                span.start_ms < parent.start_ms - EPS_MS
                or span.end_ms > parent.end_ms + EPS_MS
            ):
                raise InvariantViolation(
                    "trace-conservation",
                    f"span {span.span_id} ({span.name}) "
                    f"[{span.start_ms}, {span.end_ms}] escapes its parent "
                    f"{parent.span_id} [{parent.start_ms}, {parent.end_ms}]",
                )
    # -- per-request latency split ---------------------------------------
    queue_spans = {
        span.trace_ids[0]: span
        for span in spans
        if span.category == "queue" and len(span.trace_ids) == 1
    }
    service_spans = {}
    for span in spans:
        if span.category == "service":
            for rid in span.trace_ids:
                service_spans[rid] = span
    for request in report.requests:
        rid = request.request_id
        queue = queue_spans.get(rid)
        service = service_spans.get(rid)
        if queue is None or service is None:
            raise InvariantViolation(
                "trace-conservation",
                f"completed request {rid} lacks a queue or service span",
            )
        if abs(queue.duration_ms - request.queue_ms) > EPS_MS:
            raise InvariantViolation(
                "trace-conservation",
                f"request {rid}: queue span {queue.duration_ms} ms != "
                f"reported queue_ms {request.queue_ms}",
            )
        if abs(service.duration_ms - request.service_ms) > EPS_MS:
            raise InvariantViolation(
                "trace-conservation",
                f"request {rid}: service span {service.duration_ms} ms != "
                f"reported service_ms {request.service_ms}",
            )


# -- the registry -----------------------------------------------------------


def _online_only(config: FuzzConfig, ops: List[Op], base: Execution) -> None:
    """Enforced op by op inside ``Execution.run``; nothing is left to check."""


#: ``(name, description, check(config, ops, base))`` for every invariant, in
#: the order ``check_case`` applies them: the differentials re-run the
#: program *before* the structural finals mutate the base execution (final
#: frees, cache flush).
REGISTRY = (
    ("monotone-clock", "host and node clocks never move backwards", _online_only),
    ("backend-equivalence", "shape and numeric backends emit identical event logs",
     _check_backend_equivalence),
    ("single-node-cluster", "a 1-node cluster is event-identical to the bare machine",
     _check_single_node_cluster),
    ("batched-scalar-cache", "batched cache ops are byte-identical to their scalar forms",
     _check_batched_scalar),
    ("staleness-zero", "a staleness-0 cache is byte-identical to not storing at all",
     _check_staleness_zero),
    ("fidelity-identity", "zero pressure => zero fidelity debt => byte-identical serving",
     _check_fidelity_identity),
    ("trace-conservation", "span arithmetic conserves and detaching the tracer is byte-identical",
     _check_trace_conservation),
    ("stream-intervals", "every stream timeline is disjoint, sorted, non-negative",
     _check_stream_intervals),
    ("telemetry-conservation", "serving reports conserve requests and latency splits",
     _check_telemetry),
    ("cache-conservation", "cache counters and occupancy bookkeeping conserve",
     _check_cache_conservation),
    ("drain-after-sync", "after a barrier nothing is still in flight", _check_final_drain),
    ("memory-pools", "device memory pools never go negative and balance to zero",
     _check_memory_balance),
)

#: Every named invariant ``--check`` accepts, with one-line meanings.
INVARIANTS = {name: description for name, description, _ in REGISTRY}


def check_case(
    config: FuzzConfig,
    ops: List[Op],
    checks: Optional[Iterable[str]] = None,
) -> Execution:
    """Run one program and enforce every applicable selected invariant.

    Returns the finished base execution; raises
    :class:`~repro.fuzz.program.InvariantViolation` on the first breach.
    """
    selected = resolve_checks(checks)
    base = Execution(config, checks=selected).run(ops)
    for name, _, check in REGISTRY:
        if name in selected:
            check(config, ops, base)
    return base
