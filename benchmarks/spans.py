"""Outside-in layer tracing for the benchmark's traced pass.

Nothing under ``src/`` knows about this file.  :func:`install` replaces the
public callables at each layer boundary (class attributes, and module
attributes wherever a ``repro.*`` module holds a reference to the function)
with timing wrappers; :func:`Recorder.uninstall` puts the originals back.
A *layer* is a package under ``src/repro/``.

Two kinds of span are recorded on the host clock (``time.perf_counter``):

* **kept** spans -- serving calls, model iterations (one per batch) and the
  trace export/analysis calls -- are stored in full: id, parent kept span,
  layer, name, start, end, self time and a per-name ordinal (the batch or
  iteration number);
* **leaf** calls -- ``hw``, ``tensor``, per-key ``cache`` and the other
  high-frequency boundaries -- are aggregated per (layer, function, parent
  kept span) as count + inclusive + self time, so half a million calls
  never sit in memory.

A span's self time is its duration minus the durations of its direct child
spans, so the per-layer self times partition the traced wall time; what is
left over (workload glue, numpy/stdlib time outside any boundary) is
reported as ``other``.  Wrapper cost between a parent's and a child's clock
reads lands in the parent's self time -- ``trace_overhead_ratio`` says how
much of it there is.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

LAYERS = (
    "hw", "tensor", "nn", "models", "graph", "cache", "serve", "obs", "core", "datasets",
)

_ITERATION_METHODS = (
    "inference_iteration", "prepare_iteration", "compute_iteration", "dispatch_iteration",
)
_POLICY_METHODS = ("select_batch_size", "next_deadline_ms", "observe")
_ROUTER_METHODS = ("route", "notify_dispatch", "notify_complete")

#: ``(layer, "module:Class", methods, kept)`` -- a method is wrapped on every
#: listed class that defines it itself (``super()`` calls nest as child spans).
CLASS_TARGETS: Tuple[Tuple[str, str, Tuple[str, ...], bool], ...] = (
    ("hw", "repro.hw.machine:Machine", (
        "launch_kernel", "launch_kernels", "host_work", "transfer", "synchronize",
        "device_synchronize", "stream_synchronize", "record_event", "wait_event",
        "alloc", "free", "initialize_gpu"), False),
    ("hw", "repro.hw.cluster:Cluster", ("transfer", "synchronize", "sync_node"), False),
    ("tensor", "repro.tensor.tensor:Tensor", ("to",), False),
    ("nn", "repro.nn.module:Module", ("__call__",), False),
    ("graph", "repro.graph.sampling:TemporalNeighborSampler", ("sample",), False),
    ("graph", "repro.graph.events:EventStream", ("concat", "slice_indices"), False),
    ("cache", "repro.cache.store:DeviceResidentCache", (
        "probe", "probe_many", "put", "put_many", "invalidate", "flush",
        "flush_charges"), False),
    ("cache", "repro.cache.model_cache:ModelCache", (
        "lookup_embeddings", "store_embeddings", "sample", "lookup_memory",
        "store_memory_rows", "observe_events", "invalidate_nodes"), False),
    ("serve", "repro.serve.server:InferenceServer", ("serve",), True),
    ("serve", "repro.serve.scaleout:ScaleOutServer", ("serve",), True),
    ("serve", "repro.serve.cluster:ClusterServer", ("serve",), True),
    ("serve", "repro.serve.policy:SchedulerPolicy", _POLICY_METHODS, False),
    ("serve", "repro.serve.policy:FIFOPolicy", _POLICY_METHODS, False),
    ("serve", "repro.serve.policy:TimeoutBatchingPolicy", _POLICY_METHODS, False),
    ("serve", "repro.serve.policy:SLOAwarePolicy", _POLICY_METHODS, False),
    ("serve", "repro.serve.router:Router", _ROUTER_METHODS, False),
    ("serve", "repro.serve.router:RoundRobinRouter", _ROUTER_METHODS, False),
    ("serve", "repro.serve.router:JoinShortestQueueRouter", _ROUTER_METHODS, False),
    ("serve", "repro.serve.router:LeastLatencyRouter", _ROUTER_METHODS, False),
    ("obs", "repro.obs.trace:Tracer", (
        "span", "open_span", "close_span", "instant", "record_slice", "nic_span",
        "bind"), False),
    ("core", "repro.core.profiler:Profiler", ("capture",), False),
) + tuple(
    ("models", f"repro.models.{module}:{cls}", methods, kept)
    for module, cls in (
        ("base", "DGNNModel"), ("jodie", "JODIE"), ("tgn", "TGN"),
        ("evolvegcn", "EvolveGCN"), ("tgat", "TGAT"), ("astgnn", "ASTGNN"),
        ("dyrep", "DyRep"), ("ldg", "LDG"), ("moldgnn", "MolDGNN"),
    )
    for methods, kept in (
        (_ITERATION_METHODS, True), (("make_request_batch", "warm_up"), False),
    )
)

#: ``(layer, module, names or None for every public function, kept)``.
FUNCTION_TARGETS: Tuple[Tuple[str, str, Optional[Tuple[str, ...]], bool], ...] = (
    ("tensor", "repro.tensor.ops", None, False),
    ("serve", "repro.serve.workload", ("generate_requests",), False),
    ("obs", "repro.obs.metrics", ("record_dispatch", "record_completion"), False),
    ("obs", "repro.obs.export", ("build_trace", "validate_trace"), True),
    ("obs", "repro.obs.critical_path", ("attribute_request",), True),
    ("core", "repro.core.breakdown", ("compute_breakdown",), False),
    ("core", "repro.core.bottlenecks", ("analyze_profile",), False),
    ("datasets", "repro.datasets.registry", ("load",), False),
)

#: Extra per-call unit counts taken from the arguments (``self`` included).
UNITS: Dict[str, Callable[[tuple], int]] = {
    "TemporalNeighborSampler.sample": lambda args: len(args[1]),
}

ROOT = 0  # id of the implicit root span (the measured phase itself)


class Recorder:
    """Span state of one traced phase plus the installed-wrapper ledger."""

    def __init__(self) -> None:
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Child-time accumulators of the open spans; ``[0]`` is the root.
        self.stack: List[List[float]] = []
        #: Ids of the open kept spans, innermost last.
        self.kept_open: List[int] = []
        #: ``[id, parent, layer, name, start, end, self_s, ordinal]`` rows.
        self.kept: List[list] = []
        #: ``(layer, name, parent kept id) -> [calls, inclusive_s, self_s, units]``.
        self.leaf: Dict[Tuple[str, str, int], List[float]] = {}
        self._ordinals: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (wrappers stay installed).

        The containers are emptied in place: the wrappers hold references to
        them so that a call pays no attribute lookups.
        """
        self.stack[:] = [[0.0]]
        self.kept_open[:] = [ROOT]
        self.kept.clear()
        self.leaf.clear()
        self._ordinals.clear()
        self.started = perf_counter()

    # -- wrappers ----------------------------------------------------------

    def _leaf_wrapper(self, fn: Callable, layer: str, name: str) -> Callable:
        units = UNITS.get(name)
        stack, kept_open, leaf = self.stack, self.kept_open, self.leaf

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                key = (layer, name, kept_open[-1])
                slot = leaf.get(key)
                if slot is None:
                    slot = leaf[key] = [0, 0.0, 0.0, 0]
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - frame[0]
                if units is not None:
                    slot[3] += units(args)

        return wrapper

    def _kept_wrapper(self, fn: Callable, layer: str, name: str) -> Callable:
        stack = self.stack

        def wrapper(*args, **kwargs):
            ordinal = self._ordinals.get(name, 0)
            self._ordinals[name] = ordinal + 1
            row = [len(self.kept) + 1, self.kept_open[-1], layer, name, 0.0, 0.0, 0.0, ordinal]
            self.kept.append(row)
            self.kept_open.append(row[0])
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stack[-1][0] += end - start
                self.kept_open.pop()
                row[4] = start - self.started
                row[5] = end - self.started
                row[6] = end - start - frame[0]

        return wrapper

    def _context_wrapper(self, fn: Callable, layer: str, name: str) -> Callable:
        """Time the enter and exit halves of a context-manager factory.

        The body between them belongs to whoever opened the context, so it
        must not count as this layer's time.
        """
        timed_enter = self._leaf_wrapper(lambda cm: cm.__enter__(), layer, name)
        timed_exit = self._leaf_wrapper(lambda cm, *exc: cm.__exit__(*exc), layer, name)

        class Timed:
            def __init__(self, cm: Any) -> None:
                self.cm = cm

            def __enter__(self) -> Any:
                return timed_enter(self.cm)

            def __exit__(self, *exc) -> Any:
                return timed_exit(self.cm, *exc)

        def wrapper(*args, **kwargs):
            return Timed(fn(*args, **kwargs))

        return wrapper

    def _wrap(self, attr: Any, layer: str, name: str, kept: bool) -> Any:
        make = self._kept_wrapper if kept else self._leaf_wrapper
        if isinstance(attr, (classmethod, staticmethod)):
            return type(attr)(make(attr.__func__, layer, name))
        if hasattr(attr, "__wrapped__") and inspect.isgeneratorfunction(attr.__wrapped__):
            return self._context_wrapper(attr, layer, name)
        return make(attr, layer, name)

    def _patch(self, owner: Any, attr_name: str, replacement: Any) -> None:
        self._patched.append((owner, attr_name, owner.__dict__[attr_name]))
        setattr(owner, attr_name, replacement)

    # -- install / uninstall -----------------------------------------------

    def install(self) -> "Recorder":
        if self._patched:
            raise RuntimeError("span wrappers are already installed")
        for layer, path, methods, kept in CLASS_TARGETS:
            module_name, class_name = path.split(":")
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                if method in cls.__dict__:
                    label = f"{class_name}.{method}"
                    self._patch(cls, method, self._wrap(cls.__dict__[method], layer, label, kept))
        for layer, module_name, names, kept in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            if names is None:
                names = tuple(
                    name for name, value in vars(module).items()
                    if inspect.isfunction(value) and value.__module__ == module_name
                    and not name.startswith("_")
                )
            for name in names:
                original = getattr(module, name)
                wrapped = self._wrap(original, layer, name, kept)
                # ``from x import f`` copies the reference, so replace it in
                # every repro module that holds one, not just the defining one.
                for holder_name, holder in list(sys.modules.items()):
                    if holder is None or not holder_name.startswith("repro"):
                        continue
                    for attr_name, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr_name, wrapped)
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr_name, original = self._patched.pop()
            setattr(owner, attr_name, original)

    # -- results -----------------------------------------------------------

    def finish(self, root_wall_s: float) -> "Trace":
        """Freeze the recorded phase into a :class:`Trace`."""
        return Trace(root_wall_s, [list(row) for row in self.kept], dict(self.leaf))


class Trace:
    """One traced phase: kept spans, leaf aggregates and the layer table."""

    def __init__(
        self,
        wall_s: float,
        kept: List[list],
        leaf: Dict[Tuple[str, str, int], List[float]],
    ) -> None:
        self.wall_s = wall_s
        self.kept = kept
        self.leaf = leaf
        #: ``(layer, name) -> [calls, inclusive_s, self_s, units]`` over both
        #: kinds of span, so a metric lookup never walks the per-batch rows.
        self.by_name: Dict[Tuple[str, str], List[float]] = {}
        for (layer, name, _), slot in leaf.items():
            self._add(layer, name, slot)
        for row in kept:
            self._add(row[2], row[3], [1, row[5] - row[4], row[6], 0])

    def _add(self, layer: str, name: str, slot: Sequence[float]) -> None:
        merged = self.by_name.setdefault((layer, name), [0, 0.0, 0.0, 0])
        for column in range(4):
            merged[column] += slot[column]

    def rows(self, layer: str, names: Optional[Sequence[str]] = None) -> List[List[float]]:
        """``[calls, inclusive_s, self_s, units]`` of every matching boundary.

        A name matches in full (``Machine.alloc``) or by its last part
        (``alloc``).
        """
        wanted = None if names is None else set(names)
        return [
            slot for (row_layer, name), slot in self.by_name.items()
            if row_layer == layer
            and (wanted is None or name in wanted or name.split(".")[-1] in wanted)
        ]

    def total(self, layer: str, names: Optional[Sequence[str]] = None, column: int = 2) -> float:
        """Sum one column (0 calls, 1 inclusive, 2 self, 3 units) over :meth:`rows`."""
        return sum(row[column] for row in self.rows(layer, names))

    def layer_table(self) -> List[Dict[str, Any]]:
        """Self seconds and share of the traced wall per layer, plus ``other``."""
        table = []
        covered = 0.0
        for layer in LAYERS:
            self_s = self.total(layer)
            covered += self_s
            table.append({
                "layer": layer,
                "calls": int(self.total(layer, column=0)),
                "self_s": self_s,
                "share": self_s / self.wall_s if self.wall_s > 0 else 0.0,
            })
        other = self.wall_s - covered
        table.append({
            "layer": "other",
            "calls": 0,
            "self_s": other,
            "share": other / self.wall_s if self.wall_s > 0 else 0.0,
        })
        return table

    def as_payload(self) -> Dict[str, Any]:
        """JSON form written to ``results/spans-<workload>.json``."""
        # One row per parent span *name*: a row per batch would make the file
        # as long as the call log the aggregation exists to avoid.
        by_parent_name: Dict[Tuple[str, str, str], List[float]] = {}
        for (layer, name, parent), slot in self.leaf.items():
            parent_name = self.kept[parent - 1][3] if parent != ROOT else "root"
            merged = by_parent_name.setdefault((layer, name, parent_name), [0, 0.0, 0.0])
            for column in range(3):
                merged[column] += slot[column]
        leaf_rows = [
            [layer, name, parent_name, int(slot[0]), round(slot[1], 6), round(slot[2], 6)]
            for (layer, name, parent_name), slot in sorted(by_parent_name.items())
        ]
        kept_rows = [
            [row[0], row[1], row[2], row[3], round(row[4], 6), round(row[5], 6),
             round(row[6], 6), row[7]]
            for row in self.kept
        ]
        return {
            "clock": "host perf_counter seconds from the start of the traced phase",
            "wall_s": self.wall_s,
            "layers": self.layer_table(),
            "kept_columns": [
                "id", "parent", "layer", "name", "start_s", "end_s", "self_s", "ordinal"],
            "kept": kept_rows,
            "leaf_columns": ["layer", "name", "parent", "calls", "inclusive_s", "self_s"],
            "leaf": leaf_rows,
        }
