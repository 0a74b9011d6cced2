"""Base classes shared by the eight profiled DGNN models.

Every model in :mod:`repro.models` follows the same contract:

* it is constructed against a :class:`~repro.hw.machine.Machine` and places
  its weights on the machine's compute device (the GPU when present, the CPU
  otherwise), mirroring how the reference implementations call
  ``model.to(device)``;
* :meth:`DGNNModel.warm_up` performs the GPU warm-up the paper measures in
  Sec. 4.4 (context creation, weight upload, allocation warm-up for the
  batch footprint);
* :meth:`DGNNModel.iteration_batches` yields the units of work the paper
  profiles ("one iteration": a mini-batch of events, one snapshot, one
  t-batch, ... depending on the model);
* ``_forward(batch)`` issues one such unit's work, annotating the machine's
  region stack with the same module names the paper's breakdown figures
  use, so the profiler can reproduce Fig. 7;
* :meth:`DGNNModel.describe` returns the model's Table 1 row.

A model says what an iteration issues; the base owns how it ends: the one
full join :meth:`~DGNNModel.finish_iteration` (after ``inference_iteration``),
a default-stream sync (``compute_iteration``) or a completion event
(``dispatch_iteration``).  Capabilities are declared class flags, and
:func:`require_protocol` is the one refusal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..domain import Domain
from ..graph.events import EventStream
from ..graph.sampling import NeighborhoodSample
from ..hw.device import Device
from ..hw.machine import Machine
from ..hw.stream import StreamEvent
from ..nn.module import Module
from ..tensor import Tensor, meta, ops

#: Table 1 column values.
CONTINUOUS = "continuous"
DISCRETE = "discrete"

# Tapes a model keeps, and tapes a book holds (see ``DGNNModel._replayed``).
# Bounded like the placeholder memo in ``tensor/meta.py``: reset wholesale if
# a pathological workload floods one with shape signatures.
_TAPE_LIMIT = 256
_UNSEEN = object()


def _keep(store: Dict[Hashable, Any], key: Hashable, value: Any) -> None:
    if len(store) >= _TAPE_LIMIT:
        store.clear()
    store[key] = value


def _same_but_name(a: Device, b: Device) -> bool:
    return replace(a.spec, name=b.name) == b.spec


@dataclass(frozen=True)
class ModelCard:
    """One row of the paper's Table 1.

    Attributes:
        name: Model name as used in the paper.
        category: ``"continuous"`` or ``"discrete"`` time.
        evolving_node_features / evolving_edge_features / evolving_topology /
        evolving_weights: Which parts of the graph/model change over time.
        time_encoding: The model's time encoder ("RNN", "time embedding",
            "self-attention", ...).
        tasks: Example tasks the model is applied to.
    """

    name: str
    category: str
    evolving_node_features: bool
    evolving_edge_features: bool
    evolving_topology: bool
    evolving_weights: bool
    time_encoding: str
    tasks: Tuple[str, ...]

    def as_row(self) -> dict:
        return {
            "model": self.name,
            "type": self.category,
            "node_feature": self.evolving_node_features,
            "edge_feature": self.evolving_edge_features,
            "graph_topology": self.evolving_topology,
            "weights": self.evolving_weights,
            "time_encoding": self.time_encoding,
            "tasks": ", ".join(self.tasks),
        }


class DGNNModel(Module):
    """Common machinery for the profiled DGNNs."""

    #: Model name; subclasses override.
    name: str = "dgnn"

    #: Whether :meth:`iteration_batches` yields
    #: :class:`~repro.graph.events.EventStream` slices that can be merged by
    #: concatenation -- the contract the serving layer's dynamic batcher
    #: relies on.  Event-stream models (TGAT, TGN, DyRep, LDG) set this;
    #: models with structured batches (t-batches, snapshots, windows) must
    #: override :meth:`make_request_batch` instead to be servable.
    serves_event_streams: bool = False

    #: Whether the model's request path can consult a staleness-aware
    #: serving cache (see :mod:`repro.cache`); caching models also declare
    #: the entry kinds they populate in :attr:`cache_kinds`.
    supports_caching: bool = False

    #: Entry kinds a caching model populates -- a subset of
    #: ``("embedding", "sample", "memory")``.
    cache_kinds: Tuple[str, ...] = ()

    #: Declared protocols, read as plain attributes: overlap (a host-only
    #: ``prepare_iteration`` whose plan :meth:`compute_iteration` consumes,
    #: see :mod:`repro.optim`) and async dispatch (:meth:`dispatch_iteration`
    #: returns a completion event instead of joining).
    supports_overlap: bool = False
    supports_async_dispatch: bool = False

    #: Serving shape the report names: one model on one device.
    serving_placement: str = "single"
    num_replicas: int = 1

    #: The hyper-parameters and the dataset a model is built from; every
    #: model sets both (they decide whether two models record alike, see
    #: :meth:`join_tape_book`).
    config: Any = None
    dataset: Any = None

    def __init__(self, machine: Machine, device: Optional[Device] = None) -> None:
        super().__init__()
        self.machine = machine
        # The compute device is captured once, at construction time: a model
        # built inside ``with machine.placement(gpu_i):`` (or with an
        # explicit ``device``) stays pinned to that GPU, which is what makes
        # per-replica placement on multi-GPU machines explicit instead of
        # implicitly "the GPU".
        self._compute_device: Device = device if device is not None else machine.compute_device
        #: The attached serving cache (``None`` = uncached request path).
        self.cache: Optional[Any] = None
        #: Adaptive-fidelity fan-out multiplier (1.0 = full quality).  The
        #: serving layer sets this per dispatched batch; sampling models
        #: read it through :meth:`effective_fanout`.
        self._fanout_scale: float = 1.0
        #: Shape signature -> ``(tape, output shape, output device)`` this
        #: model replays, or ``None`` for a signature whose recording failed
        #: the tape's checks and therefore keeps running direct (see
        #: :meth:`_replayed`).
        self._tapes: Dict[Hashable, Optional[tuple]] = {}
        #: Shape signature -> ``(tape, output shape, host name, compute
        #: name)``: the tapes this model and every model that joined its book
        #: recorded and may share (see :meth:`join_tape_book`).
        self._tape_book: Dict[Hashable, tuple] = {}
        self._replay_stats = {"recorded": 0, "replayed": 0, "direct": 0}

    # -- devices -------------------------------------------------------------

    @property
    def compute_device(self) -> Device:
        """Where this model's compute runs (pinned at construction)."""
        return self._compute_device

    @property
    def host_device(self) -> Device:
        """Where graph preprocessing runs (always the CPU)."""
        return self.machine.host_device

    @property
    def uses_gpu(self) -> bool:
        return self._compute_device.is_gpu

    # -- lifecycle ------------------------------------------------------------

    def warm_up(self, batch: Optional[Any] = None) -> None:
        """Perform the GPU warm-up the paper attributes to model initialisation.

        Creates the CUDA context *of this model's compute device*, uploads
        the model weights, and performs the allocation warm-up sized by the
        batch footprint (when a batch is given).  A no-op on CPU-placed
        models; on a multi-GPU machine each replica warms its own GPU.
        """
        if not self._compute_device.is_gpu:
            return
        self.machine.initialize_gpu(model_bytes=self.param_bytes(), device=self._compute_device)
        footprint = self.batch_footprint_bytes(batch) if batch is not None else self.param_bytes()
        self.machine.allocation_warmup(footprint, device=self._compute_device)

    # -- record-and-replay charging ---------------------------------------------

    @property
    def replay_stats(self) -> Dict[str, int]:
        """How the shape backend ran this model's taped call sites so far:
        ``recorded`` once, ``replayed`` from a tape (its own or one a model
        sharing its book recorded), or ``direct``."""
        return dict(self._replay_stats)

    def join_tape_book(self, other: "DGNNModel") -> bool:
        """Share ``other``'s tape book if the two record alike; returns whether.

        Alike means one class, equal ``config``, the same ``dataset`` object,
        and host and compute specs equal but for ``name``: for every shape
        signature the two then issue the same charges on differently named
        devices.  The book holds the tapes its members recorded that name
        only the recorder's host and compute device; a member meeting one
        keeps a copy renamed for its own devices
        (:meth:`~repro.hw.tape.Tape.renamed`).  A tape naming a third device,
        and a failed recording, stay private to the recorder.
        """
        if not (
            type(self) is type(other)
            and self.config == other.config
            and self.dataset is other.dataset
            and _same_but_name(self.host_device, other.host_device)
            and _same_but_name(self._compute_device, other._compute_device)
        ):
            return False
        self._tape_book = other._tape_book
        return True

    def _replayed(self, key: Optional[Hashable], compute: Callable[[], Tensor]) -> Tensor:
        """``compute()``, replayed from a tape when ``key`` was seen before.

        For compute blocks whose kernel/transfer/alloc charges are a pure
        function of ``key`` -- a shape signature -- and that touch no
        Python-side state, so opting in is per call site.  Under the shape
        backend the first call with a key runs ``compute`` under
        :meth:`Machine.record <repro.hw.machine.Machine.record>` and keeps
        the tape; later calls replay it and return a placeholder of the
        recorded output shape.  A key this model has not seen but its tape
        book holds replays that tape, renamed for this model's devices (see
        :meth:`join_tape_book`).  ``key=None`` (the caller saw a reason to run
        direct), an open recording, and a key whose tape failed the
        completeness checks all run ``compute`` as if this helper did not
        exist; the numeric backend never records.
        """
        machine = self.machine
        if not machine.shape_mode:
            return compute()
        stats = self._replay_stats
        tapes = self._tapes
        if key is None or machine.recording:
            known = None
        else:
            known = tapes.get(key, _UNSEEN)
            if known is _UNSEEN:
                known = self._adopted(key)
        if known is None:
            stats["direct"] += 1
            return compute()
        if known is not _UNSEEN:
            tape, shape, device = known
            machine.replay(tape)
            stats["replayed"] += 1
            return Tensor(meta.placeholder(shape), device)
        result, tape = machine.record(compute)
        if tape is None or result.is_tracked:
            _keep(tapes, key, None)
            stats["direct"] += 1
            return result
        _keep(tapes, key, (tape, result.shape, result.device))
        stats["recorded"] += 1
        host, device = self.host_device.name, self._compute_device.name
        if result.device.name == device and tape.devices() <= {host, device}:
            _keep(self._tape_book, key, (tape, result.shape, host, device))
        return result

    def _adopted(self, key: Hashable) -> Any:
        """The book's tape for ``key`` as this model replays it, now kept in
        ``_tapes``; ``_UNSEEN`` when the book has none."""
        entry = self._tape_book.get(key)
        if entry is None:
            return _UNSEEN
        tape, shape, host, device = entry
        names = {host: self.host_device.name, device: self._compute_device.name}
        if any(old != new for old, new in names.items()):
            tape = tape.renamed(names)
        known = (tape, shape, self._compute_device)
        _keep(self._tapes, key, known)
        return known

    # -- interface for subclasses ------------------------------------------------

    def describe(self) -> ModelCard:
        raise NotImplementedError

    def iteration_batches(self) -> Iterator[Any]:
        """Yield the units of work ("iterations") the paper profiles.

        Event-stream models (TGAT, TGN, DyRep, LDG) profile consecutive
        ``config.batch_size``-event slices of their dataset's stream; models
        with structured batches (t-batches, snapshots, windows) override.
        """
        yield from self.dataset.stream.iter_batches(self.config.batch_size)

    def _forward(self, batch: Any) -> Any:
        """Issue one iteration's work, annotating machine regions; never joins."""
        raise NotImplementedError

    # -- how an iteration ends -------------------------------------------------

    def finish_iteration(self) -> None:
        """The one full join ending an iteration (``torch.cuda.synchronize()``)."""
        if self.machine.has_gpu:
            self.machine.synchronize()

    def inference_iteration(self, batch: Any) -> Any:
        """Run one profiled iteration: ``_forward``, then the full join."""
        output = self._forward(batch)
        self.finish_iteration()
        return output

    def compute_iteration(self, batch: Any, plan: Any) -> Any:
        """``_forward`` over a prepared plan, then a sync of the compute device's
        default stream only, so an in-flight sampling stream keeps running."""
        output = self._forward(batch, plan)
        if self.machine.has_gpu:
            self.machine.stream_synchronize(self.machine.default_stream(self.compute_device))
        return output

    def dispatch_iteration(self, batch: Any, plan: Any = None) -> StreamEvent:
        """``_forward`` without joining: returns the event recorded on the compute
        device's default stream, whose ``ready_ms`` is the batch's completion."""
        self._forward(batch, plan)
        stream = self.machine.default_stream(self.compute_device)
        return self.machine.record_event(stream, name=f"{self.name}_dispatched")

    def _event_sequential_iteration(self, batch: EventStream) -> Tensor:
        """One iteration of an event-by-event embedding model (DyRep, LDG).

        The node-embedding table rides along on the compute device for the
        duration of the iteration (one upload, one download), and
        ``_process_event(table, src, dst, timestamp)`` returns the updated
        table plus the event's ``(1, 1)`` output.  Returns the outputs in
        event order.
        """
        device = self.compute_device
        host = self.host_device
        outputs = []
        table = Tensor(self._embeddings, host).to(device, name="node_embeddings")
        for index in range(batch.num_events):
            src = int(batch.src[index])
            dst = int(batch.dst[index])
            timestamp = float(batch.timestamps[index])
            table, output = self._process_event(table, src, dst, timestamp)
            outputs.append(output)
        table_host = table.to(host, name="node_embeddings_out")
        self._embeddings = np.array(table_host.data, copy=True)
        self.finish_iteration()
        return ops.concat(outputs, axis=0) if outputs else Tensor(
            np.zeros((0, 1), dtype=np.float32), device
        )

    def batch_footprint_bytes(self, batch: Any) -> int:
        """Approximate device-memory footprint of one iteration's working set."""
        return self.param_bytes()

    # -- serving adapter -----------------------------------------------------

    def attach_cache(self, cache: Any) -> None:
        """Attach a staleness-aware serving cache to the request path.

        Once attached, every iteration entry point (and the overlap
        protocol's ``prepare_iteration``) consults the cache before
        sampling/compute and feeds it back afterwards: entries touched by the
        batch's incoming events are invalidated, freshly computed rows are
        inserted.  Detach by attaching ``None``.
        """
        if cache is not None and not self.supports_caching:
            raise TypeError(f"{type(self).__name__} does not support request caching")
        self.cache = cache

    def cache_stats(self) -> Optional[Any]:
        """The attached cache's telemetry dict (``None`` when uncached)."""
        return self.cache.stats() if self.cache is not None else None

    @property
    def backfill_targets(self) -> Tuple["DGNNModel", ...]:
        """The models a cache backfill warms: this one."""
        return (self,)

    def _sample(self, nodes: np.ndarray, times: np.ndarray, k: int) -> NeighborhoodSample:
        """One batched neighbourhood query on ``self.sampler``, cache-fronted.

        Without an attached cache this is exactly ``self.sampler.sample``;
        with one, valid cached rows are served and only the miss rows hit
        the sampler (charging its CPU cost for those rows alone).
        """
        if self.cache is not None:
            return self.cache.sample(self.sampler, nodes, times, k)
        return self.sampler.sample(nodes, times, k)

    def set_fanout_scale(self, scale: float) -> None:
        """Scale per-layer neighbour fan-out (adaptive-fidelity lever 1).

        ``scale`` multiplies the configured neighbour count at every
        sampling site; 1.0 restores full quality.  The serving layer calls
        this per dispatched batch, so it must stay cheap and side-effect
        free beyond the stored scale.
        """
        Domain(0, 1, lo_open=True).check("fan-out scale", scale)
        self._fanout_scale = scale

    def effective_fanout(self, num_neighbors: int) -> int:
        """The fan-out sampling should use under the current fidelity scale.

        At scale 1.0 this is exactly ``num_neighbors`` (the untouched
        full-quality path); degraded scales floor at one neighbour so the
        aggregation still has support.
        """
        if self._fanout_scale >= 1.0:
            return num_neighbors
        return max(1, int(num_neighbors * self._fanout_scale))

    def make_request_batch(self, payloads: Sequence[Any]) -> Any:
        """Merge per-request payloads into one iteration batch.

        The online serving layer (:mod:`repro.serve`) hands each request a
        small slice of work (for event-stream models: a few interaction
        events) and dynamically batches queued requests into a single
        :meth:`inference_iteration` unit.  The default implementation merges
        :class:`~repro.graph.events.EventStream` slices by concatenation,
        which covers every model whose ``iteration_batches`` yields event
        streams (TGAT, TGN, ...); models with other batch types (t-batches,
        snapshots) must override this to be servable.
        """
        if (
            self.serves_event_streams
            and payloads
            and all(isinstance(p, EventStream) for p in payloads)
        ):
            return EventStream.concat(list(payloads))
        raise TypeError(
            f"{type(self).__name__} cannot merge request payloads of type "
            f"{[type(p).__name__ for p in payloads]}; override "
            "make_request_batch to serve this model"
        )


def require_protocol(model: Any, protocol: str, refusal: str) -> None:
    """Raise the one refusal unless ``model`` declares ``"overlap"``/``"async dispatch"``."""
    if protocol == "overlap":
        declared, methods = model.supports_overlap, "prepare_iteration/compute_iteration"
    else:
        declared, methods = model.supports_async_dispatch, "dispatch_iteration"
    if not declared:
        raise TypeError(
            f"{type(model).__name__} does not implement the {protocol} protocol "
            f"({methods}); {refusal}"
        )
