"""The simulated machine: host CPU, its GPUs, and the links connecting them.

The :class:`Machine` is the execution context every other layer talks to.
Tensor operators (:mod:`repro.tensor`) ask it to launch kernels and schedule
transfers; the graph samplers charge CPU preprocessing work to it; models ask
it for the preferred compute device; and the profiler (:mod:`repro.core`)
reads its event log, device timelines and memory pools.

What a charge means -- streams, blocking vs non-blocking copies, multi-GPU
routes, node clocks, the serving fast-forward, execution backends and cache
charging -- is written once, in ``docs/ARCHITECTURE.md`` (layer 1,
"Scheduling semantics").  What this module adds to that is *where* a charge
happens:

* A machine is built from one :class:`~repro.hw.spec.MachineSpec` (or its
  preset name); the spec's ``__post_init__`` is the only validation.
* Every charge that occupies a stream goes through one of two primitives,
  selected by run length.  :meth:`Machine._charge` is the scalar one: reserve
  a stream from a ready time for a duration, move the host to the interval's
  end when the issue blocks, count, and log through :meth:`Machine._emit`.
  ``launch_kernel``, ``host_work``, every ``transfer`` hop, both warm-ups and
  the hops of :meth:`Cluster.transfer <repro.hw.cluster.Cluster.transfer>`
  are written on top of it; each caller keeps only what differs -- which
  stream, from when, and whether the host pays an issue overhead *before*
  reserving (kernels) or *after* (non-blocking copies).
  :meth:`Machine._charge_kernel_run` is the run primitive behind
  ``launch_kernels`` and tape replay (:mod:`repro.hw.tape`), byte-identical
  to one scalar launch per row.
* The four synchronisations are one :meth:`Machine._join`: move the host to
  ``max(now, until)`` and log the wait.
* Memory events occupy no stream.  :meth:`Machine.alloc` / :meth:`Machine.free`
  log one each through ``_emit``; :meth:`Machine.memory_run` is their run form
  (the pool acts inside the block, the events are logged when it closes).
* Those three -- ``_emit``, ``_charge_kernel_run`` and ``memory_run`` -- are
  the only places a row is appended to the log (:mod:`repro.hw.events`), each
  after the ``Event`` constructor's checks.  A charge is a command: it
  returns nothing, and what it did is read back from :attr:`Machine.events`.
* The machine never branches on the execution backend; :attr:`shape_mode`
  lets the tensor/model layers pick their data representation.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import replace as _spec_replace
from itertools import repeat
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from . import tape as _tape
from .device import Device
from .events import (
    ALLOC,
    FREE,
    KERNEL,
    MARKER,
    SYNC,
    TRANSFER,
    WARMUP,
    EventLog,
    check_event,
)
from .link import Link
from .spec import MachineSpec, machine_spec
from .stream import COPY_STREAM, Stream, StreamEvent
from .topology import Topology

_ACTIVE_MACHINE: List["Machine"] = []


class NoActiveMachineError(RuntimeError):
    """Raised when an operation needs a machine but none is active."""


def current_machine() -> "Machine":
    """The innermost active machine (see :meth:`Machine.activate`)."""
    if not _ACTIVE_MACHINE:
        raise NoActiveMachineError(
            "no active Machine; wrap the computation in `with machine.activate():`"
        )
    return _ACTIVE_MACHINE[-1]


def has_active_machine() -> bool:
    return bool(_ACTIVE_MACHINE)


def active_machine_or_none() -> Optional["Machine"]:
    """The innermost active machine, or ``None`` (hot-path accessor).

    Equivalent to ``current_machine() if has_active_machine() else None``
    in a single call; tensor operators use it on every kernel launch.
    """
    return _ACTIVE_MACHINE[-1] if _ACTIVE_MACHINE else None


class Machine:
    """A host CPU, its GPU complement, and the links connecting them."""

    def __init__(
        self,
        spec: Union[str, MachineSpec] = "1xA6000",
        strict_memory: bool = False,
        record_events: bool = True,
        backend: str = "numeric",
    ) -> None:
        if backend not in ("numeric", "shape"):
            raise ValueError(
                f"unknown execution backend {backend!r}; choose 'numeric' or 'shape'"
            )
        #: What the machine is made of: a preset name (``"1xA6000"`` is the
        #: paper's Xeon 6226R + RTX A6000, ``"4xA100-nvlink"``, ...) resolved
        #: through :func:`~repro.hw.spec.machine_spec`, or a spec instance.
        self.spec = spec = machine_spec(spec)
        gpu_spec, num_gpus = spec.gpu, spec.num_gpus
        self.cpu = Device(spec.cpu, strict_memory=strict_memory)
        gpus: List[Device] = []
        for index in range(num_gpus):
            device_spec = (
                gpu_spec
                if num_gpus == 1
                else _spec_replace(gpu_spec, name=f"{gpu_spec.name}:{index}")
            )
            gpus.append(Device(device_spec, strict_memory=strict_memory))
        self.gpus: Tuple[Device, ...] = tuple(gpus)
        self.topology = Topology(
            self.cpu, self.gpus, spec.host_link, peer_link_spec=spec.peer_link
        )
        self.events = EventLog()
        #: The log's row list: :meth:`_emit`, :meth:`_charge_kernel_run` and
        #: :meth:`memory_run` append to it, nothing else does.
        self._log = self.events.rows
        #: Whether simulated actions are recorded in :attr:`events`.
        #: Scheduling, timelines, memory pools and the host clock are
        #: identical either way; disabling recording only skips building the
        #: profiler's event stream, making detailed profiling an opt-in cost.
        self.record_events = record_events
        #: Execution backend: ``"numeric"`` or ``"shape"``.
        self.backend = backend
        #: Hot-path boolean the tensor/model layers branch on; the machine's
        #: own scheduling never consults it.
        self.shape_mode = backend == "shape"
        self._host_time = 0.0
        #: Count of simulated actions (kernels, transfers, syncs, ...);
        #: maintained even when event recording is off so throughput
        #: metrics (events/sec) stay available.
        self._event_count = 0
        self._region_stack: List[str] = []
        #: Interned copy of the region stack as a tuple.  Every event used
        #: to build a fresh tuple from the stack; the cached tuple changes
        #: only when a region is entered or left, so all events issued in
        #: one region share one tuple object.
        self._region_tuple: tuple = ()
        #: Names of GPUs whose context has been created (warm-up is per GPU).
        self._ready_gpus: set = set()
        #: Device the :attr:`compute_device` property currently resolves to
        #: (see :meth:`placement`); ``None`` means "first GPU, else CPU".
        self._placement_override: Optional[Device] = None
        #: Per-resource current-stream overrides (see :meth:`use_stream`).
        self._current_streams: Dict[str, Stream] = {}
        #: Running per-device FLOP totals, updated on every kernel launch so
        #: the profiler can read O(1) deltas instead of rescanning the log.
        self._device_flops: Dict[str, float] = {d.name: 0.0 for d in self.devices}
        #: The open recording (see :meth:`record`), or ``None``.
        self._tape: Optional[_tape.Tape] = None

    # -- construction helpers -------------------------------------------

    @classmethod
    def cpu_gpu(cls, **kwargs) -> "Machine":
        """The paper's default Xeon 6226R + RTX A6000 configuration."""
        return cls("1xA6000", **kwargs)

    @classmethod
    def cpu_only(cls, **kwargs) -> "Machine":
        """A machine without a GPU (the paper's CPU-only baseline runs)."""
        return cls("cpu-only", **kwargs)

    @classmethod
    def from_spec(cls, spec: Union[str, MachineSpec], **kwargs) -> "Machine":
        """``Machine(spec, ...)`` under the name the call sites use."""
        return cls(spec, **kwargs)

    # -- device selection -----------------------------------------------

    @property
    def has_gpu(self) -> bool:
        return bool(self.gpus)

    @property
    def num_gpus(self) -> int:
        return len(self.gpus)

    @property
    def gpu(self) -> Optional[Device]:
        """The first GPU (the seed's "the GPU"), or ``None`` on CPU-only."""
        return self.gpus[0] if self.gpus else None

    @property
    def host_device(self) -> Device:
        """The device where host-side preprocessing (sampling, batching) runs."""
        return self.cpu

    @property
    def compute_device(self) -> Device:
        """The preferred device for model compute.

        By default the first GPU (the CPU when there is none); inside a
        :meth:`placement` context, the pinned device.  Models capture this at
        construction time, so replicas built under different placements keep
        computing on their own GPUs afterwards.
        """
        if self._placement_override is not None:
            return self._placement_override
        return self.gpus[0] if self.gpus else self.cpu

    @contextlib.contextmanager
    def placement(self, device: Union[Device, str]) -> Iterator[Device]:
        """Pin :attr:`compute_device` to ``device`` for the duration.

        The multi-GPU serving layer builds each model replica inside
        ``with machine.placement(machine.gpus[i]):`` so the replica's weights
        and kernels land on GPU ``i`` without every model constructor growing
        a device argument.
        """
        if isinstance(device, str):
            device = self.device(device)
        previous = self._placement_override
        self._placement_override = device
        try:
            yield device
        finally:
            self._placement_override = previous

    def device(self, name: str) -> Device:
        """Look a device up by name or kind (``"cpu"``/``"gpu"``/``"gpu:i"``)."""
        if name in (self.cpu.name, "cpu"):
            return self.cpu
        if self.gpus:
            if name == "gpu":
                return self.gpus[0]
            if name.startswith("gpu:"):
                index = name[4:]
                if index.isdecimal() and int(index) < len(self.gpus):
                    return self.gpus[int(index)]
                raise KeyError(f"unknown device {name!r} on this machine")
            for gpu in self.gpus:
                if name == gpu.name:
                    return gpu
        raise KeyError(f"unknown device {name!r} on this machine")

    @property
    def devices(self) -> Sequence[Device]:
        return (self.cpu, *self.gpus)

    # -- links ------------------------------------------------------------

    @property
    def link(self) -> Link:
        """The primary host<->GPU link (the seed's single PCIe link)."""
        return self.topology.primary_link

    @property
    def links(self) -> Tuple[Link, ...]:
        """Every link of the topology (host links, then peer links)."""
        return self.topology.links

    # -- streams ---------------------------------------------------------

    def stream(self, device: Union[Device, str], name: str) -> Stream:
        """A named execution stream on ``device`` (created on first use).

        ``device`` may be a :class:`Device`, a device name, or the kinds
        ``"cpu"``/``"gpu"``.
        """
        if isinstance(device, str):
            device = self.device(device)
        return device.stream(name)

    def default_stream(self, device: Union[Device, str]) -> Stream:
        if isinstance(device, str):
            device = self.device(device)
        return device.default_stream

    def current_stream(self, resource: Union[Device, Link, str]) -> Stream:
        """The stream work is currently issued onto for ``resource``.

        ``resource`` may be a :class:`Device`, a :class:`Link`, a device
        name/kind, or any link's name.
        """
        if isinstance(resource, str):
            link = self.topology.link_named(resource)
            resource = link if link is not None else self.device(resource)
        override = self._current_streams.get(resource.name)
        return override if override is not None else resource.default_stream

    @contextlib.contextmanager
    def use_stream(self, stream: Stream) -> Iterator[Stream]:
        """Issue subsequent work on ``stream``'s resource onto ``stream``.

        The simulator's analogue of ``with torch.cuda.stream(s):``.  Nesting
        is allowed; the innermost context wins for its resource.
        """
        if self._tape is not None:
            self._tape.usable = False
        resource = stream.resource
        previous = self._current_streams.get(resource)
        self._current_streams[resource] = stream
        try:
            yield stream
        finally:
            if previous is None:
                self._current_streams.pop(resource, None)
            else:
                self._current_streams[resource] = previous

    # -- event emission ---------------------------------------------------

    def _emit(
        self,
        kind: str,
        name: str,
        resource: str,
        start_ms: float,
        end_ms: float,
        nbytes: int = 0,
        stream: str = "",
        src: str = "",
        dst: str = "",
        flops: float = 0.0,
    ) -> None:
        """Count one simulated action and log its row when recording is on."""
        self._event_count += 1
        if not self.record_events:
            return
        check_event(kind, name, start_ms, end_ms)
        row = (
            kind, name, resource, start_ms, end_ms, flops, nbytes, self._region_tuple, src, dst,
            stream,
        )
        self._log.append(row)

    def _charge(
        self,
        kind: str,
        name: str,
        resource: str,
        target: Stream,
        ready_ms: float,
        duration_ms: float,
        blocking: bool,
        nbytes: int = 0,
        src: str = "",
        dst: str = "",
        flops: float = 0.0,
    ) -> float:
        """The scalar charge: occupy ``target``, log it, return the interval's end.

        Reserves ``duration_ms`` on ``target`` from ``ready_ms`` (behind what
        the stream already holds) and, when the issue blocks, moves the host
        to the interval's end.  An asynchronous issuer pays its own host
        overhead around the call -- before it for a kernel, whose ``ready_ms``
        is the host clock, after it for a copy, whose ``ready_ms`` is not.
        A run of kernels goes through :meth:`_charge_kernel_run` instead.
        """
        interval = target.reserve(ready_ms, duration_ms)
        end_ms = interval.end_ms
        if blocking:
            self._host_time = end_ms
        self._emit(
            kind, name, resource, interval.start_ms, end_ms, nbytes, target.name, src, dst, flops
        )
        return end_ms

    def _join(self, name: str, resource: str, until_ms: float, stream: str = "") -> None:
        """Block the host until ``until_ms`` (no-op when already past it)."""
        start = self._host_time
        end = max(start, until_ms)
        self._host_time = end
        self._emit(SYNC, name, resource, start, end, 0, stream)

    # -- stream events ----------------------------------------------------

    def record_event(self, stream: Stream, name: str = "event") -> StreamEvent:
        """Record a completion marker on ``stream`` (``cudaEventRecord``)."""
        event = stream.record_event(self._host_time, name=name)
        now = self._host_time
        self._emit(MARKER, f"record:{name}", stream.resource, now, now, 0, stream.name)
        return event

    def wait_event(self, stream: Stream, event: StreamEvent) -> None:
        """Make work issued to ``stream`` after this call wait for ``event``."""
        stream.wait_event(event)
        now = self._host_time
        self._emit(MARKER, f"wait:{event.name}", stream.resource, now, now, 0, stream.name)

    # -- activation ------------------------------------------------------

    @contextlib.contextmanager
    def activate(self) -> Iterator["Machine"]:
        """Make this machine the ambient execution context for tensor ops."""
        _ACTIVE_MACHINE.append(self)
        try:
            yield self
        finally:
            _ACTIVE_MACHINE.pop()

    # -- time ------------------------------------------------------------

    @property
    def host_time_ms(self) -> float:
        """Current simulated time as observed by the host thread."""
        return self._host_time

    def advance_host(self, duration_ms: float) -> None:
        """Advance the host cursor by a pure-host cost (Python overhead etc.)."""
        if not 0 <= duration_ms < math.inf:
            raise ValueError("duration must be non-negative and finite")
        if self._tape is not None:
            self._tape.usable = False
        self._host_time += duration_ms

    # -- regions ----------------------------------------------------------

    @contextlib.contextmanager
    def region(self, label: str) -> Iterator[None]:
        """Annotate all events issued inside the block with ``label``.

        Regions nest; the full stack is attached to each event so the
        profiler can aggregate at any granularity (outer phase such as
        "iteration", or inner module such as "Sampling").
        """
        self._region_stack.append(label)
        self._region_tuple = tuple(self._region_stack)
        try:
            yield
        finally:
            self._region_stack.pop()
            self._region_tuple = tuple(self._region_stack)

    @property
    def current_region(self) -> tuple:
        return self._region_tuple

    # -- record and replay (see repro.hw.tape) ------------------------------

    @property
    def recording(self) -> bool:
        """Whether a :meth:`record` block is open."""
        return self._tape is not None

    def record(self, block: Callable[[], Any]) -> Tuple[Any, Optional[_tape.Tape]]:
        """Run ``block()`` while taping its kernel/transfer/alloc charges.

        Returns ``(result, tape)``; ``tape`` is ``None`` when the block did
        anything a tape cannot reproduce, and then it must keep running direct.
        """
        return _tape.record(self, block)

    def replay(self, tape: _tape.Tape) -> None:
        """Re-issue a recorded tape, byte-identical to re-running its block."""
        _tape.replay(self, tape)

    # -- kernels -----------------------------------------------------------

    def _resolve_kernel_stream(self, device: Device, stream: Optional[Stream]) -> Stream:
        """The stream a kernel launch or host work item targets.

        An explicit ``stream`` is validated against the device; otherwise the
        machine's current-stream override for the device wins, falling back
        to the device's default stream.
        """
        if stream is not None:
            if stream.resource != device.name:
                raise ValueError(
                    f"stream {stream.name!r} belongs to {stream.resource!r}, "
                    f"not to device {device.name!r}"
                )
            return stream
        target = self._current_streams.get(device.name)
        return target if target is not None else device.default_stream

    def _charge_kernel_run(
        self,
        device: Device,
        stream: Optional[Stream],
        names: Sequence[str],
        flops: Sequence[float],
        sizes: Sequence[int],
        durations: Sequence[float],
        regions: Iterable[Tuple[str, ...]],
    ) -> None:
        """Charge kernels launched back to back on one device, as columns.

        The one run charger behind :meth:`launch_kernels` and tape replay
        (:mod:`repro.hw.tape`), byte-identical to one :meth:`launch_kernel`
        per row: what the launches share -- the stream, the lazy GPU warm-up,
        the host overhead, the kind check -- is resolved once, the stream
        reserves the whole run in one call, and the rows are zipped from the
        columns in one pass (``reserve_run`` has already refused a negative
        duration, so no row ends before it starts).  A launch that is not
        asynchronous (CPU default stream) runs the host to each kernel's end
        instead of paying the overhead.
        """
        target = self._resolve_kernel_stream(device, stream)
        is_gpu = device.is_gpu
        if is_gpu and device.name not in self._ready_gpus:
            self.initialize_gpu(model_bytes=0, device=device)
        starts, ends, self._host_time = target.reserve_run(
            self._host_time,
            device.spec.host_overhead_us * 1e-3,
            durations,
            blocking=not is_gpu and target.is_default,
        )
        resource = device.name
        # Repeated ``+=``: ``flops * count`` rounds differently.
        total = self._device_flops.get(resource, 0.0)
        for value in flops:
            total += value
        self._device_flops[resource] = total
        self._event_count += len(starts)
        if not self.record_events:
            return
        check_event(KERNEL)
        self._log.extend(
            zip(
                repeat(KERNEL), names, repeat(resource), starts, ends, flops, sizes, regions,
                repeat(""), repeat(""), repeat(target.name),
            )
        )

    def launch_kernel(
        self,
        device: Device,
        name: str,
        flops: float,
        bytes_moved: float,
        stream: Optional[Stream] = None,
    ) -> None:
        """Launch a compute kernel on ``device`` and record the event.

        The kernel queues on ``stream`` (the device's *current* stream when
        omitted).  GPU kernels are always asynchronous: the host pays only
        the launch-call overhead.  CPU kernels block the host when issued on
        the CPU's default stream (the seed semantics) and model a worker
        thread -- asynchronous enqueue -- on any named CPU stream.
        """
        target = self._resolve_kernel_stream(device, stream)
        duration = device.kernel_ms(flops, bytes_moved)
        if self._tape is not None:
            self._tape.kernel(
                self._region_tuple, device, name, flops, bytes_moved, duration, stream
            )
        if device.is_gpu and device.name not in self._ready_gpus:
            self.initialize_gpu(model_bytes=0, device=device)
        blocking = not device.is_gpu and target.is_default
        if not blocking:
            self._host_time += device.spec.host_overhead_us * 1e-3
        self._device_flops[device.name] = self._device_flops.get(device.name, 0.0) + flops
        self._charge(
            KERNEL, name, device.name, target, self._host_time, duration, blocking,
            int(bytes_moved), flops=flops,
        )

    def launch_kernels(
        self,
        device: Device,
        name: str,
        count: int,
        flops: float,
        bytes_moved: float,
        stream: Optional[Stream] = None,
    ) -> None:
        """Launch ``count`` identical kernels back to back (batched charging).

        Byte-identical to calling :meth:`launch_kernel` ``count`` times with
        the same arguments -- same intervals, same events, same host-cursor
        movement -- but charged as one run (:meth:`_charge_kernel_run`), so
        homogeneous op sequences (RNN steps, per-window encoder stacks,
        repeated identical layers) do not re-resolve per launch.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        duration = device.kernel_ms(flops, bytes_moved)
        self._charge_kernel_run(
            device,
            stream,
            [name] * count,
            [flops] * count,
            [int(bytes_moved)] * count,
            [duration] * count,
            repeat(self._region_tuple),
        )

    def host_work(self, name: str, duration_ms: float, stream: Optional[Stream] = None) -> None:
        """Charge host-only work (Python bookkeeping, data loading) to the CPU.

        On the CPU's default stream the host blocks until completion (seed
        semantics); on a named CPU stream the work is queued asynchronously,
        modelling a prefetch/worker thread.
        """
        if not 0 <= duration_ms < math.inf:
            raise ValueError("duration must be non-negative and finite")
        target = self._resolve_kernel_stream(self.cpu, stream)
        self._charge(
            KERNEL, name, self.cpu.name, target, self._host_time, duration_ms, target.is_default
        )

    # -- transfers ----------------------------------------------------------

    def transfer(
        self,
        src: Device,
        dst: Device,
        nbytes: int,
        name: str = "memcpy",
        non_blocking: bool = False,
        stream: Optional[Stream] = None,
        wait_for_source: bool = True,
    ) -> None:
        """Move ``nbytes`` between devices over the topology's links.

        The route is resolved by the :class:`~repro.hw.topology.Topology`:
        host<->GPU copies occupy that GPU's host link; GPU<->GPU copies take
        the direct peer link when the topology has one (a single hop) and
        otherwise *stage* through the two host links (source's, then
        destination's, serialized), emitting one event per hop.

        Blocking transfers (the default) occupy each routed link's default
        stream and advance the host cursor to completion, mirroring
        unpinned-memory copies in PyTorch.  With ``non_blocking=True`` the
        copy queues on the routed link's dedicated copy stream (pinned-memory
        semantics) and the host pays only the issue overhead; use
        :meth:`record_event` on that stream plus :meth:`wait_event` /
        :meth:`event_synchronize` to order consumers after the copy.

        The payload must exist before it can be copied, so by default the
        transfer never starts before the *current stream* of the source
        device has drained.  Pass ``wait_for_source=False`` when the payload is
        known to be resident already (e.g. a warm feature table fetched
        from a peer GPU) so the copy does not serialize behind unrelated
        compute queued on the source device.

        An explicit ``stream`` is only valid for single-hop routes (it names
        one link's queue, and a staged route crosses two links).

        Transfers between a device and itself are invalid.
        """
        if src == dst:
            raise ValueError("transfer requires two distinct devices")
        if not 0 <= nbytes < math.inf:
            raise ValueError("nbytes must be non-negative and finite")
        hops = self.topology.route(src, dst)
        for hop_device in (src, dst):
            if hop_device.is_gpu and hop_device.name not in self._ready_gpus:
                self.initialize_gpu(model_bytes=0, device=hop_device)
        if stream is not None and len(hops) > 1:
            raise ValueError(
                f"transfer {src.name!r}->{dst.name!r} stages through "
                f"{len(hops)} links; an explicit stream is ambiguous"
            )
        if self._tape is not None:
            self._tape.transfer(
                self._region_tuple, src, dst, nbytes, name, non_blocking, len(hops),
                plain=stream is None and wait_for_source,
            )
        # The payload must exist before it can be copied: wait for the
        # producing stream to finish its queued work.
        ready = self._host_time
        if wait_for_source:
            ready = max(ready, self.current_stream(src).free_at)
        for link in hops:
            target = stream
            if target is None:
                # A use_stream() context naming this link's stream takes
                # precedence; otherwise non-blocking copies take the link's
                # dedicated copy stream and blocking copies serialize on the
                # link's default stream.
                target = self._current_streams.get(link.name)
                if target is None:
                    target = link.stream(COPY_STREAM) if non_blocking else link.default_stream
            # A staged route's second hop cannot start before the first
            # hop's copy has landed in host memory.
            ready = self._charge(
                TRANSFER, name, link.name, target, ready,
                link.book(nbytes, target), not non_blocking,
                nbytes, src.name, dst.name,
            )
            if non_blocking:
                self._host_time += link.spec.host_overhead_us * 1e-3

    # -- synchronisation ------------------------------------------------------

    def synchronize(self, name: str = "cuda_sync") -> None:
        """Block the host until all queued work on all streams has completed."""
        pending = max(max(d.free_at for d in self.devices), self.topology.free_at)
        self._join(name, self.cpu.name, pending)

    def device_synchronize(self, device: Union[Device, str], name: str = "device_sync") -> None:
        """Block the host until one device's streams have all drained.

        The multi-GPU analogue of ``torch.cuda.synchronize(device)``: a
        serving loop can retire one replica's batch without joining the other
        GPUs' queues (which :meth:`synchronize` would).
        """
        if isinstance(device, str):
            device = self.device(device)
        self._join(name, device.name, device.free_at)

    def stream_synchronize(self, stream: Stream, name: str = "stream_sync") -> None:
        """Block the host until one stream's queued work has completed."""
        self._join(name, stream.resource, stream.free_at, stream.name)

    def event_synchronize(self, stream_event: StreamEvent, name: str = "event_sync") -> None:
        """Block the host until a recorded stream event is ready."""
        self._join(name, stream_event.resource, stream_event.ready_ms, stream_event.stream)

    # -- warm-up ------------------------------------------------------------

    @property
    def gpu_context_ready(self) -> bool:
        """Whether every GPU's context has been created (False on CPU-only)."""
        return bool(self.gpus) and all(g.name in self._ready_gpus for g in self.gpus)

    def gpu_ready(self, device: Device) -> bool:
        """Whether one GPU's context has been created."""
        return device.name in self._ready_gpus

    def initialize_gpu(self, model_bytes: int = 0, device: Optional[Device] = None) -> None:
        """Perform one-time warm-up of one GPU: context creation, weight upload.

        ``device`` selects the GPU (the first one when omitted); nothing is
        charged when there is no GPU or that GPU's context already exists.
        Mirrors the paper's Sec. 4.4 "model initialization" component, which
        it measures at several seconds; on a multi-GPU machine each device
        pays it independently.
        """
        gpu = device if device is not None else self.gpu
        if gpu is None or gpu.name in self._ready_gpus:
            return
        if not gpu.is_gpu:
            raise ValueError(f"cannot initialize non-GPU device {gpu.name!r}")
        self._ready_gpus.add(gpu.name)
        self._charge(
            WARMUP, "context_init", gpu.name, gpu.default_stream, self._host_time,
            self.spec.warmup.context_init_ms, True,
        )
        if model_bytes > 0:
            self.transfer(self.cpu, gpu, model_bytes, name="weight_upload")

    def allocation_warmup(self, footprint_bytes: int, device: Optional[Device] = None) -> None:
        """Per-run lazy-allocation warm-up proportional to the batch footprint.

        Mirrors the second warm-up component of Sec. 4.4 (Table 2): before the
        first iteration the GPU allocates memory for the batch, and the cost
        grows with the amount of data the run will keep on-chip.  ``device``
        selects the GPU (the first one when omitted).
        """
        gpu = device if device is not None else self.gpu
        if gpu is None:
            return
        if gpu.name not in self._ready_gpus:
            self.initialize_gpu(model_bytes=0, device=gpu)
        self._charge(
            WARMUP, "allocation_warmup", gpu.name, gpu.default_stream, self._host_time,
            self.spec.warmup.allocation_warmup_ms(footprint_bytes / 1e6), True, footprint_bytes,
        )

    # -- memory ------------------------------------------------------------

    def alloc(self, device: Device, nbytes: int, tag: str = "") -> int:
        """Register a device allocation and emit an ``alloc`` event."""
        if self._tape is not None:
            self._tape.alloc(self._region_tuple, device, nbytes, tag)
        now = self._host_time
        alloc_id = device.memory.alloc(nbytes, tag)
        self._emit(ALLOC, tag or "alloc", device.name, now, now, nbytes)
        return alloc_id

    def free(self, device: Device, alloc_id: int) -> int:
        """Release a device allocation and emit a ``free`` event."""
        now = self._host_time
        nbytes = device.memory.free(alloc_id)
        self._emit(FREE, "free", device.name, now, now, nbytes)
        return nbytes

    @contextlib.contextmanager
    def memory_run(
        self, device: Device, tag: str = ""
    ) -> Iterator[Tuple[Callable[[int], int], Callable[[int], int]]]:
        """A run of allocations and releases on one device, logged when it closes.

        Yields ``alloc(nbytes) -> id`` and ``free(id) -> nbytes``.  Each acts
        on the device's pool (and an open tape) at once, exactly as
        :meth:`alloc` / :meth:`free` would; their events -- all stamped with
        the host time and region the run opened under, so none ends before it
        starts -- are counted, kind-checked once per kind and logged in one
        pass on the way out, also past an exception.  The block may issue
        nothing else: closing raises if the host clock or the event count
        moved inside it.
        """
        now = self._host_time
        started = self._event_count
        region = self._region_tuple
        tape = self._tape
        pool_alloc, pool_free = device.memory.alloc, device.memory.free
        kinds: List[str] = []
        names: List[str] = []
        sizes: List[int] = []
        alloc_name = tag or "alloc"

        def alloc(nbytes: int) -> int:
            if tape is not None:
                tape.alloc(region, device, nbytes, tag)
            alloc_id = pool_alloc(nbytes, tag)
            kinds.append(ALLOC)
            names.append(alloc_name)
            sizes.append(nbytes)
            return alloc_id

        def free(alloc_id: int) -> int:
            nbytes = pool_free(alloc_id)
            kinds.append(FREE)
            names.append("free")
            sizes.append(nbytes)
            return nbytes

        try:
            yield alloc, free
        finally:
            undisturbed = self._host_time == now and self._event_count == started
            self._event_count += len(kinds)
            if kinds and self.record_events:
                for kind in dict.fromkeys(kinds):
                    check_event(kind)
                self._log.extend(
                    zip(
                        kinds, names, repeat(device.name), repeat(now), repeat(now), repeat(0.0),
                        sizes, repeat(region), repeat(""), repeat(""), repeat(""),
                    )
                )
            if not undisturbed:
                raise RuntimeError(
                    f"memory run on {device.name!r} was interleaved with another charge "
                    "or a host-clock move"
                )

    # -- reporting helpers ----------------------------------------------------

    def event_cursor(self) -> int:
        """Current position in the event log (for profiler snapshots)."""
        return len(self.events)

    @property
    def event_count(self) -> int:
        """Total simulated actions so far (counted even with recording off)."""
        return self._event_count

    def device_flops(self, name: str) -> float:
        """Running FLOP total charged to one device since machine creation."""
        return self._device_flops.get(name, 0.0)

    def device_flops_totals(self) -> Dict[str, float]:
        """Copy of the running per-device FLOP totals."""
        return dict(self._device_flops)
