"""The simulated machine: host CPU, its GPUs, and the links connecting them.

The :class:`Machine` is the execution context every other layer talks to.
Tensor operators (:mod:`repro.tensor`) ask it to launch kernels and schedule
transfers; the graph samplers charge CPU preprocessing work to it; models ask
it for the preferred compute device; and the profiler (:mod:`repro.core`)
reads its event log, device timelines and memory pools.

Scheduling semantics (CUDA-style streams over an analytic cost model):

* The machine keeps a single *host time* cursor modelling the Python/PyTorch
  host thread that drives inference.
* Every resource (CPU, GPU, PCIe link) owns a set of named execution
  :class:`~repro.hw.stream.Stream` queues.  Work issued onto one stream
  serializes in issue order; work on different streams of the same resource
  may overlap in simulated time.  Each resource starts with a ``"default"``
  stream, and :meth:`Machine.use_stream` temporarily redirects issue to a
  named stream, like ``torch.cuda.stream(s)``.
* CPU kernels and :meth:`host_work` issued on the CPU's *default* stream run
  synchronously: they occupy the CPU timeline and advance the host cursor to
  their completion (the seed's blocking semantics).  Issued on a *named* CPU
  stream they model a worker/prefetch thread: the host pays only the dispatch
  overhead and the work queues asynchronously -- this is what makes the
  paper's sampling/compute overlap (Sec. 5.1.1) executable.
* GPU kernels are always launched asynchronously: the host cursor advances by
  the launch-call overhead while the kernel queues on the current GPU stream
  behind previously issued work on that stream.  With everything on the
  default stream, DGNN kernels serialize exactly as in the seed -- the
  temporal-dependency bottleneck.
* Host<->device transfers occupy a link stream.  By default they are
  *blocking*: the host waits for completion (mirroring unpinned-memory
  copies) and the copy serializes on the link's default stream.  With
  ``non_blocking=True`` the copy is queued on the machine's dedicated
  :attr:`copy_stream` (modelling a pinned-memory DMA engine) and the host
  pays only the issue overhead.  Transfers appear as "Memory Copy" in the
  breakdowns -- the data-movement bottleneck.
* Cross-stream dependencies use :meth:`record_event` / :meth:`wait_event`
  (``cudaEventRecord`` / ``cudaStreamWaitEvent`` analogues): work issued to a
  stream after a wait cannot start before the event's ready time.
* ``synchronize()`` joins *all* streams on all devices and the link, as
  ``torch.cuda.synchronize()`` does; :meth:`stream_synchronize` joins one
  stream and :meth:`event_synchronize` waits for one recorded event.
* GPU warm-up (context creation, weight upload, allocation warm-up) is
  modelled explicitly and emits ``warmup`` events -- the warm-up bottleneck.
* While the CPU runs long preprocessing (e.g. temporal neighbourhood
  sampling) on its default stream, the GPU timeline simply stays idle, which
  is exactly the workload-imbalance signature the paper reports.

A program that only ever touches default streams reproduces the seed's
serialized single-queue scheduling *exactly*; all stream machinery is opt-in.

Multi-GPU topologies (see :class:`~repro.hw.spec.MachineSpec` and
:class:`~repro.hw.topology.Topology`) generalize the single host+GPU+link
shape without changing any of the above:

* A machine may own several identical GPUs (``num_gpus`` in the spec, or
  presets such as ``"4xA100-pcie"``).  Each GPU is an independent resource
  with its own streams, memory pool and warm-up state; kernels launched on
  different GPUs overlap freely in simulated time, while the *one* host
  thread still serializes all dispatch -- exactly the bottleneck structure of
  a real data-parallel inference server driven by a single Python process.
* Each GPU gets its **own host link** (PCIe), each with default and copy
  streams, so blocking copies to GPU 0 do not occupy GPU 1's channel.  With
  one GPU the link keeps the seed's name and the event log is byte-identical.
* GPU<->GPU transfers take the direct **peer link** (NVLink presets) when the
  topology has one, appearing as a single ``p2p`` transfer; on PCIe-only
  topologies they are *staged* through the two host links (a ``d2h`` hop on
  the source's link, then an ``h2d`` hop on the destination's), costing two
  serialized transfers -- the reason graph sharding on PCIe boxes amplifies
  the paper's data-movement bottleneck instead of hiding it.
* Warm-up is per GPU: each device pays its own context creation and weight
  upload the first time work lands on it.
* ``synchronize()`` joins every stream on every device and every link;
  :meth:`device_synchronize` joins the streams of a single device, which is
  what lets a serving loop retire one replica's batch without draining the
  other replicas' queues.

One machine is one *node*.  Rack-scale topologies compose several machines
into a :class:`~repro.hw.cluster.Cluster`: each node keeps its own host
clock (all starting at 0, so every ``host_time_ms`` is a position in one
shared cluster time frame), and node pairs are joined by NIC links.  A
cross-node payload stages GPU -> host -> NIC -> host -> GPU, with each hop
charged to its link's timeline and the issuing node's host paying per-hop
issue overheads -- the same charging discipline as this class's staged
PCIe peer copies, extended across the node boundary.  Nothing in this class
changes for cluster use; the cluster coordinates node clocks from outside
via :meth:`advance_host` (monotone alignment only, never rewinding).

Online serving (:mod:`repro.serve`) drives the host-time cursor in a third
way: besides advancing through issued work, the serving loop calls
:meth:`advance_host` to *fast-forward* the cursor to the next actionable
instant -- a request arrival, a batching timeout, an SLO deadline -- whenever
the pipeline is idle.  Because arrivals and model execution share the one
host clock, a request's queueing delay is simply the cursor distance between
its arrival and its dispatch, and its service time falls out of the same
kernel/transfer scheduling as any offline iteration.  The cursor is
monotonic (``advance_host`` rejects negative durations), so serving code
must admit arrivals in timestamp order and may never schedule "into the
past"; idle fast-forwards interleave safely with in-flight asynchronous
stream work, which keeps draining behind the cursor exactly as during
blocking execution.

Execution backends decouple the cost model from the numerics that feed it:

* ``backend="numeric"`` (the default) computes real numpy values in every
  tensor operator *and* charges the corresponding kernels -- the seed's
  behaviour, byte-identical.
* ``backend="shape"`` propagates only shapes/dtypes/device placement through
  operators, samplers and model layers (outputs become zero-strided
  placeholder arrays, see :mod:`repro.tensor.meta`), while still issuing
  **every** kernel launch, transfer, cache probe and memory-pool allocation
  with byte-identical cost arguments.  The simulated timeline -- event
  sequences, per-stream busy intervals, latency percentiles, cache hit/miss
  streams -- is identical to the numeric backend's; only the wall-clock cost
  of producing it drops (no BLAS in the hot path).  Sampler RNG draws are
  consumed exactly as in numeric mode so fan-out sizes and cache keys match.
* The backend composes orthogonally with :attr:`record_events`: backends
  control whether *numerics* run, ``record_events`` controls whether the
  profiler's event objects are materialised.  All four combinations yield
  the same host clock, busy totals and event counts.
* The machine itself never branches on the backend -- charges arrive
  identically from either; :attr:`shape_mode` simply lets the tensor/model
  layers pick their data representation once per operator.
* Shape-backend charges depend only on shapes, so a model may
  :meth:`~Machine.record` a compute block's charges once and
  :meth:`~Machine.replay` them for later batches of the same shape
  (:mod:`repro.hw.tape`); the machine still does not branch on the backend.

The serving caches (:mod:`repro.cache`) are charged through the same
machinery rather than modelled as free lookups:

* **Residency** -- every admitted cache entry is an :meth:`alloc` on its
  store's device pool (GPUs for embedding/memory rows, the host CPU for
  sampling structures) tagged ``cache:<kind>``, and every eviction,
  staleness expiry or invalidation is the matching :meth:`free`; cache
  occupancy therefore shows up in the same memory reports as model
  tensors, and a tight budget produces real eviction traffic.
* **Lookups and updates** -- per-batch host-side table work (probes,
  insert bookkeeping, invalidation sweeps) is charged as
  :meth:`host_work` items named ``cache_<kind>_admin*``, and the hit-row
  gathers / inserted-row copies as bandwidth-bound kernels
  (``cache_<kind>_gather*`` / ``cache_<kind>_insert*``) on the store's
  device.  All charges land on whatever stream is *current* when the
  request path consults the cache: synchronously on the blocking path,
  asynchronously inside the overlap server's named CPU sampling stream --
  so cache overhead overlaps (or fails to overlap) with compute under
  exactly the same rules as sampling itself.
"""

from __future__ import annotations

import contextlib
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
from .events import ALLOC, FREE, KERNEL, MARKER, SYNC, TRANSFER, WARMUP, Event, EventLog
from .link import Link
from .spec import (
    DEFAULT_WARMUP,
    PCIE_GEN4,
    RTX_A6000,
    XEON_6226R,
    DeviceSpec,
    LinkSpec,
    MachineSpec,
    WarmupSpec,
    machine_spec,
)
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
        cpu_spec: DeviceSpec = XEON_6226R,
        gpu_spec: Optional[DeviceSpec] = RTX_A6000,
        link_spec: LinkSpec = PCIE_GEN4,
        warmup_spec: WarmupSpec = DEFAULT_WARMUP,
        strict_memory: bool = False,
        num_gpus: int = 1,
        peer_link_spec: Optional[LinkSpec] = None,
        record_events: bool = True,
        backend: str = "numeric",
    ) -> None:
        if backend not in ("numeric", "shape"):
            raise ValueError(
                f"unknown execution backend {backend!r}; choose 'numeric' or 'shape'"
            )
        if gpu_spec is None:
            num_gpus = 0
        elif num_gpus < 1:
            raise ValueError("a GPU machine needs num_gpus >= 1")
        self.cpu = Device(cpu_spec, strict_memory=strict_memory)
        gpus: List[Device] = []
        for index in range(num_gpus):
            spec = (
                gpu_spec
                if num_gpus == 1
                else _spec_replace(gpu_spec, name=f"{gpu_spec.name}:{index}")
            )
            gpus.append(Device(spec, strict_memory=strict_memory))
        self.gpus: Tuple[Device, ...] = tuple(gpus)
        self.topology = Topology(self.cpu, self.gpus, link_spec, peer_link_spec=peer_link_spec)
        self.warmup_spec = warmup_spec
        self.events = EventLog()
        #: Whether simulated actions are materialized as :class:`Event`
        #: records in :attr:`events`.  Scheduling, timelines, memory pools
        #: and the host clock are identical either way; disabling recording
        #: only skips building the profiler's event stream, making detailed
        #: profiling an opt-in cost.
        self.record_events = record_events
        #: Attached :class:`~repro.obs.trace.Tracer`, or ``None``.  Set by
        #: ``Tracer.attach``; the machine itself never consults it -- only
        #: cross-layer hooks (e.g. the cluster NIC transfer) read it, so a
        #: detached machine pays exactly one ``is None`` test per hook site
        #: and the simulation is event-for-event identical either way.
        self.tracer = None
        #: Execution backend: ``"numeric"`` or ``"shape"`` (docstring above).
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
    def cpu_only(cls, cpu_spec: DeviceSpec = XEON_6226R, **kwargs) -> "Machine":
        """A machine without a GPU (the paper's CPU-only baseline runs)."""
        return cls(cpu_spec=cpu_spec, gpu_spec=None, **kwargs)

    @classmethod
    def cpu_gpu(
        cls,
        cpu_spec: DeviceSpec = XEON_6226R,
        gpu_spec: DeviceSpec = RTX_A6000,
        **kwargs,
    ) -> "Machine":
        """The paper's default Xeon 6226R + RTX A6000 configuration."""
        return cls(cpu_spec=cpu_spec, gpu_spec=gpu_spec, **kwargs)

    @classmethod
    def from_spec(
        cls,
        spec: Union[str, MachineSpec],
        strict_memory: bool = False,
        record_events: bool = True,
        backend: str = "numeric",
    ) -> "Machine":
        """Build a machine from a :class:`~repro.hw.spec.MachineSpec` preset.

        ``spec`` may be a preset name (``"1xA6000"``, ``"4xA100-nvlink"``,
        ...) or a spec instance.  ``Machine.from_spec("1xA6000")`` is
        byte-identical to ``Machine.cpu_gpu()``.
        """
        resolved = machine_spec(spec)
        return cls(
            cpu_spec=resolved.cpu,
            gpu_spec=resolved.gpu,
            link_spec=resolved.host_link,
            warmup_spec=resolved.warmup,
            strict_memory=strict_memory,
            num_gpus=max(resolved.num_gpus, 1) if resolved.gpu is not None else 0,
            peer_link_spec=resolved.peer_link,
            record_events=record_events,
            backend=backend,
        )

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
                try:
                    return self.gpus[int(name.split(":", 1)[1])]
                except (ValueError, IndexError):
                    raise KeyError(f"unknown device {name!r} on this machine") from None
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

    @property
    def copy_stream(self) -> Stream:
        """The primary link's dedicated copy stream.

        Non-blocking transfers queue on the *routed* link's copy stream, so
        on a multi-GPU machine each host link (and each peer link) has its
        own copy engine; this property keeps naming the single-GPU one.
        """
        return self.link.stream(COPY_STREAM)

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
    ) -> Optional[Event]:
        """Count one simulated action and record it when recording is on."""
        self._event_count += 1
        if not self.record_events:
            return None
        event = Event(
            kind, name, resource, start_ms, end_ms, 0.0, nbytes, self._region_tuple, src, dst,
            stream,
        )
        self.events.append(event)
        return event

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
        if duration_ms < 0:
            raise ValueError("duration must be non-negative")
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
        """The stream a kernel launch targets (shared by both launch paths).

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
    ) -> List[Event]:
        """Charge kernels launched back to back on one device, as columns.

        The one run charger behind :meth:`launch_kernels` and tape replay
        (:mod:`repro.hw.tape`), byte-identical to one :meth:`launch_kernel`
        per row: what the launches share -- the stream, the lazy GPU warm-up,
        the host overhead -- is resolved once, the stream reserves the whole
        run in one call, and the events are built in one pass.  A launch that
        is not asynchronous (CPU default stream) runs the host to each
        kernel's end instead of paying the overhead.
        """
        target = self._resolve_kernel_stream(device, stream)
        is_gpu = device.is_gpu
        if is_gpu and device.name not in self._ready_gpus:
            self.initialize_gpu(model_bytes=0, device=device)
        starts, ends, self._host_time = target.reserve_run(
            self._host_time,
            device.spec.host_overhead_us * 1e-3,
            durations,
            names,
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
            return []
        events = list(
            map(
                Event, repeat(KERNEL), names, repeat(resource), starts, ends, flops, sizes,
                regions, repeat(""), repeat(""), repeat(target.name),
            )
        )
        self.events.extend(events)
        return events

    def launch_kernel(
        self,
        device: Device,
        name: str,
        flops: float,
        bytes_moved: float,
        stream: Optional[Stream] = None,
    ) -> Optional[Event]:
        """Launch a compute kernel on ``device`` and record the event.

        Returns the recorded :class:`Event`, or ``None`` when event
        recording is disabled (``record_events=False``).

        The kernel queues on ``stream`` (the device's *current* stream when
        omitted).  GPU kernels are always asynchronous: the host pays only
        the launch-call overhead.  CPU kernels block the host when issued on
        the CPU's default stream (the seed semantics) and model a worker
        thread -- asynchronous enqueue -- on any named CPU stream.
        """
        target = self._resolve_kernel_stream(device, stream)
        cost = device.kernel_cost(flops, bytes_moved)
        if self._tape is not None:
            self._tape.kernel(
                self._region_tuple, device, name, flops, bytes_moved, cost.duration_ms, stream
            )
        if device.is_gpu:
            if device.name not in self._ready_gpus:
                self.initialize_gpu(model_bytes=0, device=device)
            self._host_time += device.spec.host_overhead_us * 1e-3
            interval = target.reserve(self._host_time, cost.duration_ms, name)
        elif target.is_default:
            interval = target.reserve(self._host_time, cost.duration_ms, name)
            self._host_time = interval.end_ms
        else:
            self._host_time += device.spec.host_overhead_us * 1e-3
            interval = target.reserve(self._host_time, cost.duration_ms, name)
        self._device_flops[device.name] = self._device_flops.get(device.name, 0.0) + flops
        self._event_count += 1
        if not self.record_events:
            return None
        # Positional construction: this is the hottest event-emission site.
        event = Event(
            KERNEL,
            name,
            device.name,
            interval.start_ms,
            interval.end_ms,
            flops,
            int(bytes_moved),
            self._region_tuple,
            "",
            "",
            target.name,
        )
        self.events.append(event)
        return event

    def launch_kernels(
        self,
        device: Device,
        name: str,
        count: int,
        flops: float,
        bytes_moved: float,
        stream: Optional[Stream] = None,
    ) -> List[Event]:
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
            return []
        duration = device.kernel_cost(flops, bytes_moved).duration_ms
        return self._charge_kernel_run(
            device,
            stream,
            [name] * count,
            [flops] * count,
            [int(bytes_moved)] * count,
            [duration] * count,
            repeat(self._region_tuple),
        )

    def host_work(
        self, name: str, duration_ms: float, stream: Optional[Stream] = None
    ) -> Optional[Event]:
        """Charge host-only work (Python bookkeeping, data loading) to the CPU.

        On the CPU's default stream the host blocks until completion (seed
        semantics); on a named CPU stream the work is queued asynchronously,
        modelling a prefetch/worker thread.
        """
        target = stream if stream is not None else self.current_stream(self.cpu)
        if target.is_default:
            interval = self.cpu.schedule(self._host_time, duration_ms, name, stream=target)
            self._host_time = interval.end_ms
        else:
            interval = self.cpu.schedule(self._host_time, duration_ms, name, stream=target)
        return self._emit(
            KERNEL, name, self.cpu.name, interval.start_ms, interval.end_ms, 0, target.name
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
        after: Optional[StreamEvent] = None,
        wait_for_source: bool = True,
    ) -> Optional[Event]:
        """Move ``nbytes`` between devices over the topology's links.

        The route is resolved by the :class:`~repro.hw.topology.Topology`:
        host<->GPU copies occupy that GPU's host link; GPU<->GPU copies take
        the direct peer link when the topology has one (a single ``p2p``
        transfer) and otherwise *stage* through the two host links (``d2h``
        then ``h2d``, serialized), emitting one event per hop and returning
        the final one.

        Blocking transfers (the default) occupy each routed link's default
        stream and advance the host cursor to completion, mirroring
        unpinned-memory copies in PyTorch.  With ``non_blocking=True`` the
        copy queues on the routed link's dedicated copy stream (pinned-memory
        semantics) and the host pays only the issue overhead; use
        :meth:`record_event` on that stream plus :meth:`wait_event` /
        :meth:`event_synchronize` to order consumers after the copy.

        The payload must exist before it can be copied, so by default the
        transfer never starts before the *current stream* of the source
        device has drained; an explicit ``after`` event adds a further
        dependency.  Pass ``wait_for_source=False`` when the payload is
        known to be resident already (e.g. a warm feature table fetched
        from a peer GPU) so the copy does not serialize behind unrelated
        compute queued on the source device.

        An explicit ``stream`` is only valid for single-hop routes (it names
        one link's queue, and a staged route crosses two links).

        Transfers between a device and itself are invalid.
        """
        if src == dst:
            raise ValueError("transfer requires two distinct devices")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
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
                plain=stream is None and after is None and wait_for_source,
            )
        # The payload must exist before it can be copied: wait for the
        # producing stream to finish its queued work.
        ready = self._host_time
        if wait_for_source:
            ready = max(ready, self.current_stream(src).free_at)
        if after is not None:
            ready = max(ready, after.ready_ms)
        event: Optional[Event] = None
        for hop in hops:
            target = stream
            if target is None:
                # A use_stream() context naming this link's stream takes
                # precedence; otherwise non-blocking copies take the link's
                # dedicated copy stream and blocking copies serialize on the
                # link's default stream.
                override = self._current_streams.get(hop.link.name)
                if override is not None:
                    target = override
                else:
                    target = (
                        hop.link.stream(COPY_STREAM)
                        if non_blocking
                        else hop.link.default_stream
                    )
            interval = hop.link.schedule(ready, nbytes, hop.direction, name, stream=target)
            if non_blocking:
                self._host_time += hop.link.spec.host_overhead_us * 1e-3
            else:
                self._host_time = interval.end_ms
            event = self._emit(
                TRANSFER, name, hop.link.name, interval.start_ms, interval.end_ms, nbytes,
                target.name, src.name, dst.name,
            )
            # A staged route's second hop cannot start before the first
            # hop's copy has landed in host memory.
            ready = interval.end_ms
        return event

    # -- synchronisation ------------------------------------------------------

    def synchronize(self, name: str = "cuda_sync") -> Optional[Event]:
        """Block the host until all queued work on all streams has completed."""
        start = self._host_time
        pending = max((d.free_at for d in self.devices), default=start)
        pending = max(pending, self.topology.free_at)
        end = max(start, pending)
        self._host_time = end
        return self._emit(SYNC, name, self.cpu.name, start, end)

    def device_synchronize(
        self, device: Union[Device, str], name: str = "device_sync"
    ) -> Optional[Event]:
        """Block the host until one device's streams have all drained.

        The multi-GPU analogue of ``torch.cuda.synchronize(device)``: a
        serving loop can retire one replica's batch without joining the other
        GPUs' queues (which :meth:`synchronize` would).
        """
        if isinstance(device, str):
            device = self.device(device)
        start = self._host_time
        end = max(start, device.free_at)
        self._host_time = end
        return self._emit(SYNC, name, device.name, start, end)

    def stream_synchronize(self, stream: Stream, name: str = "stream_sync") -> Optional[Event]:
        """Block the host until one stream's queued work has completed."""
        start = self._host_time
        end = max(start, stream.free_at)
        self._host_time = end
        return self._emit(SYNC, name, stream.resource, start, end, 0, stream.name)

    def event_synchronize(
        self, stream_event: StreamEvent, name: str = "event_sync"
    ) -> Optional[Event]:
        """Block the host until a recorded stream event is ready."""
        start = self._host_time
        end = max(start, stream_event.ready_ms)
        self._host_time = end
        return self._emit(SYNC, name, stream_event.resource, start, end, 0, stream_event.stream)

    # -- warm-up ------------------------------------------------------------

    @property
    def gpu_context_ready(self) -> bool:
        """Whether every GPU's context has been created (False on CPU-only)."""
        return bool(self.gpus) and all(g.name in self._ready_gpus for g in self.gpus)

    def gpu_ready(self, device: Device) -> bool:
        """Whether one GPU's context has been created."""
        return device.name in self._ready_gpus

    def initialize_gpu(self, model_bytes: int = 0, device: Optional[Device] = None) -> List[Event]:
        """Perform one-time warm-up of one GPU: context creation, weight upload.

        ``device`` selects the GPU (the first one when omitted).  Returns the
        warm-up events (empty when there is no GPU or that GPU's context
        already exists).  Mirrors the paper's Sec. 4.4 "model initialization"
        component, which it measures at several seconds; on a multi-GPU
        machine each device pays it independently.
        """
        gpu = device if device is not None else self.gpu
        if gpu is None or gpu.name in self._ready_gpus:
            return []
        if not gpu.is_gpu:
            raise ValueError(f"cannot initialize non-GPU device {gpu.name!r}")
        self._ready_gpus.add(gpu.name)
        emitted: List[Event] = []
        context_ms = self.warmup_spec.context_init_ms
        interval = gpu.schedule(self._host_time, context_ms, "context_init")
        self._host_time = interval.end_ms
        context_event = self._emit(
            WARMUP, "context_init", gpu.name, interval.start_ms, interval.end_ms, 0,
            gpu.default_stream.name,
        )
        if context_event is not None:
            emitted.append(context_event)
        if model_bytes > 0:
            upload = self.transfer(self.cpu, gpu, model_bytes, name="weight_upload")
            if upload is not None:
                emitted.append(upload)
        return emitted

    def allocation_warmup(
        self, footprint_bytes: int, device: Optional[Device] = None
    ) -> Optional[Event]:
        """Per-run lazy-allocation warm-up proportional to the batch footprint.

        Mirrors the second warm-up component of Sec. 4.4 (Table 2): before the
        first iteration the GPU allocates memory for the batch, and the cost
        grows with the amount of data the run will keep on-chip.  ``device``
        selects the GPU (the first one when omitted).
        """
        gpu = device if device is not None else self.gpu
        if gpu is None:
            return None
        if gpu.name not in self._ready_gpus:
            self.initialize_gpu(model_bytes=0, device=gpu)
        duration = self.warmup_spec.allocation_warmup_ms(footprint_bytes / 1e6)
        interval = gpu.schedule(self._host_time, duration, "allocation_warmup")
        self._host_time = interval.end_ms
        return self._emit(
            WARMUP, "allocation_warmup", gpu.name, interval.start_ms, interval.end_ms,
            footprint_bytes, gpu.default_stream.name,
        )

    # -- memory ------------------------------------------------------------

    def alloc(self, device: Device, nbytes: int, tag: str = "") -> int:
        """Register a device allocation and emit an ``alloc`` event."""
        if self._tape is not None:
            self._tape.alloc(self._region_tuple, device, nbytes, tag)
        now = self._host_time
        alloc_id = device.memory.alloc(nbytes, tag, now)
        self._emit(ALLOC, tag or "alloc", device.name, now, now, nbytes)
        return alloc_id

    def free(self, device: Device, alloc_id: int) -> int:
        """Release a device allocation and emit a ``free`` event."""
        now = self._host_time
        nbytes = device.memory.free(alloc_id, now)
        self._emit(FREE, "free", device.name, now, now, nbytes)
        return nbytes

    # -- reporting helpers ----------------------------------------------------

    def gpu_utilization(self, start_ms: float, end_ms: float) -> float:
        """First GPU's busy fraction over a window (0.0 when there is no GPU).

        Kept for the single-GPU reports; multi-GPU callers should name the
        device explicitly via :meth:`device_utilization`.
        """
        if self.gpu is None:
            return 0.0
        return self.gpu.utilization(start_ms, end_ms)

    def device_utilization(
        self, device: Union[Device, str], start_ms: float, end_ms: float
    ) -> float:
        """One device's busy fraction over a window (device named explicitly)."""
        if isinstance(device, str):
            device = self.device(device)
        return device.utilization(start_ms, end_ms)

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
