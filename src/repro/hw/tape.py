"""Record-and-replay charging: the CUDA-graph idea applied to the simulator.

Under the ``shape`` backend a block of model code charges the machine with a
kernel/transfer/alloc sequence that is a pure function of the operand
*shapes*.  :func:`record` runs such a block once while the machine appends
every charge to a :class:`Tape`; :func:`replay` re-issues the tape without
running the ``models -> nn -> tensor`` layers that derived it.  Callers reach
both through :meth:`Machine.record <repro.hw.machine.Machine.record>` and
:meth:`Machine.replay <repro.hw.machine.Machine.replay>`.

**The contract is byte identity.**  Replaying a tape leaves every observable
exactly as re-running the recorded block would: all 11
:class:`~repro.hw.events.Event` fields of every logged row in order (the
``alloc`` rows are the pools' footprint over time), the host clock, the event
count, the per-device FLOP totals, every stream and link timeline, the
memory pools' current and peak bytes, the lazy GPU warm-up, and the
exception a strict pool raises -- at the same entry, after the same events.
A tape stores no times and no stream: both are resolved when it replays, so
a ``use_stream`` override in force at replay time is honoured and a tape
replays on any machine with the same device names.

**A renamed copy replays on like devices.**  The kernel durations on a tape
are functions of the device spec alone, so a tape also replays on devices
whose specs differ from the recorder's only in ``name``, once
:meth:`Tape.renamed` has made their copy; :meth:`Tape.devices` lists the
names a copy must map, and the replay loop itself never renames.  Which
models may share a tape -- one class, config and dataset, host and compute
specs equal but for the name -- and that a tape naming a third device (a
peer GPU) stays with its recorder are rules of
:meth:`DGNNModel.join_tape_book <repro.models.base.DGNNModel.join_tape_book>`.

**Completeness is checked, not assumed.**  Only three calls are taped --
``launch_kernel`` (current stream), ``transfer`` (default source/ordering
arguments) and ``alloc`` -- and each knows how many events it emits (a
transfer: one per hop of its route).  When a recording closes, the machine's
event-count delta must equal that total; ``advance_host`` and ``use_stream``,
which move state without an event, mark the open tape unusable outright.  So
anything else issued inside a recorded block -- a synchronisation, a stream
event, a ``free``, ``host_work``, ``launch_kernels``, a warm-up, a cluster
NIC hop, or a call added later -- makes :func:`record` return no tape, and
the caller keeps running that block directly.
"""

from __future__ import annotations

from itertools import groupby
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .machine import Machine

# Entry tags.  Every entry is one fixed-width tuple
# ``(tag, region, resource, name, arg, nbytes, tail)`` so the replay loop
# unpacks each charge in a single step:
#   kernel    resource = device    arg = flops         tail = duration_ms
#   transfer  resource = source    arg = destination   tail = non_blocking
#   alloc     resource = device    name = tag          (arg, tail unused)
# Devices are stored by name and ``region`` is the full stack in force.  A
# sealed tape's *segments* keep this layout; a run of consecutive kernel
# entries on one device is one segment whose ``region``, ``name``, ``arg``,
# ``nbytes`` and ``tail`` are columns, one row per kernel.
_KERNEL, _TRANSFER, _ALLOC = range(3)


class Tape:
    """The charges one recorded block issued, in issue order."""

    __slots__ = ("entries", "segments", "events", "usable", "region")

    def __init__(self, region: Tuple[str, ...]) -> None:
        self.entries: List[tuple] = []
        #: What :func:`replay` walks; set by :meth:`seal`, ``None`` until then.
        self.segments: Optional[List[tuple]] = None
        #: Events the entries emit when replayed (the conservation total).
        self.events = 0
        #: Cleared by a charge or state change a tape cannot reproduce.
        self.usable = True
        #: Region stack in force when the recording opened; entries carry
        #: absolute region tuples, so the tape only replays under the same one.
        self.region = region

    # -- the three taped calls (``Machine`` appends through these) ---------

    def kernel(self, region, device, name, flops, bytes_moved, duration_ms, stream) -> None:
        if stream is not None:
            self.usable = False
        self.entries.append(
            (_KERNEL, region, device.name, name, flops, int(bytes_moved), duration_ms)
        )
        self.events += 1

    def transfer(self, region, src, dst, nbytes, name, non_blocking, hops, plain) -> None:
        if not plain:
            self.usable = False
        self.entries.append((_TRANSFER, region, src.name, name, dst.name, nbytes, non_blocking))
        self.events += hops

    def alloc(self, region, device, nbytes, tag) -> None:
        self.entries.append((_ALLOC, region, device.name, tag, None, nbytes, None))
        self.events += 1

    def devices(self) -> Set[str]:
        """The name of every device the entries charge (a transfer's two ends)."""
        names = {entry[2] for entry in self.entries}
        names.update(entry[4] for entry in self.entries if entry[0] == _TRANSFER)
        return names

    def renamed(self, names: Dict[str, str]) -> "Tape":
        """A sealed copy charging ``names[d]`` wherever this tape charges ``d``.

        ``names`` maps every name in :meth:`devices` to a device of the same
        spec but for its name; the copy then replays exactly as this tape
        would on those devices.
        """
        copy = Tape(self.region)
        copy.events = self.events
        copy.entries = [
            (tag, region, names[device], name, names[arg] if tag == _TRANSFER else arg, size, tail)
            for tag, region, device, name, arg, size, tail in self.entries
        ]
        copy.seal()
        return copy

    def seal(self) -> None:
        """Fold the entries into segments (layout comment above)."""
        segments: List[tuple] = []
        for device, group in groupby(
            self.entries, key=lambda entry: entry[2] if entry[0] == _KERNEL else None
        ):
            if device is None:
                segments.extend(group)
            else:
                _, regions, _, names, flops, sizes, durations = zip(*group)
                segments.append((_KERNEL, regions, device, names, flops, sizes, durations))
        self.segments = segments


def record(machine: "Machine", block: Callable[[], Any]) -> Tuple[Any, Optional[Tape]]:
    """Run ``block()`` with a recording open; returns ``(result, tape)``.

    ``tape`` is ``None`` unless the recording passed both completeness tests
    (module docstring).  The block's own charges land exactly as without a
    recording; an exception propagates with the recording closed.
    """
    if machine._tape is not None:
        raise RuntimeError("a recording is already open on this machine")
    tape = machine._tape = Tape(machine._region_tuple)
    started = machine._event_count
    try:
        result = block()
    finally:
        machine._tape = None
    if not (tape.usable and machine._event_count - started == tape.events):
        return result, None
    tape.seal()
    return result, tape


def replay(machine: "Machine", tape: Tape) -> None:
    """Re-issue ``tape`` on ``machine`` (byte-identical to re-running its block).

    A kernel segment is charged as one run by the charger ``launch_kernels``
    uses (:meth:`Machine._charge_kernel_run`): the stream, the host overhead
    and the lazy warm-up are resolved at the run's first kernel and under its
    region -- for a cold GPU that is its first kernel of the replay, which is
    where direct execution would fire the warm-up -- and the durations were
    stored at record time.  Transfers and allocations go through the public
    methods.  An exception (a strict pool's ``OutOfMemoryError``) leaves the
    segments before it charged and the region restored, like the recorded
    block would.  Like every charge, a replay returns nothing: what it did
    is in the machine's event log.
    """
    ambient = machine._region_tuple
    if tape.region != ambient:
        raise ValueError(
            f"tape recorded under region {tape.region!r} cannot replay under {ambient!r}"
        )
    devices = {device.name: device for device in machine.devices}
    try:
        for op, region, resource, name, arg, nbytes, tail in tape.segments:
            if op == _KERNEL:
                machine._region_tuple = region[0]
                machine._charge_kernel_run(
                    devices[resource], None, name, arg, nbytes, tail, region
                )
            elif op == _TRANSFER:
                machine._region_tuple = region
                machine.transfer(
                    devices[resource], devices[arg], nbytes, name=name, non_blocking=tail
                )
            else:
                machine._region_tuple = region
                machine.alloc(devices[resource], nbytes, tag=name)
    finally:
        machine._region_tuple = ambient
