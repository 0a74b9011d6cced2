"""Scheduling invariants of the simulated machine.

These pin the seed's serialized semantics: blocking CPU kernels, asynchronous
GPU launches behind a single queue, blocking link transfers, join-all
synchronisation and one-time warm-up.  The stream engine must preserve all of
them when only default streams are used.
"""

import gc
import inspect

import pytest

import repro.hw.events as events_module
from repro.core import Profiler, analyze_profile, compute_breakdown
from repro.datasets import load
from repro.hw import (
    ALLOC,
    FREE,
    KERNEL,
    MARKER,
    SYNC,
    TRANSFER,
    WARMUP,
    Cluster,
    Event,
    Interval,
    NVLINK3,
    Machine,
    MachineSpec,
    OutOfMemoryError,
    Timeline,
    machine_spec,
)
from repro.models.tgat import TGAT, TGATConfig
from repro.obs import (
    MetricsRegistry,
    Tracer,
    attribute_request,
    build_trace,
    pick_request,
    validate_trace,
)
from repro.serve import InferenceServer, PoissonProcess, generate_requests, make_policy


@pytest.fixture
def machine():
    return Machine.cpu_gpu()


def warmed(machine):
    machine.initialize_gpu(model_bytes=0)
    return machine


class TestHostCursor:
    def test_cpu_kernel_blocks_host(self, machine):
        start = machine.host_time_ms
        machine.launch_kernel(machine.cpu, "cpu_op", flops=1e6, bytes_moved=1e3)
        event = machine.events[-1]
        assert machine.host_time_ms == event.end_ms
        assert event.end_ms > start

    def test_host_work_blocks_host(self, machine):
        machine.host_work("preprocess", 5.0)
        assert machine.host_time_ms == pytest.approx(5.0)

    def test_gpu_kernel_is_asynchronous(self, machine):
        warmed(machine)
        before = machine.host_time_ms
        machine.launch_kernel(machine.gpu, "gemm", flops=1e9, bytes_moved=1e6)
        event = machine.events[-1]
        # The host pays only the launch-call overhead, not the kernel duration.
        overhead_ms = machine.gpu.spec.host_overhead_us * 1e-3
        assert machine.host_time_ms == pytest.approx(before + overhead_ms)
        assert event.end_ms > machine.host_time_ms

    def test_gpu_kernels_serialize_on_default_stream(self, machine):
        warmed(machine)
        machine.launch_kernel(machine.gpu, "k1", flops=1e9, bytes_moved=0)
        machine.launch_kernel(machine.gpu, "k2", flops=1e9, bytes_moved=0)
        first, second = machine.events[-2:]
        assert second.start_ms >= first.end_ms


class TestTransfers:
    def test_blocking_transfer_occupies_link_and_host(self, machine):
        warmed(machine)
        nbytes = 2_000_000
        machine.transfer(machine.cpu, machine.gpu, nbytes)
        event = machine.events[-1]
        expected_ms = machine.link.spec.transfer_ms(nbytes)
        assert event.duration_ms == pytest.approx(expected_ms)
        assert machine.host_time_ms == event.end_ms
        transfers = [e for e in machine.events if e.kind == TRANSFER]
        assert [(e.src, e.dst, e.bytes) for e in transfers] == [
            (machine.cpu.name, machine.gpu.name, nbytes)
        ]

    def test_transfer_waits_for_producing_device(self, machine):
        warmed(machine)
        machine.launch_kernel(machine.gpu, "produce", flops=1e10, bytes_moved=0)
        machine.transfer(machine.gpu, machine.cpu, 1000)
        kernel, copy = machine.events[-2:]
        assert copy.start_ms >= kernel.end_ms

    def test_transfer_rejects_same_device(self, machine):
        with pytest.raises(ValueError):
            machine.transfer(machine.cpu, machine.cpu, 10)

    def test_direction_accounting(self, machine):
        warmed(machine)
        machine.transfer(machine.cpu, machine.gpu, 100)
        machine.transfer(machine.gpu, machine.cpu, 40)

        def sent(src, dst):
            return sum(
                e.bytes for e in machine.events
                if e.kind == TRANSFER and (e.src, e.dst) == (src.name, dst.name)
            )

        assert sent(machine.cpu, machine.gpu) == 100
        assert sent(machine.gpu, machine.cpu) == 40
        assert machine.link.total_bytes == 140


NAN, INF = float("nan"), float("inf")

#: Every hw entry point that takes a duration, a size or a kernel shape,
#: called with a NaN or an infinity.
NON_FINITE_CHARGES = {
    "host_work nan": lambda m: m.host_work("h", NAN),
    "host_work inf": lambda m: m.host_work("h", INF),
    "host_work nan on a named stream": lambda m: m.host_work("h", NAN, m.cpu.stream("w")),
    "advance_host nan": lambda m: m.advance_host(NAN),
    "advance_host inf": lambda m: m.advance_host(INF),
    "transfer nan bytes": lambda m: m.transfer(m.cpu, m.gpu, NAN),
    "transfer inf bytes": lambda m: m.transfer(m.cpu, m.gpu, INF, non_blocking=True),
    "launch_kernel nan flops": lambda m: m.launch_kernel(m.gpu, "k", NAN, 1e3),
    "launch_kernel inf bytes": lambda m: m.launch_kernel(m.cpu, "k", 1e6, INF),
    "kernel_ms nan": lambda m: m.gpu.kernel_ms(NAN, 1e3),
}


class TestNonFiniteCharges:
    """NaN and inf are refused at every entry point before any state moves.

    A NaN host charge used to turn the host clock into NaN (the next GPU
    warm-up then silently restored a finite time), a NaN transfer was booked,
    and every NaN kernel shape added a memo entry, since NaN != NaN.
    """

    @staticmethod
    def state(machine):
        return (
            machine.host_time_ms,
            machine.event_count,
            [tuple(event) for event in machine.events],
            machine.link.total_bytes,
            len(machine.gpu._cost_cache),
            len(machine.cpu._cost_cache),
        )

    @pytest.mark.parametrize("charge", sorted(NON_FINITE_CHARGES))
    def test_refused_with_nothing_moved(self, machine, charge):
        warmed(machine)
        machine.host_work("before", 1.0)
        machine.launch_kernel(machine.gpu, "k", 1e6, 1e3)
        before = self.state(machine)
        with pytest.raises(ValueError, match="non-negative and finite"):
            NON_FINITE_CHARGES[charge](machine)
        assert self.state(machine) == before

    def test_cluster_transfer_refuses_nan_bytes(self):
        cluster = Cluster("2n-1xA100-eth")
        nodes = cluster.nodes
        before = [(node.host_time_ms, node.event_count) for node in nodes]
        with pytest.raises(ValueError, match="nbytes must be non-negative and finite"):
            cluster.transfer(0, nodes[0].gpus[0], 1, nodes[1].gpus[0], NAN)
        assert [(node.host_time_ms, node.event_count) for node in nodes] == before

    def test_finite_edges_are_still_charged(self, machine):
        warmed(machine)
        machine.host_work("zero", 0.0)
        machine.advance_host(0.0)
        machine.transfer(machine.cpu, machine.gpu, 0)
        assert machine.gpu.kernel_ms(0.0, 0.0) > 0.0


class TestSynchronize:
    def test_synchronize_joins_all_queued_work(self, machine):
        warmed(machine)
        machine.launch_kernel(machine.gpu, "slow", flops=1e11, bytes_moved=0)
        kernel = machine.events[-1]
        assert machine.host_time_ms < kernel.end_ms
        machine.synchronize()
        assert machine.events[-1].kind == SYNC
        assert machine.host_time_ms == pytest.approx(kernel.end_ms)

    def test_synchronize_is_noop_when_idle(self, machine):
        warmed(machine)
        before = machine.host_time_ms
        machine.synchronize()
        assert machine.events[-1].duration_ms == 0.0
        assert machine.host_time_ms == before


class TestWarmup:
    def test_gpu_context_initialized_once(self, machine):
        machine.initialize_gpu(model_bytes=0)
        assert [e.kind for e in machine.events] == [WARMUP]
        assert machine.gpu_context_ready
        machine.initialize_gpu(model_bytes=0)
        assert len(machine.events) == machine.event_count == 1

    def test_first_gpu_kernel_triggers_warmup(self, machine):
        machine.launch_kernel(machine.gpu, "k", flops=1.0, bytes_moved=0)
        kinds = [e.kind for e in machine.events]
        assert kinds[0] == WARMUP
        assert KERNEL in kinds

    def test_weight_upload_is_a_transfer(self, machine):
        machine.initialize_gpu(model_bytes=1_000_000)
        events = machine.events[:]
        assert [e.kind for e in events] == [WARMUP, TRANSFER]
        assert events[1].name == "weight_upload"

    def test_cpu_only_machine_has_no_warmup(self):
        machine = Machine.cpu_only()
        machine.initialize_gpu()
        machine.allocation_warmup(1000)
        assert len(machine.events) == machine.event_count == 0
        assert machine.host_time_ms == 0.0


class TestRegionsAndMemory:
    def test_regions_annotate_events(self, machine):
        with machine.region("iteration"):
            with machine.region("Sampling"):
                machine.host_work("sample", 1.0)
        assert machine.events[-1].region == ("iteration", "Sampling")
        assert machine.current_region == ()

    def test_alloc_free_roundtrip(self, machine):
        alloc_id = machine.alloc(machine.cpu, 4096, tag="buf")
        assert machine.cpu.memory.current_bytes == 4096
        machine.host_work("use", 1.5)
        freed = machine.free(machine.cpu, alloc_id)
        assert freed == 4096
        assert machine.cpu.memory.current_bytes == 0
        assert machine.cpu.memory.peak_bytes == 4096

    def test_running_flop_counters(self, machine):
        warmed(machine)
        machine.launch_kernel(machine.cpu, "a", flops=100.0, bytes_moved=0)
        machine.launch_kernel(machine.gpu, "b", flops=50.0, bytes_moved=0)
        machine.launch_kernel(machine.gpu, "c", flops=25.0, bytes_moved=0)
        assert machine.device_flops(machine.cpu.name) == pytest.approx(100.0)
        assert machine.device_flops(machine.gpu.name) == pytest.approx(75.0)
        # The counters mirror an event-log scan, without the O(n^2) rescans.
        scanned = {}
        for event in machine.events:
            if event.kind == KERNEL:
                scanned[event.resource] = scanned.get(event.resource, 0.0) + event.flops
        assert machine.device_flops_totals() == pytest.approx(scanned)


def mixed_program(machine):
    """One fixed program over every charging call; returns the event log."""
    cpu, gpu = machine.cpu, machine.gpu
    worker = machine.stream(cpu, "worker")
    with machine.region("iteration"):
        machine.host_work("sample", 0.4)
        machine.host_work("prefetch", 0.3, stream=worker)
        machine.launch_kernel(cpu, "gather", 2e6, 8e4)
        buffer = machine.alloc(gpu, 1 << 16, tag="batch")
        machine.transfer(cpu, gpu, 1 << 16, non_blocking=True)
        machine.allocation_warmup(1 << 20)
        machine.launch_kernels(gpu, "gemm", 3, 5e7, 6e4)
        machine.launch_kernel(gpu, "reduce", 1e6, 2e4)
        machine.wait_event(machine.default_stream(gpu), machine.record_event(worker))
        machine.transfer(gpu, cpu, 4096)
        machine.stream_synchronize(worker)
        machine.free(gpu, buffer)
    machine.synchronize()
    return machine.events[:]


class TestConstruction:
    """A machine is built from one spec; the classmethods only name a preset."""

    def test_every_spelling_of_the_paper_machine_runs_the_same_program(self):
        reference = mixed_program(Machine())
        assert {event.kind for event in reference} == {
            KERNEL, TRANSFER, WARMUP, ALLOC, FREE, MARKER, SYNC}
        for build in (
            lambda: Machine("1xA6000"),
            Machine.cpu_gpu,
            lambda: Machine.from_spec("1xA6000"),
            lambda: Machine(machine_spec("1xA6000")),
        ):
            assert mixed_program(build()) == reference

    def test_a_hand_written_spec_is_accepted(self):
        spec = MachineSpec(name="2xA6000-nvlink", num_gpus=2, peer_link=NVLINK3)
        machine = Machine(spec, record_events=False)
        assert machine.spec is spec and machine.num_gpus == 2
        assert [gpu.name for gpu in machine.gpus] == ["rtx-a6000:0", "rtx-a6000:1"]
        assert len(machine.links) == 3
        assert Machine.cpu_only().spec is machine_spec("cpu-only")

    def test_the_parts_are_not_separate_arguments(self):
        for part in (
            "cpu_spec", "gpu_spec", "link_spec", "warmup_spec", "num_gpus", "peer_link_spec"
        ):
            for build in (Machine, Machine.cpu_gpu, Machine.cpu_only):
                with pytest.raises(TypeError, match=part):
                    build(**{part: None})
        assert list(inspect.signature(Machine.__init__).parameters) == [
            "self", "spec", "strict_memory", "record_events", "backend"]
        assert len(inspect.signature(Machine.transfer).parameters) == 1 + 7

    def test_an_unknown_preset_names_the_available_ones(self):
        with pytest.raises(KeyError, match="unknown machine spec '3xH100'; available: 1xA100"):
            Machine("3xH100")
        # The spec validates itself; the machine adds no second check.
        with pytest.raises(ValueError, match="num_gpus must be an integer >= 1"):
            MachineSpec(name="none", num_gpus=0)


EVENT_FIELDS = (
    "kind", "name", "resource", "start_ms", "end_ms", "flops", "bytes", "region", "src", "dst",
    "stream",
)


def memory_rows(machine, device):
    """The log's ``alloc`` / ``free`` rows on ``device``: its pool's footprint over time."""
    return [row for row in machine.events.rows if row[2] == device.name and row[0] in (ALLOC, FREE)]


#: ``site -> (kind it emits, call)``: every place the machine builds an event.
def memory_run_of(machine, device, tag, *steps):
    """Issue ``("alloc", nbytes)`` / ``("free", alloc id)`` steps in one run; what they returned."""
    returned = []
    with machine.memory_run(device, tag) as (alloc, free):
        for step, argument in steps:
            returned.append(alloc(argument) if step == "alloc" else free(argument))
    return returned


EMISSION_SITES = {
    "launch_kernel": (KERNEL, lambda m, tape: m.launch_kernel(m.gpu, "k", 1e6, 1e3)),
    "launch_kernels": (KERNEL, lambda m, tape: m.launch_kernels(m.gpu, "k", 3, 1e6, 1e3)),
    "replay": (KERNEL, lambda m, tape: m.replay(tape)),
    "host_work": (KERNEL, lambda m, tape: m.host_work("bookkeeping", 0.5)),
    "transfer": (TRANSFER, lambda m, tape: m.transfer(m.cpu, m.gpu, 4096)),
    "alloc": (ALLOC, lambda m, tape: m.alloc(m.gpu, 4096, tag="buf")),
    "free": (FREE, lambda m, tape: m.free(m.gpu, m.gpu.memory.alloc(64))),
    "memory_run alloc": (ALLOC, lambda m, tape: memory_run_of(m, m.gpu, "buf", ("alloc", 4096))),
    "memory_run free": (
        FREE, lambda m, tape: memory_run_of(m, m.gpu, "buf", ("free", m.gpu.memory.alloc(64)))),
    "synchronize": (SYNC, lambda m, tape: m.synchronize()),
    "device_synchronize": (SYNC, lambda m, tape: m.device_synchronize(m.gpu)),
    "stream_synchronize": (SYNC, lambda m, tape: m.stream_synchronize(m.default_stream("gpu"))),
    "event_synchronize": (
        SYNC, lambda m, tape: m.event_synchronize(m.default_stream("gpu").record_event(0.0))),
    "record_event": (MARKER, lambda m, tape: m.record_event(m.default_stream("gpu"))),
    "wait_event": (
        MARKER,
        lambda m, tape: m.wait_event(
            m.default_stream("gpu"), m.default_stream("cpu").record_event(0.0))),
    "allocation_warmup": (WARMUP, lambda m, tape: m.allocation_warmup(1 << 20)),
}


class TestEventContract:
    """An ``Event`` is a validated, immutable 11-field value."""

    FULL = (TRANSFER, "ids", "pcie", 1.0, 2.5, 0.0, 4096, ("iteration", "Sampling"), "cpu0",
            "gpu0", "copy")

    def test_fields_and_defaults(self):
        event = Event(KERNEL, "gemm", "gpu0", 1.0, 2.0)
        assert tuple(getattr(event, name) for name in EVENT_FIELDS) == (
            KERNEL, "gemm", "gpu0", 1.0, 2.0, 0.0, 0, (), "", "", "")
        full = Event(*self.FULL)
        assert tuple(getattr(full, name) for name in EVENT_FIELDS) == self.FULL
        assert Event(**dict(zip(EVENT_FIELDS, self.FULL))) == full

    @pytest.mark.parametrize("kind", [KERNEL, TRANSFER, WARMUP, ALLOC, FREE, SYNC, MARKER])
    def test_the_seven_kinds_are_accepted(self, kind):
        assert Event(kind, "x", "cpu0", 0.0, 0.0).kind == kind

    def test_an_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown event kind: 'launch'$"):
            Event("launch", "gemm", "gpu0", 1.0, 2.0)
        with pytest.raises(ValueError, match=r"^unknown event kind: None$"):
            Event(kind=None, name="gemm", resource="gpu0", start_ms=1.0, end_ms=2.0)

    def test_an_event_cannot_end_before_it_starts(self):
        message = r"^event 'gemm' ends \(1\.0\) before it starts \(2\.0\)$"
        with pytest.raises(ValueError, match=message):
            Event(KERNEL, "gemm", "gpu0", 2.0, 1.0)
        with pytest.raises(ValueError, match=message):
            Event(kind=KERNEL, name="gemm", resource="gpu0", start_ms=2.0, end_ms=1.0)
        # The kind is checked first, and a zero-length event is fine.
        with pytest.raises(ValueError, match="unknown event kind"):
            Event("launch", "gemm", "gpu0", 2.0, 1.0)
        assert Event(MARKER, "record:e", "gpu0", 2.0, 2.0).duration_ms == 0.0

    def test_events_are_immutable(self):
        event = Event(*self.FULL)
        for name in EVENT_FIELDS:
            with pytest.raises(AttributeError):
                setattr(event, name, getattr(event, name))
        with pytest.raises((AttributeError, TypeError)):
            event.note = "extra"
        assert event == Event(*self.FULL)

    def test_a_replaced_copy_is_checked_too(self):
        event = Event(*self.FULL)
        assert event._replace(end_ms=9.0) == Event(*self.FULL[:4], 9.0, *self.FULL[5:])
        with pytest.raises(ValueError, match="before it starts"):
            event._replace(end_ms=0.5)
        with pytest.raises(ValueError, match="unknown event kind"):
            event._replace(kind="launch")
        assert event == Event(*self.FULL)

    def test_equal_fields_mean_equal_events_and_hashes(self):
        one, two = Event(*self.FULL), Event(**dict(zip(EVENT_FIELDS, self.FULL)))
        assert one == two and hash(one) == hash(two) and len({one, two}) == 1
        for index, name in enumerate(EVENT_FIELDS):
            changed = list(self.FULL)
            changed[index] = {
                "kind": KERNEL, "start_ms": 0.5, "end_ms": 3.0, "flops": 7.0, "bytes": 1,
                "region": ("iteration",),
            }.get(name, "other")
            assert Event(*changed) != one, name

    def test_repr_names_every_field(self):
        assert repr(Event(KERNEL, "gemm", "gpu0", 1.0, 2.0, stream="default")) == (
            "Event(kind='kernel', name='gemm', resource='gpu0', start_ms=1.0, end_ms=2.0, "
            "flops=0.0, bytes=0, region=(), src='', dst='', stream='default')"
        )

    def test_derived_views(self):
        event = Event(KERNEL, "gemm", "gpu0", 1.0, 2.5, region=("iteration", "Attention"))
        assert event.duration_ms == 1.5

    @pytest.mark.parametrize("site", sorted(EMISSION_SITES))
    def test_every_emission_site_runs_the_constructor_checks(self, machine, site, monkeypatch):
        """No site builds an event around ``Event``'s validation."""
        kind, call = EMISSION_SITES[site]
        warmed(machine)
        tape = machine.record(lambda: machine.launch_kernel(machine.gpu, "taped", 1e6, 1e3))[1]
        cursor = machine.event_cursor()
        call(machine, tape)
        emitted = machine.events[cursor:]
        assert emitted and {event.kind for event in emitted} == {kind}
        assert all(type(event) is Event for event in emitted)
        # With its kind struck from the valid set, the same call is refused.
        monkeypatch.setattr(
            events_module, "_VALID_KINDS", events_module._VALID_KINDS - {kind})
        with pytest.raises(ValueError, match=f"unknown event kind: {kind!r}"):
            call(machine, tape)


class TestMemoryRun:
    """``Machine.memory_run``: the pool acts at once, the events are logged on the way out."""

    STEPS = (("alloc", 4096), ("alloc", 0), ("free", 0), ("alloc", 64), ("free", 2), ("free", 1))

    @staticmethod
    def observed(machine, returned):
        # A pool's footprint over time is its device's memory rows.
        pools = [
            (d.memory.current_bytes, d.memory.peak_bytes, memory_rows(machine, d),
             d.memory.usage_by_tag())
            for d in machine.devices
        ]
        return (machine.events[:], machine.event_count, machine.host_time_ms, pools, returned)

    @pytest.mark.parametrize("tag", ["cache:embedding", ""])
    def test_a_run_equals_the_scalar_calls_it_stands_for(self, tag):
        scalar, run = warmed(Machine.cpu_gpu()), warmed(Machine.cpu_gpu())
        for machine in (scalar, run):
            machine.host_work("before", 0.75)
        with scalar.region("iteration"), scalar.region("Cache"):
            returned = [
                scalar.alloc(scalar.gpu, argument, tag=tag) if step == "alloc"
                else scalar.free(scalar.gpu, argument)
                for step, argument in self.STEPS
            ]
        with run.region("iteration"), run.region("Cache"):
            assert memory_run_of(run, run.gpu, tag, *self.STEPS) == returned
        assert self.observed(run, returned) == self.observed(scalar, returned)
        allocated, *_, freed = run.events[-len(self.STEPS):]
        assert tuple(allocated) == (
            ALLOC, tag or "alloc", run.gpu.name, 6200.75, 6200.75, 0.0, 4096,
            ("iteration", "Cache"), "", "", "")
        assert (freed.kind, freed.name, freed.bytes, freed.stream) == (FREE, "free", 0, "")

    def test_the_pool_moves_inside_the_block_and_the_log_when_it_closes(self, machine):
        gpu = machine.gpu
        with machine.memory_run(gpu, "t") as (alloc, free):
            first = alloc(100)
            assert gpu.memory.current_bytes == 100 and gpu.memory.usage_by_tag() == {"t": 100}
            assert free(first) == 100 and gpu.memory.current_bytes == 0
            assert machine.event_count == 0 and len(machine.events) == 0
        assert machine.event_count == 2 and [e.kind for e in machine.events] == [ALLOC, FREE]

    def test_an_empty_run_emits_nothing(self, machine):
        assert memory_run_of(machine, machine.gpu, "t") == []
        assert machine.event_count == 0 and len(machine.events) == 0
        assert machine.gpu.memory.peak_bytes == 0

    def test_recording_off_counts_without_logging(self):
        machine = Machine.cpu_gpu(record_events=False)
        memory_run_of(machine, machine.gpu, "t", ("alloc", 8), ("free", 0))
        assert machine.event_count == 2 and len(machine.events) == 0
        assert (machine.gpu.memory.peak_bytes, machine.gpu.memory.current_bytes) == (8, 0)

    @pytest.mark.parametrize("intruder", [
        lambda m: m.host_work("h", 0.1),
        lambda m: m.launch_kernel(m.cpu, "k", 1e3, 1e3),
        lambda m: m.advance_host(0.5),
        lambda m: m.alloc(m.gpu, 8),
        lambda m: m.synchronize(),
    ])
    def test_anything_else_issued_inside_the_block_raises_on_close(self, machine, intruder):
        with pytest.raises(RuntimeError, match="memory run on .* interleaved"):
            with machine.memory_run(machine.gpu, "t") as (alloc, _):
                alloc(16)
                intruder(machine)
        # The run's own event is still logged, and the counter still matches the log.
        assert [e.bytes for e in machine.events if e.kind == ALLOC and e.name == "t"] == [16]
        assert machine.event_count == len(machine.events)

    def test_a_strict_pool_raises_at_the_same_call_and_keeps_the_earlier_events(self):
        scalar, run = Machine.cpu_gpu(strict_memory=True), Machine.cpu_gpu(strict_memory=True)
        room = scalar.gpu.memory.capacity_bytes
        with pytest.raises(OutOfMemoryError) as direct:
            for nbytes in (room - 10, 4, 7, 1):
                scalar.alloc(scalar.gpu, nbytes, tag="t")
        issued = []
        with pytest.raises(OutOfMemoryError) as batched:
            with run.memory_run(run.gpu, "t") as (alloc, _):
                for nbytes in (room - 10, 4, 7, 1):
                    issued.append(alloc(nbytes))
        assert issued == [0, 1] and str(batched.value) == str(direct.value)
        assert self.observed(run, None) == self.observed(scalar, None)
        assert len(run.events) == run.event_count == 2

    def test_allocations_are_taped_and_replay_byte_identically(self):
        def block(machine):
            machine.launch_kernel(machine.gpu, "k", 1e6, 1e3)
            with machine.region("Cache"):
                memory_run_of(machine, machine.gpu, "rows", ("alloc", 256), ("alloc", 64))
            machine.launch_kernel(machine.gpu, "k", 2e6, 1e3)

        direct, replayed = warmed(Machine.cpu_gpu()), warmed(Machine.cpu_gpu())
        _, tape = direct.record(lambda: block(direct))
        assert tape is not None and tape.events == 4
        block(direct)
        replayed.record(lambda: block(replayed))
        replayed.replay(tape)
        assert self.observed(replayed, None) == self.observed(direct, None)

    def test_a_free_inside_a_recording_yields_no_tape(self, machine):
        held = machine.alloc(machine.gpu, 32)
        _, tape = machine.record(
            lambda: memory_run_of(machine, machine.gpu, "rows", ("alloc", 8), ("free", held)))
        assert tape is None
        assert machine.gpu.memory.current_bytes == 8


def collect_twice():
    """Two full collections: an exact tuple is untracked once its elements are,
    and one pass can visit a row before the fresh region tuple it holds."""
    gc.collect()
    gc.collect()


class TestEventRows:
    """The log stores plain 11-field rows; every read is an ``Event`` view of one."""

    @staticmethod
    def taped(machine):
        def block():
            machine.launch_kernel(machine.gpu, "taped", 1e6, 1e3)
            machine.alloc(machine.gpu, 64, tag="taped")
            machine.transfer(machine.cpu, machine.gpu, 128)

        return machine.record(block)[1]

    @staticmethod
    def program(machine, tape):
        """Scalar emits, a kernel run, two memory runs and a tape replay."""
        cpu, gpu = machine.cpu, machine.gpu
        with machine.region("iteration"):
            machine.host_work("sample", 0.2)
            machine.launch_kernel(gpu, "gemm", 1e6, 1e3)
            machine.transfer(cpu, gpu, 4096, non_blocking=True)
            machine.launch_kernels(gpu, "step", 4, 1e6, 1e3)
            with machine.region("Cache"):
                first, _ = memory_run_of(machine, gpu, "rows", ("alloc", 256), ("alloc", 64))
                memory_run_of(machine, gpu, "rows", ("free", first))
            machine.free(gpu, machine.alloc(gpu, 32, tag="buf"))
            cpu_done = machine.record_event(machine.default_stream(cpu))
            machine.wait_event(machine.default_stream(gpu), cpu_done)
            machine.synchronize()
        machine.replay(tape)

    def test_no_stored_row_stays_tracked_by_the_garbage_collector(self):
        machine = warmed(Machine.cpu_gpu())
        self.program(machine, self.taped(machine))
        collect_twice()
        rows = machine.events.rows
        assert len(rows) == machine.event_count > 20
        assert {type(row) for row in rows} == {tuple} and {len(row) for row in rows} == {11}
        assert {row[0] for row in rows} == {KERNEL, TRANSFER, WARMUP, ALLOC, FREE, MARKER, SYNC}
        assert not [row for row in rows if gc.is_tracked(row)]

    def test_logging_twenty_thousand_events_adds_no_tracked_objects(self):
        machine = warmed(Machine.cpu_gpu())
        tape = self.taped(machine)
        self.program(machine, tape)  # every cost and route memo is warm
        collect_twice()
        before, logged = len(gc.get_objects()), machine.event_count
        while machine.event_count - logged < 20_000:
            self.program(machine, tape)
        collect_twice()
        # As ``Event`` instances (a tuple subclass) the log alone was +20 000.
        assert len(gc.get_objects()) - before < 100

    def test_every_read_is_an_event_equal_to_its_stored_row(self):
        machine = warmed(Machine.cpu_gpu())
        self.program(machine, self.taped(machine))
        log, rows = machine.events, machine.events.rows
        cursor = len(rows) // 2
        reads = {
            "iter": list(log),
            "index": [log[i] for i in range(len(log))],
            "negative index": [log[i - len(log)] for i in range(len(log))],
            "slice": log[:],
        }
        for name, events in reads.items():
            assert all(type(e) is Event for e in events), name
            assert events == rows, name
        tail = log[cursor:]
        assert all(type(e) is Event for e in tail) and tail == rows[cursor:]
        on_gpu = [e for e in log if e.resource == machine.gpu.name and e.stream == "default"]
        assert on_gpu == [r for r in rows if r[2] == machine.gpu.name and r[10] == "default"]

    def test_every_charge_method_is_a_command(self):
        """The ten public charge methods return nothing; what they did is in the log."""
        machine = Machine("2xA100-pcie")
        gpu0, gpu1 = machine.gpus
        machine.initialize_gpu(device=gpu0)
        marker = machine.record_event(machine.default_stream(gpu0))
        rows = machine.events.rows
        charges = {
            "initialize_gpu": (lambda: machine.initialize_gpu(model_bytes=1 << 20, device=gpu1), 2),
            "launch_kernel": (lambda: machine.launch_kernel(gpu0, "k", 1e6, 1e3), 1),
            "launch_kernels": (lambda: machine.launch_kernels(gpu1, "k", 3, 1e6, 1e3), 3),
            "host_work": (lambda: machine.host_work("h", 0.1), 1),
            "transfer": (lambda: machine.transfer(gpu0, gpu1, 4096), 2),
            "allocation_warmup": (lambda: machine.allocation_warmup(1 << 20, device=gpu1), 1),
            "stream_synchronize": (
                lambda: machine.stream_synchronize(machine.default_stream(gpu0)), 1),
            "event_synchronize": (lambda: machine.event_synchronize(marker), 1),
            "device_synchronize": (lambda: machine.device_synchronize(gpu1), 1),
            "synchronize": (lambda: machine.synchronize(), 1),
        }
        for name, (call, count) in charges.items():
            cursor = len(rows)
            assert call() is None, name
            assert len(rows) - cursor == count, name
        assert len(rows) == machine.event_count


class TestIntervalContract:
    def test_an_interval_is_an_immutable_two_field_value(self):
        interval = Interval(1.0, 2.5)
        assert (interval.start_ms, interval.end_ms) == (1.0, 2.5)
        assert interval.duration_ms == 1.5
        assert interval == Interval(1.0, 2.5) != Interval(1.0, 3.0)
        assert hash(interval) == hash(Interval(1.0, 2.5))
        for name in ("start_ms", "end_ms", "note"):
            with pytest.raises(AttributeError):
                setattr(interval, name, 0.0)

    def test_a_timeline_admits_no_interval_that_ends_before_it_starts(self):
        timeline = Timeline("t")
        with pytest.raises(ValueError, match="duration must be non-negative"):
            timeline.reserve(0.0, -1e-9)
        with pytest.raises(ValueError, match="duration must be non-negative"):
            timeline.reserve_run(0.0, 0.0, 0.0, [1.0, -1e-9], False)
        assert len(timeline) == 0
        with pytest.raises(ValueError, match="interval ends before it starts"):
            Timeline.from_intervals("bad", [(0.0, 1.0), (3.0, 2.0)])
        assert Timeline.from_intervals("ok", [(0.0, 1.0), (2.0, 2.0)]).intervals == (
            Interval(0.0, 1.0), Interval(2.0, 2.0))


def test_observation_leaves_every_event_field_as_it_was():
    """Export, validation, attribution and analysis only read the event log."""
    dataset = load("wikipedia", scale="tiny")
    machine = Machine.cpu_gpu(backend="shape")
    with machine.activate():
        model = TGAT(machine, dataset, TGATConfig(num_neighbors=5, batch_size=8))
    tracer = Tracer().attach(machine)
    requests = generate_requests(
        dataset.stream, PoissonProcess(600.0, seed=3),
        duration_ms=150.0, events_per_request=1, slo_ms=50.0,
    )
    policy = make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0)
    server = InferenceServer(
        model, policy, overlap=True, tracer=tracer, metrics=MetricsRegistry())
    profiler = Profiler(machine)
    with profiler.capture("serve_single"):
        report = server.serve(requests, arrival_name="poisson")

    def fields():
        return [tuple(getattr(event, name) for name in EVENT_FIELDS) for event in machine.events]

    held = list(machine.events.rows)
    before = fields()
    assert len(before) == machine.event_count > 500
    assert model.replay_stats["replayed"] > 0
    payload = build_trace(tracer, report=report, label="serve_single")
    validate_trace(payload)
    path = attribute_request(payload, pick_request(payload, "p99"))
    assert path["total"] > 0
    assert compute_breakdown(profiler.last_profile).total_ms > 0
    assert analyze_profile(profiler.last_profile).findings
    assert fields() == before
    # The stored rows themselves, not views built for this read.
    assert len(machine.events.rows) == len(held)
    assert all(now is then for now, then in zip(machine.events.rows, held))


def test_profile_analysis_reads_rows_and_leaves_the_events_view_unbuilt():
    """A capture keeps the log's own rows; only reading ``events`` builds them all."""
    dataset = load("wikipedia", scale="tiny")
    machine = Machine.cpu_gpu(backend="shape")
    with machine.activate():
        model = TGAT(machine, dataset, TGATConfig(num_neighbors=5, batch_size=8))
    requests = generate_requests(
        dataset.stream, PoissonProcess(600.0, seed=3),
        duration_ms=150.0, events_per_request=1, slo_ms=50.0,
    )
    server = InferenceServer(
        model, make_policy("timeout", max_batch_size=8, batch_timeout_ms=4.0), overlap=True)
    profiler = Profiler(machine)
    with profiler.capture("serve_single"):
        server.serve(requests, arrival_name="poisson")
    profile = profiler.last_profile
    rows = profile.rows
    assert len(rows) > 500
    assert all(row is stored for row, stored in zip(rows, machine.events.rows[-len(rows):]))

    gpu = machine.gpu.name
    assert profile.per_gpu_utilization()[gpu] > 0
    assert len(profile.busy_timeline(gpu)) > 0 and len(profile.busy_timeline(gpu, True)) > 0
    assert profile.kernel_count(gpu) > 1
    assert profile.kernel_time_ms(gpu) > profile.mean_kernel_ms(gpu) > 0
    assert profile.transfer_time_ms() > 0 and profile.transfer_bytes() > 0
    assert profile.sync_wait_ms() > 0 and profile.warmup_ms() > 0
    assert len(profile.memory_timeline("gpu")) > 2
    assert compute_breakdown(profile).total_ms > 0
    assert analyze_profile(profile).findings
    assert "events" not in vars(profile)

    events = profile.events
    assert "events" in vars(profile) and profile.events is events
    assert events == rows and all(type(event) is Event for event in events)
