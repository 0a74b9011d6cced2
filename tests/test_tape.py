"""Record-and-replay charging at the ``hw`` boundary (``repro.hw.tape``).

One scripted charge sequence is issued three ways -- direct on machine A,
under ``Machine.record`` on B, and by ``Machine.replay`` of B's tape on a
fresh C -- and every observable of the three machines must be equal.  The
negative cases each put one un-tapeable call inside the block and require
that no tape comes back while the recorded run itself stays the direct one.
The last section covers the model-side store, ``DGNNModel._replayed``.
"""

import pytest

from repro.fuzz.program import signature
from repro.hw.events import ALLOC, FREE
from repro.hw.machine import Machine
from repro.hw.memory import OutOfMemoryError
from repro.hw.tape import _KERNEL
from repro.models.base import DGNNModel
from repro.tensor import Tensor, meta

SPECS = ("1xA6000", "2xA100-pcie", "2xA100-nvlink")


def _machine(spec="1xA6000", *, warm=True, **kwargs):
    machine = Machine.from_spec(spec, **kwargs)
    if warm:
        for gpu in machine.gpus:
            machine.initialize_gpu(model_bytes=1 << 16, device=gpu)
    return machine


def _script(machine):
    """Kernels on both device kinds, both transfer modes, an alloc, nested regions."""
    cpu, gpu = machine.cpu, machine.gpus[0]
    machine.launch_kernel(cpu, "ungrouped", 3.0e5, 2048.0)
    with machine.region("outer"):
        # The first GPU touch: on a cold machine the warm-up fires in here.
        machine.launch_kernel(gpu, "gemm", 2.0e6, 4096.0)
        machine.launch_kernel(cpu, "host_gather", 1.0e5, 8192.0)
        machine.transfer(cpu, gpu, 4096, name="ids")
        with machine.region("inner"):
            machine.transfer(cpu, gpu, 1024, name="mask", non_blocking=True)
            machine.alloc(gpu, 4096, tag="ids")
            machine.launch_kernel(gpu, "softmax", 1.0e4, 512.5)
        machine.launch_kernel(gpu, "gemm", 2.0e6, 4096.0)
        machine.alloc(gpu, 256, tag="scores")
        if machine.num_gpus > 1:
            # Staged d2h + h2d on the PCIe box, one p2p hop over NVLink.
            machine.transfer(gpu, machine.gpus[1], 2048, name="peer_rows")
            machine.launch_kernel(machine.gpus[1], "reduce", 5.0e4, 2048.0)
    machine.transfer(gpu, cpu, 256, name="scores")


def _timelines(resource):
    return {
        stream.name: [(i.start_ms, i.end_ms) for i in stream.timeline.intervals]
        for stream in resource.streams
    }


def _observables(machine):
    return {
        "signature": signature(machine),
        "host_time_ms": machine.host_time_ms,
        "event_count": machine.event_count,
        "flops": machine.device_flops_totals(),
        "busy": {device.name: device.busy_ms() for device in machine.devices},
        "timelines": {r.name: _timelines(r) for r in (*machine.devices, *machine.links)},
        "pools": {
            device.name: (
                device.memory.current_bytes,
                device.memory.peak_bytes,
                # The pool's footprint over time: its device's memory rows.
                [row for row in machine.events.rows
                 if row[2] == device.name and row[0] in (ALLOC, FREE)],
            )
            for device in machine.devices
        },
        "ready": machine.gpu_context_ready,
        "region": machine.current_region,
        "recording": machine.recording,
    }


def _recorded(spec="1xA6000", script=_script, **kwargs):
    """``(recorder machine, tape)`` for ``script`` on a warmed machine."""
    recorder = _machine(spec, **kwargs)
    _, tape = recorder.record(lambda: script(recorder))
    return recorder, tape


# -- direct == recorded == replayed -------------------------------------------


@pytest.mark.parametrize("spec", SPECS)
def test_direct_recorded_and_replayed_machines_are_identical(spec):
    direct = _machine(spec)
    _script(direct)
    recorder, tape = _recorded(spec)
    assert tape is not None and tape.events == direct.event_count - recorder.num_gpus * 2
    replayed = _machine(spec)
    replayed.replay(tape)
    expected = _observables(direct)
    assert len(expected["signature"]) == direct.event_count
    assert _observables(recorder) == expected
    assert _observables(replayed) == expected


@pytest.mark.parametrize("spec", SPECS)
def test_a_tape_replays_twice_in_a_row(spec):
    direct = _machine(spec)
    _script(direct)
    _script(direct)
    _, tape = _recorded(spec)
    replayed = _machine(spec)
    replayed.replay(tape)
    replayed.replay(tape)
    assert _observables(replayed) == _observables(direct)
    # ... and after its own recording, on the recorder itself.
    recorder, tape = _recorded(spec)
    recorder.replay(tape)
    assert _observables(recorder) == _observables(direct)


def test_events_carry_the_recorded_region_src_and_dst():
    _, tape = _recorded("2xA100-pcie")
    machine = _machine("2xA100-pcie")
    start = machine.event_cursor()
    machine.replay(tape)
    events = machine.events[start:]
    regions = {event.region for event in events}
    assert regions == {(), ("outer",), ("outer", "inner")}
    staged = [event for event in events if event.name == "peer_rows"]
    assert [(e.src, e.dst) for e in staged] == [(machine.gpus[0].name, machine.gpus[1].name)] * 2
    assert len({e.resource for e in staged}) == 2


@pytest.mark.parametrize("resource", ("cpu", "gpu"))
def test_replay_inside_a_use_stream_override_lands_on_that_stream(resource):
    def run(machine, body):
        with machine.use_stream(machine.stream(resource, "side")):
            body(machine)

    direct = _machine()
    run(direct, _script)
    # Recorded on the default streams: the stream is resolved at replay time.
    _, tape = _recorded()
    replayed = _machine()
    run(replayed, lambda machine: machine.replay(tape))
    assert _observables(replayed) == _observables(direct)
    side = [e for e in replayed.events if e.stream == "side"]
    assert side and {e.resource for e in side} == {replayed.device(resource).name}
    # ... which is not where the tape's own recorder put them.
    blocking = _machine()
    _script(blocking)
    assert signature(blocking) != signature(replayed)


def test_replay_with_event_recording_off():
    reference = _machine()
    _script(reference)
    direct = _machine(record_events=False)
    _script(direct)
    _, tape = _recorded()
    replayed = _machine(record_events=False)
    replayed.replay(tape)
    assert len(replayed.events) == 0
    assert _observables(replayed) == _observables(direct)
    assert replayed.event_count == reference.event_count
    assert replayed.host_time_ms == reference.host_time_ms
    # A tape recorded without an event log replays onto one that keeps it.
    _, silent_tape = _recorded(record_events=False)
    logged = _machine()
    logged.replay(silent_tape)
    assert _observables(logged) == _observables(reference)


@pytest.mark.parametrize("spec", SPECS)
def test_replay_on_a_cold_machine_fires_the_lazy_warm_up(spec):
    direct = _machine(spec, warm=False)
    _script(direct)
    _, tape = _recorded(spec)
    replayed = _machine(spec, warm=False)
    replayed.replay(tape)
    assert replayed.gpu_context_ready
    warm_ups = [e for e in replayed.events if e.name == "context_init"]
    assert [e.region for e in warm_ups] == [("outer",)] * replayed.num_gpus
    assert _observables(replayed) == _observables(direct)


def test_a_recording_that_warmed_a_gpu_is_dropped():
    direct = _machine(warm=False)
    _script(direct)
    recorder = _machine(warm=False)
    _, tape = recorder.record(lambda: _script(recorder))
    assert tape is None
    assert _observables(recorder) == _observables(direct)


# -- sealed segments == entries -------------------------------------------------


def _unsealed(tape):
    """The entries a sealed tape's segments stand for, one per kernel row."""
    entries = []
    for segment in tape.segments:
        if segment[0] == _KERNEL:
            tag, regions, device, names, flops, sizes, durations = segment
            entries.extend(
                (tag, region, device, name, flop, size, duration)
                for region, name, flop, size, duration in zip(
                    regions, names, flops, sizes, durations
                )
            )
        else:
            entries.append(segment)
    return entries


def _run_lengths(tape):
    return [len(segment[3]) for segment in tape.segments if segment[0] == _KERNEL]


@pytest.mark.parametrize("spec", SPECS)
def test_sealing_conserves_the_entries(spec):
    recorder, tape = _recorded(spec)
    assert _unsealed(tape) == tape.entries
    singles = sum(1 for segment in tape.segments if segment[0] != _KERNEL)
    assert sum(_run_lengths(tape)) + singles == len(tape.entries)
    # softmax + gemm are back to back on the GPU, across a region boundary.
    assert max(_run_lengths(tape)) == 2
    entries, events, segments = list(tape.entries), tape.events, list(tape.segments)
    tape.seal()
    assert (tape.entries, tape.events, tape.segments) == (entries, events, segments)
    assert tape.events == recorder.event_count - recorder.num_gpus * 2


def _alternating(machine):
    cpu, gpu = machine.cpu, machine.gpus[0]
    with machine.region("outer"):
        for step in range(4):
            machine.launch_kernel(cpu, f"host_{step}", 1.0e5 + step, 2048.0)
            machine.launch_kernel(gpu, f"device_{step}", 2.0e6 + step, 4096.0)


def test_alternating_devices_make_every_kernel_its_own_run():
    direct = _machine()
    _alternating(direct)
    recorder, tape = _recorded(script=_alternating)
    assert _run_lengths(tape) == [1] * 8 and len(tape.entries) == 8
    replayed = _machine()
    replayed.replay(tape)
    assert _observables(recorder) == _observables(direct)
    assert _observables(replayed) == _observables(direct)


def _late_gpu(machine):
    """The GPU is first touched by a kernel, late and two regions deep."""
    cpu, gpu = machine.cpu, machine.gpus[0]
    machine.launch_kernel(cpu, "a", 1.0e5, 2048.0)
    with machine.region("outer"):
        machine.launch_kernel(cpu, "b", 2.0e5, 2048.0)
        machine.alloc(cpu, 128, tag="host_buf")
        with machine.region("inner"):
            machine.launch_kernel(gpu, "first_gpu", 2.0e6, 4096.0)
        # Same run as ``first_gpu``, other region.
        machine.launch_kernel(gpu, "second_gpu", 1.0e6, 4096.0)


def test_a_warm_up_fired_mid_replay_carries_its_launch_region():
    direct = _machine(warm=False)
    _late_gpu(direct)
    _, tape = _recorded(script=_late_gpu)
    assert _run_lengths(tape) == [2, 2]
    replayed = _machine(warm=False)
    replayed.replay(tape)
    names = [event.name for event in replayed.events]
    assert names == ["a", "b", "host_buf", "context_init", "first_gpu", "second_gpu"]
    regions = {event.name: event.region for event in replayed.events}
    assert regions["context_init"] == regions["first_gpu"] == ("outer", "inner")
    assert regions["second_gpu"] == ("outer",)
    assert _observables(replayed) == _observables(direct)


def _gpu_burst(machine):
    gpu = machine.gpus[0]
    with machine.region("outer"):
        for step in range(5):
            machine.launch_kernel(gpu, f"step_{step}", 1.0e6 * (step + 1), 4096.0)
        machine.launch_kernel(machine.cpu, "host_tail", 1.0e5, 1024.0)


@pytest.mark.parametrize("resource", ("cpu", "gpu"))
def test_a_whole_run_honours_the_stream_override_at_replay_time(resource):
    def run(machine, body):
        machine.wait_event(
            machine.stream(resource, "side"),
            machine.default_stream("cpu").record_event(machine.host_time_ms + 0.75),
        )
        with machine.use_stream(machine.stream(resource, "side")):
            body(machine)

    direct = _machine()
    run(direct, _gpu_burst)
    _, tape = _recorded(script=_gpu_burst)
    assert _run_lengths(tape) == [5, 1]
    replayed = _machine()
    run(replayed, lambda machine: machine.replay(tape))
    assert _observables(replayed) == _observables(direct)
    on_side = [e.name for e in replayed.events if e.stream == "side" and e.kind == "kernel"]
    expected = [f"step_{step}" for step in range(5)] if resource == "gpu" else ["host_tail"]
    assert on_side == expected


# -- negative cases: one un-tapeable call inside the block ---------------------


def _explicit_stream(machine):
    gpu = machine.gpus[0]
    machine.launch_kernel(gpu, "pinned", 1.0e5, 1024.0, stream=machine.default_stream(gpu))


def _stream_override(machine):
    with machine.use_stream(machine.stream("gpu", "side")):
        machine.launch_kernel(machine.gpus[0], "overridden", 1.0e5, 1024.0)


def _unordered_transfer(machine):
    machine.transfer(machine.cpu, machine.gpus[0], 512, name="resident", wait_for_source=False)


UNTAPEABLE = {
    "synchronize": lambda m: m.synchronize(),
    "stream_synchronize": lambda m: m.stream_synchronize(m.default_stream("gpu")),
    "record_event": lambda m: m.record_event(m.default_stream("gpu")),
    "wait_event": lambda m: m.wait_event(
        m.default_stream("gpu"), m.default_stream("cpu").record_event(m.host_time_ms)
    ),
    "free": lambda m: m.free(m.gpus[0], m.alloc(m.gpus[0], 64)),
    "host_work": lambda m: m.host_work("bookkeeping", 0.25),
    "launch_kernels": lambda m: m.launch_kernels(m.gpus[0], "rnn_step", 3, 1.0e5, 1024.0),
    "allocation_warmup": lambda m: m.allocation_warmup(1 << 20),
    "advance_host": lambda m: m.advance_host(0.5),
    "use_stream": _stream_override,
    "explicit_stream": _explicit_stream,
    "unordered_transfer": _unordered_transfer,
}


@pytest.mark.parametrize("call", sorted(UNTAPEABLE))
def test_an_untapeable_call_leaves_no_tape_and_the_direct_timeline(call):
    open_tapes = []

    def script(machine):
        open_tapes.append(machine._tape)
        _script(machine)
        UNTAPEABLE[call](machine)
        machine.launch_kernel(machine.gpus[0], "after", 1.0e5, 1024.0)

    direct = _machine()
    script(direct)
    recorder, tape = _recorded(script=script)
    assert tape is None
    assert _observables(recorder) == _observables(direct)
    # The tape that failed completeness was dropped unsealed.
    assert open_tapes[0] is None and open_tapes[1].entries
    assert open_tapes[1].segments is None


def test_a_replay_inside_a_recording_drops_the_outer_tape():
    _, inner = _recorded()
    recorder, outer = _recorded(script=lambda machine: machine.replay(inner))
    assert outer is None
    direct = _machine()
    _script(direct)
    assert _observables(recorder) == _observables(direct)


def test_recordings_do_not_nest():
    machine = _machine()
    with pytest.raises(RuntimeError, match="already open"):
        machine.record(lambda: machine.record(lambda: None))
    assert not machine.recording


def test_a_tape_only_replays_under_the_region_it_was_recorded_in():
    _, tape = _recorded()
    machine = _machine()
    before = _observables(machine)
    with machine.region("elsewhere"):
        with pytest.raises(ValueError, match="cannot replay under"):
            machine.replay(tape)
    assert _observables(machine) == before


# -- exceptions: same entry, same preceding events, nothing left open ----------


def _oom_script(machine):
    gpu = machine.gpus[0]
    with machine.region("outer"):
        machine.launch_kernel(gpu, "before", 1.0e5, 1024.0)
        machine.alloc(gpu, 1024, tag="fits")
        with machine.region("inner"):
            machine.launch_kernel(gpu, "still_before", 1.0e5, 1024.0)
            machine.alloc(gpu, gpu.memory.capacity_bytes, tag="too_big")
            machine.launch_kernel(gpu, "never", 1.0e5, 1024.0)


def test_a_strict_pool_raises_at_the_same_entry_direct_and_replayed():
    direct = _machine(strict_memory=True)
    with pytest.raises(OutOfMemoryError) as direct_error:
        _oom_script(direct)
    # Recorded where the pool only reports the over-subscription.
    _, tape = _recorded(script=_oom_script)
    assert tape is not None
    replayed = _machine(strict_memory=True)
    with pytest.raises(OutOfMemoryError) as replay_error:
        replayed.replay(tape)
    assert str(replay_error.value) == str(direct_error.value)
    assert _observables(replayed) == _observables(direct)
    assert [e.name for e in replayed.events][-3:] == ["before", "fits", "still_before"]
    assert replayed.current_region == () and not replayed.recording


def _three_allocs(machine):
    gpu = machine.gpus[0]
    with machine.region("outer"):
        for step in range(3):
            for kernel in range(3):
                machine.launch_kernel(gpu, f"k{step}_{kernel}", 1.0e5 * (kernel + 1), 1024.0)
            with machine.region(f"alloc_{step}"):
                machine.alloc(gpu, 1000, tag=f"buf_{step}")
        machine.launch_kernel(gpu, "tail", 1.0e5, 1024.0)


@pytest.mark.parametrize("failing", (1, 2, 3))
def test_a_strict_pool_raises_at_the_kth_alloc_of_a_replay(failing):
    def squeezed():
        """A strict machine whose GPU pool has room for ``failing - 1`` buffers."""
        machine = _machine(strict_memory=True)
        pool = machine.gpus[0].memory
        pool.alloc(pool.capacity_bytes - pool.current_bytes - 1000 * (failing - 1) - 500)
        return machine

    direct = squeezed()
    with pytest.raises(OutOfMemoryError) as direct_error:
        _three_allocs(direct)
    _, tape = _recorded(script=_three_allocs)
    assert _run_lengths(tape) == [3, 3, 3, 1]
    replayed = squeezed()
    with pytest.raises(OutOfMemoryError) as replay_error:
        replayed.replay(tape)
    assert str(replay_error.value) == str(direct_error.value)
    # Event log, host clock, FLOP totals, timelines and pools up to the
    # failing alloc, and the ambient region restored.
    assert _observables(replayed) == _observables(direct)
    kernels = [e.name for e in replayed.events if e.kind == "kernel" and e.name.startswith("k")]
    assert len(kernels) == 3 * failing and "tail" not in {e.name for e in replayed.events}
    assert replayed.current_region == () and not replayed.recording


def test_an_exception_while_recording_closes_the_recording():
    direct = _machine(strict_memory=True)
    with pytest.raises(OutOfMemoryError):
        _oom_script(direct)
    recorder = _machine(strict_memory=True)
    with pytest.raises(OutOfMemoryError):
        recorder.record(lambda: _oom_script(recorder))
    assert not recorder.recording and recorder.current_region == ()
    assert _observables(recorder) == _observables(direct)
    # The machine records again afterwards.
    _, tape = recorder.record(lambda: recorder.launch_kernel(recorder.gpus[0], "k", 1.0, 1.0))
    assert tape is not None and len(tape.entries) == 1


# -- the model-side store ------------------------------------------------------


class _Scripted(DGNNModel):
    """A model whose one taped site runs whatever block the test hands it."""

    def run(self, key, block=_script, tracked=False):
        def compute():
            block(self.machine)
            data = meta.placeholder((2, 3))
            return Tensor(data, self.compute_device, name="out", track_memory=tracked)

        with self.machine.activate():
            return self._replayed(key, compute)


def _stats(recorded=0, replayed=0, direct=0):
    return {"recorded": recorded, "replayed": replayed, "direct": direct}


def test_a_key_records_once_then_replays():
    direct = _machine(backend="shape")
    for _ in range(4):
        _script(direct)
    model = _Scripted(_machine(backend="shape"))
    outputs = [model.run("a"), model.run("b"), model.run("a"), model.run("b")]
    assert model.replay_stats == _stats(recorded=2, replayed=2)
    assert _observables(model.machine) == _observables(direct)
    for out in outputs:
        assert out.shape == (2, 3) and out.device == model.compute_device
        assert meta.is_placeholder(out.data) and not out.is_tracked


def test_replay_stats_is_a_read_only_copy():
    model = _Scripted(_machine(backend="shape"))
    model.run("a")
    model.replay_stats["recorded"] = 99
    assert model.replay_stats == _stats(recorded=1)


def test_the_numeric_backend_never_records():
    model = _Scripted(_machine())
    model.run("a")
    model.run("a")
    assert model.replay_stats == _stats()


def test_a_missing_key_runs_direct():
    model = _Scripted(_machine(backend="shape"))
    model.run(None)
    model.run(None)
    assert model.replay_stats == _stats(direct=2)


@pytest.mark.parametrize("call", sorted(UNTAPEABLE))
def test_a_key_whose_tape_was_dropped_runs_direct_from_then_on(call):
    def script(machine):
        _script(machine)
        UNTAPEABLE[call](machine)

    direct = _machine(backend="shape")
    model = _Scripted(_machine(backend="shape"))
    for _ in range(3):
        script(direct)
        model.run("a", script)
    assert model.replay_stats == _stats(direct=3)
    assert _observables(model.machine) == _observables(direct)


def test_a_tracked_result_is_not_taped():
    # Its allocation id lives in the returned tensor; a placeholder has none.
    model = _Scripted(_machine(backend="shape"))
    first = model.run("a", tracked=True)
    second = model.run("a", tracked=True)
    assert first.is_tracked and second.is_tracked
    assert model.replay_stats == _stats(direct=2)


def test_a_site_reached_inside_a_recording_runs_direct():
    model = _Scripted(_machine(backend="shape"))
    model.run("inner")
    _, outer = model.machine.record(lambda: model.run("inner"))
    assert outer is not None
    assert model.replay_stats == _stats(recorded=1, direct=1)


def test_the_store_is_cleared_wholesale_at_its_limit(monkeypatch):
    monkeypatch.setattr("repro.models.base._TAPE_LIMIT", 2)
    model = _Scripted(_machine(backend="shape"))
    for key in ("a", "b", "c", "a"):
        model.run(key)
    # "c" found the store full and emptied it, so "a" records a second time.
    assert model.replay_stats == _stats(recorded=4)
    model.run("c")
    assert model.replay_stats == _stats(recorded=4, replayed=1)
