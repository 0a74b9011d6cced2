"""Profiler capture windows, FLOP deltas and per-stream statistics."""

import numpy as np
import pytest

from repro.core import Profiler
from repro.hw import KERNEL, SYNC, TRANSFER, Machine
from repro.tensor import Tensor, ops


@pytest.fixture
def machine():
    m = Machine.cpu_gpu()
    m.initialize_gpu(model_bytes=0)
    return m


class TestCaptureWindows:
    def test_capture_bounds_and_event_slice(self, machine):
        profiler = Profiler(machine)
        with machine.activate():
            machine.host_work("outside", 2.0)
            start = machine.host_time_ms
            with profiler.capture("window"):
                machine.host_work("inside", 3.0)
        profile = profiler.last_profile
        assert profile.start_ms == pytest.approx(start)
        assert profile.end_ms == pytest.approx(machine.host_time_ms)
        names = [e.name for e in profile.events]
        assert "inside" in names and "outside" not in names

    def test_capture_synchronizes_queued_gpu_work(self, machine):
        profiler = Profiler(machine)
        with machine.activate():
            with profiler.capture("gpu"):
                machine.launch_kernel(machine.gpu, "slow", flops=1e11, bytes_moved=0)
        profile = profiler.last_profile
        kernel = next(e for e in profile.events if e.kind == KERNEL)
        assert profile.end_ms >= kernel.end_ms

    def test_capture_without_synchronize(self, machine):
        profiler = Profiler(machine)
        with machine.activate():
            with profiler.capture("nosync", synchronize=False):
                machine.launch_kernel(machine.gpu, "slow", flops=1e11, bytes_moved=0)
        profile = profiler.last_profile
        kernel = next(e for e in profile.events if e.kind == KERNEL)
        assert profile.end_ms < kernel.end_ms

    def test_consecutive_windows_partition_flops(self, machine):
        profiler = Profiler(machine)
        with machine.activate():
            x = Tensor(np.ones((32, 32), dtype=np.float32), machine.gpu)
            with profiler.capture("first"):
                ops.matmul(x, x)
            with profiler.capture("second"):
                ops.matmul(x, x)
                ops.matmul(x, x)
        first, second = profiler.profiles
        expected = 2 * 32 * 32 * 32
        assert first.device("gpu").flops == pytest.approx(expected)
        assert second.device("gpu").flops == pytest.approx(2 * expected)

    def test_flop_deltas_match_window_events(self, machine):
        """The O(1) counter path must agree with summing the window's events."""
        profiler = Profiler(machine)
        with machine.activate():
            machine.launch_kernel(machine.gpu, "warm", flops=123.0, bytes_moved=0)
            with profiler.capture("w"):
                machine.launch_kernel(machine.gpu, "a", flops=10.0, bytes_moved=0)
                machine.launch_kernel(machine.cpu, "b", flops=4.0, bytes_moved=0)
        profile = profiler.last_profile
        for snapshot in profile.devices:
            from_events = sum(
                e.flops for e in profile.events
                if e.kind == KERNEL and e.resource == snapshot.name
            )
            assert snapshot.flops == pytest.approx(from_events)


def _stream_rows(profile, resource, stream, kind):
    return [e for e in profile.events if (e.resource, e.stream, e.kind) == (resource, stream, kind)]


class TestPerStreamStats:
    def test_default_mode_has_single_busy_stream(self, machine):
        profiler = Profiler(machine)
        with machine.activate():
            with profiler.capture("w"):
                machine.launch_kernel(machine.gpu, "k", flops=1e9, bytes_moved=0)
        profile = profiler.last_profile
        gpu = profile.device("gpu")
        kernels = [e for e in profile.events if e.resource == gpu.name and e.kind == KERNEL]
        assert {e.stream for e in kernels} == {"default"}
        assert profile.stream_busy_ms("gpu", "default") == pytest.approx(gpu.busy_ms)
        assert len(_stream_rows(profile, gpu.name, "default", KERNEL)) == 1

    def test_named_streams_split_busy_time(self, machine):
        side = machine.stream(machine.gpu, "side")
        profiler = Profiler(machine)
        with machine.activate():
            with profiler.capture("w"):
                machine.launch_kernel(machine.gpu, "k0", flops=1e9, bytes_moved=0)
                with machine.use_stream(side):
                    machine.launch_kernel(machine.gpu, "k1", flops=1e9, bytes_moved=0)
        profile = profiler.last_profile
        gpu = profile.device("gpu")
        assert len(_stream_rows(profile, gpu.name, "side", KERNEL)) == 1
        assert len(_stream_rows(profile, gpu.name, "default", KERNEL)) == 1
        assert profile.stream_busy_ms("gpu", "side") > 0
        # Union busy never exceeds the per-stream sum, and both streams ran.
        per_stream = [profile.stream_busy_ms("gpu", name) for name in ("default", "side")]
        assert gpu.busy_ms <= sum(per_stream) + 1e-9
        on_side = [e for e in profile.events if e.resource == machine.gpu.name and e.stream == "side"]
        assert [e.name for e in on_side] == ["k1"]

    def test_link_stream_snapshots(self, machine):
        profiler = Profiler(machine)
        with machine.activate():
            with profiler.capture("w"):
                machine.transfer(machine.cpu, machine.gpu, 1_000_000)
                machine.transfer(machine.cpu, machine.gpu, 500, non_blocking=True)
        profile = profiler.last_profile
        link = machine.link.name
        assert len(_stream_rows(profile, link, "default", TRANSFER)) == 1
        assert len(_stream_rows(profile, link, "copy", TRANSFER)) == 1
        assert profile.stream_busy_ms(link, "copy") > 0


def _stream_busy(machine):
    """Busy time of every stream of every device and link, from its timeline."""
    return {
        (resource.name, stream.name): stream.busy_ms()
        for resource in (*machine.devices, *machine.links)
        for stream in resource.streams
    }


def _default_only(machine):
    machine.host_work("load", 1.5)
    machine.launch_kernel(machine.gpu, "gemm", flops=1e9, bytes_moved=1e6)
    machine.transfer(machine.cpu, machine.gpu, 1 << 20)


def _side_stream(machine):
    side = machine.stream(machine.gpu, "side")
    machine.launch_kernel(machine.gpu, "k0", flops=1e10, bytes_moved=0)
    with machine.use_stream(side):
        machine.launch_kernels(machine.gpu, "k1", 3, flops=1e9, bytes_moved=0)


def _non_blocking_copy(machine):
    machine.transfer(machine.cpu, machine.gpu, 1 << 22, non_blocking=True)
    machine.transfer(machine.cpu, machine.gpu, 1 << 10)


def _staged_peer_copy(machine):
    first, second = machine.gpus
    machine.launch_kernel(first, "produce", flops=1e9, bytes_moved=0)
    machine.transfer(first, second, 1 << 22)
    machine.transfer(second, first, 1 << 12, non_blocking=True)


def _warm_up(machine):
    machine.initialize_gpu(model_bytes=1 << 20)
    machine.allocation_warmup(1 << 24)
    machine.launch_kernel(machine.gpu, "first", flops=1e9, bytes_moved=0)


def _event_synchronize(machine):
    worker = machine.stream(machine.cpu, "worker")
    machine.host_work("prepare", 4.0, stream=worker)
    ready = machine.record_event(worker, name="prepared")
    machine.event_synchronize(ready)
    machine.host_work("after", 0.5)


STREAM_CASES = {
    "default-only": ("1xA6000", _default_only),
    "use-stream-side": ("1xA6000", _side_stream),
    "non-blocking-copy": ("1xA6000", _non_blocking_copy),
    "staged-gpu-to-gpu": ("2xA100-pcie", _staged_peer_copy),
    "warm-up-in-window": ("1xA6000", _warm_up),
    "event-synchronize-named-cpu-stream": ("1xA6000", _event_synchronize),
}


class TestStreamViewFromRows:
    """``Profile.stream_busy_ms`` reads the window's rows; the stream timelines
    are the independent record of what each stream was occupied for."""

    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_row_view_equals_each_stream_timelines_busy_delta(self, case):
        spec, program = STREAM_CASES[case]
        machine = Machine(spec)
        if case != "warm-up-in-window":
            for gpu in machine.gpus:
                machine.initialize_gpu(device=gpu)
        profiler = Profiler(machine)
        with machine.activate():
            program(machine)  # work before the window must not count
            before = _stream_busy(machine)
            with profiler.capture(case):
                program(machine)
        profile = profiler.last_profile
        after = _stream_busy(machine)
        assert any(after[key] > before.get(key, 0.0) for key in after)
        for (resource, stream), busy in after.items():
            expected = busy - before.get((resource, stream), 0.0)
            assert profile.stream_busy_ms(resource, stream) == pytest.approx(
                expected, rel=1e-12, abs=1e-9
            ), (resource, stream)

    def test_a_sync_row_names_the_stream_it_waited_on_but_occupies_nothing(self):
        machine = Machine("1xA6000")
        profiler = Profiler(machine)
        with machine.activate(), profiler.capture("sync"):
            _event_synchronize(machine)
        profile = profiler.last_profile
        cpu = machine.cpu.name
        (wait,) = [e for e in profile.events if e.kind == SYNC and e.stream == "worker"]
        assert (wait.resource, wait.duration_ms > 0) == (cpu, True)
        assert profile.stream_busy_ms("cpu", "worker") == pytest.approx(4.0)

    def test_a_machine_that_logs_nothing_has_an_empty_stream_view(self):
        machine = Machine("1xA6000", record_events=False)
        profiler = Profiler(machine)
        with machine.activate(), profiler.capture("silent"):
            _side_stream(machine)
        profile = profiler.last_profile
        assert profile.rows == ()
        assert profile.device("gpu").busy_ms > 0
        assert profile.stream_busy_ms("gpu", "side") == 0.0


class TestMemoryStats:
    def test_memory_timeline_tracks_allocs(self, machine):
        profiler = Profiler(machine)
        with machine.activate():
            with profiler.capture("w"):
                with machine.activate():
                    t = Tensor.zeros((100, 10), machine.gpu, name="buf")
                    t.free()
        profile = profiler.last_profile
        series = profile.memory_timeline("gpu")
        levels = [level for _, level in series]
        assert max(levels) >= 100 * 10 * 4
        assert levels[-1] == levels[0]
