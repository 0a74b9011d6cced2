"""Profiler capture windows, FLOP deltas and per-stream statistics."""

import numpy as np
import pytest

from repro.core import Profiler
from repro.hw import KERNEL, Machine
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


class TestPerStreamStats:
    def test_default_mode_has_single_busy_stream(self, machine):
        profiler = Profiler(machine)
        with machine.activate():
            with profiler.capture("w"):
                machine.launch_kernel(machine.gpu, "k", flops=1e9, bytes_moved=0)
        gpu = profiler.last_profile.device("gpu")
        assert [s.name for s in gpu.streams] == ["default"]
        assert gpu.stream("default").busy_ms == pytest.approx(gpu.busy_ms)
        assert gpu.stream("default").kernel_count == 1

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
        assert gpu.stream("side").kernel_count == 1
        assert gpu.stream("default").kernel_count == 1
        assert profile.stream_busy_ms("gpu", "side") > 0
        # Union busy never exceeds the per-stream sum, and both streams ran.
        assert gpu.busy_ms <= sum(s.busy_ms for s in gpu.streams) + 1e-9
        on_side = [e for e in profile.events if e.resource == machine.gpu.name and e.stream == "side"]
        assert [e.name for e in on_side] == ["k1"]

    def test_link_stream_snapshots(self, machine):
        profiler = Profiler(machine)
        with machine.activate():
            with profiler.capture("w"):
                machine.transfer(machine.cpu, machine.gpu, 1_000_000)
                machine.transfer(machine.cpu, machine.gpu, 500, non_blocking=True)
        profile = profiler.last_profile
        by_name = {s.name: s for s in profile.link_streams}
        assert by_name["default"].transfer_count == 1
        assert by_name["copy"].transfer_count == 1


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
