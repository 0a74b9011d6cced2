"""Stream semantics: overlap, events, per-stream sync, seed equivalence."""

import pytest

from repro.hw import Machine
from repro.hw.stream import union_busy_ms


@pytest.fixture
def machine():
    m = Machine.cpu_gpu()
    m.initialize_gpu(model_bytes=0)
    return m


class TestCrossStreamOverlap:
    def test_kernels_on_different_streams_overlap(self, machine):
        a = machine.stream(machine.gpu, "a")
        b = machine.stream(machine.gpu, "b")
        with machine.use_stream(a):
            machine.launch_kernel(machine.gpu, "ka", flops=1e10, bytes_moved=0)
        with machine.use_stream(b):
            machine.launch_kernel(machine.gpu, "kb", flops=1e10, bytes_moved=0)
        first, second = machine.events[-2:]
        # Both start before the other ends: they run concurrently.
        assert second.start_ms < first.end_ms
        assert first.start_ms < second.end_ms
        # Union busy time over the kernels' window is shorter than the
        # serialized sum (the window excludes the context-init warm-up).
        window_lo = min(first.start_ms, second.start_ms)
        window_hi = max(first.end_ms, second.end_ms)
        union = machine.gpu.busy_ms(window_lo, window_hi)
        total = first.duration_ms + second.duration_ms
        assert union < total

    def test_async_cpu_stream_does_not_block_host(self, machine):
        worker = machine.stream(machine.cpu, "worker")
        before = machine.host_time_ms
        machine.host_work("prefetch", 10.0, stream=worker)
        event = machine.events[-1]
        assert machine.host_time_ms == pytest.approx(before)
        assert event.end_ms >= 10.0
        assert event.stream == "worker"

    def test_same_stream_still_serializes(self, machine):
        a = machine.stream(machine.gpu, "a")
        with machine.use_stream(a):
            machine.launch_kernel(machine.gpu, "k1", flops=1e9, bytes_moved=0)
            machine.launch_kernel(machine.gpu, "k2", flops=1e9, bytes_moved=0)
        first, second = machine.events[-2:]
        assert second.start_ms >= first.end_ms


class TestStreamEvents:
    def test_wait_event_orders_cross_stream_work(self, machine):
        producer = machine.stream(machine.gpu, "producer")
        consumer = machine.stream(machine.gpu, "consumer")
        with machine.use_stream(producer):
            machine.launch_kernel(machine.gpu, "produce", flops=1e10, bytes_moved=0)
        produced = machine.events[-1]
        ready = machine.record_event(producer, name="produced")
        assert ready.ready_ms == pytest.approx(produced.end_ms)
        machine.wait_event(consumer, ready)
        with machine.use_stream(consumer):
            machine.launch_kernel(machine.gpu, "consume", flops=1e6, bytes_moved=0)
        assert machine.events[-1].start_ms >= produced.end_ms

    def test_wait_event_does_not_reorder_prior_work(self, machine):
        producer = machine.stream(machine.gpu, "producer")
        consumer = machine.stream(machine.gpu, "consumer")
        with machine.use_stream(consumer):
            machine.launch_kernel(machine.gpu, "early", flops=1e6, bytes_moved=0)
        with machine.use_stream(producer):
            machine.launch_kernel(machine.gpu, "slow", flops=1e11, bytes_moved=0)
        early, slow = machine.events[-2:]
        machine.wait_event(consumer, machine.record_event(producer))
        # Work issued before the wait is unaffected.
        assert early.end_ms < slow.end_ms

    def test_event_on_idle_stream_is_immediately_ready(self, machine):
        idle = machine.stream(machine.gpu, "idle")
        machine.advance_host(5.0)
        event = machine.record_event(idle)
        assert event.ready_ms == pytest.approx(machine.host_time_ms)

    def test_event_synchronize_blocks_host(self, machine):
        stream = machine.stream(machine.gpu, "s")
        with machine.use_stream(stream):
            machine.launch_kernel(machine.gpu, "k", flops=1e10, bytes_moved=0)
        kernel = machine.events[-1]
        event = machine.record_event(stream)
        machine.event_synchronize(event)
        assert machine.host_time_ms == pytest.approx(kernel.end_ms)


class TestStreamSynchronize:
    def test_stream_sync_joins_only_that_stream(self, machine):
        fast = machine.stream(machine.gpu, "fast")
        slow = machine.stream(machine.gpu, "slow")
        with machine.use_stream(slow):
            machine.launch_kernel(machine.gpu, "slow", flops=1e11, bytes_moved=0)
        with machine.use_stream(fast):
            machine.launch_kernel(machine.gpu, "fast", flops=1e6, bytes_moved=0)
        slow_kernel, fast_kernel = machine.events[-2:]
        machine.stream_synchronize(fast)
        assert machine.host_time_ms >= fast_kernel.end_ms
        assert machine.host_time_ms < slow_kernel.end_ms
        machine.synchronize()
        assert machine.host_time_ms == pytest.approx(slow_kernel.end_ms)


class TestSeedEquivalence:
    """Default-stream-only execution must match the seed's serialized engine."""

    WORKLOAD = (
        ("host", "preprocess", 2.0),
        ("gpu", "gemm1", 1e9),
        ("h2d", "upload", 4_000_000),
        ("gpu", "gemm2", 5e8),
        ("cpu", "postprocess", 1e7),
        ("sync", "", 0),
    )

    @staticmethod
    def _run(machine, explicit_default_streams: bool) -> list:
        """Issue the workload, optionally through explicit default-stream APIs."""
        import contextlib

        for kind, name, amount in TestSeedEquivalence.WORKLOAD:
            context = (
                machine.use_stream(machine.default_stream(machine.gpu))
                if explicit_default_streams
                else contextlib.nullcontext()
            )
            with context:
                if kind == "host":
                    machine.host_work(name, amount)
                elif kind == "cpu":
                    machine.launch_kernel(machine.cpu, name, flops=amount, bytes_moved=0)
                elif kind == "gpu":
                    machine.launch_kernel(machine.gpu, name, flops=amount, bytes_moved=0)
                elif kind == "h2d":
                    machine.transfer(machine.cpu, machine.gpu, int(amount), name=name)
                elif kind == "sync":
                    machine.synchronize()
        return [(e.kind, e.name, e.start_ms, e.end_ms) for e in machine.events]

    def test_explicit_default_stream_is_identical(self):
        implicit = Machine.cpu_gpu()
        implicit.initialize_gpu(model_bytes=0)
        explicit = Machine.cpu_gpu()
        explicit.initialize_gpu(model_bytes=0)
        assert self._run(implicit, False) == self._run(explicit, True)

    def test_seed_serialized_timings(self):
        """Pin the exact seed-era scheduling math for a mixed workload."""
        machine = Machine.cpu_gpu()
        machine.initialize_gpu(model_bytes=0)
        t0 = machine.host_time_ms

        machine.host_work("preprocess", 2.0)
        assert machine.host_time_ms == pytest.approx(t0 + 2.0)

        gpu = machine.gpu.spec
        machine.launch_kernel(machine.gpu, "gemm", flops=1e9, bytes_moved=0)
        kernel = machine.events[-1]
        launch_ms = gpu.host_overhead_us * 1e-3
        assert machine.host_time_ms == pytest.approx(t0 + 2.0 + launch_ms)
        body_ms = 1e9 / (gpu.effective_gflops(1e9) * 1e6)
        assert kernel.duration_ms == pytest.approx(gpu.launch_overhead_us * 1e-3 + body_ms)
        # Queued behind the host cursor on the (empty) default GPU queue.
        assert kernel.start_ms == pytest.approx(machine.host_time_ms)

        # Blocking transfer: waits for the producing GPU queue, occupies the
        # link for latency + bytes/bandwidth, and blocks the host.
        machine.transfer(machine.gpu, machine.cpu, 2_000_000)
        copy = machine.events[-1]
        assert copy.start_ms == pytest.approx(kernel.end_ms)
        expected_copy_ms = machine.link.spec.latency_us * 1e-3 + 2_000_000 / (
            machine.link.spec.bandwidth_gbps * 1e6
        )
        assert copy.duration_ms == pytest.approx(expected_copy_ms)
        assert machine.host_time_ms == pytest.approx(copy.end_ms)

    def test_union_busy_reduces_to_plain_busy_for_one_timeline(self, machine):
        machine.launch_kernel(machine.gpu, "k", flops=1e9, bytes_moved=0)
        timeline = machine.gpu.default_stream.timeline
        assert union_busy_ms([timeline]) == pytest.approx(timeline.busy_ms())


class TestLinkStreamContext:
    def test_use_stream_routes_transfers_onto_named_link_stream(self, machine):
        copies = machine.link.stream("mycopies")
        with machine.use_stream(copies):
            machine.transfer(machine.cpu, machine.gpu, 1000)
        assert machine.events[-1].stream == "mycopies"
        assert copies.busy_ms() > 0

    def test_current_stream_resolves_link_by_name(self, machine):
        assert machine.current_stream(machine.link.name) is machine.link.default_stream

    def test_utilization_report_caps_at_one_for_overlapped_kernels(self, machine):
        from repro.core import Profiler, utilization_report

        a = machine.stream(machine.gpu, "a")
        b = machine.stream(machine.gpu, "b")
        profiler = Profiler(machine)
        with machine.activate():
            with profiler.capture("w"):
                with machine.use_stream(a):
                    machine.launch_kernel(machine.gpu, "ka", flops=1e10, bytes_moved=0)
                with machine.use_stream(b):
                    machine.launch_kernel(machine.gpu, "kb", flops=1e10, bytes_moved=0)
        report = utilization_report(profiler.last_profile, "gpu")
        assert report.peak <= 1.0 + 1e-9
        assert report.average <= 1.0 + 1e-9
