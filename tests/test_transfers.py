"""``Tensor.to`` transfer and memory accounting, and non-blocking copies."""

import numpy as np
import pytest

from repro.hw import TRANSFER, Machine
from repro.tensor import Tensor


@pytest.fixture
def machine():
    m = Machine.cpu_gpu()
    m.initialize_gpu(model_bytes=0)
    return m


def transfers(machine):
    return [e for e in machine.events if e.kind == TRANSFER]


class TestTransferAccounting:
    def test_to_emits_transfer_with_float32_bytes(self, machine):
        with machine.activate():
            x = Tensor(np.ones((100, 7), dtype=np.float32), machine.cpu)
            x.to(machine.gpu, name="upload")
        recorded = transfers(machine)
        assert len(recorded) == 1
        assert recorded[0].bytes == 100 * 7 * 4
        assert recorded[0].src == machine.cpu.name
        assert recorded[0].dst == machine.gpu.name

    def test_blocking_transfer_advances_host_to_completion(self, machine):
        with machine.activate():
            x = Tensor(np.ones((512, 512), dtype=np.float32), machine.cpu)
            x.to(machine.gpu)
        assert machine.host_time_ms == pytest.approx(transfers(machine)[-1].end_ms)

    def test_to_always_tracks_the_destination_copy(self, machine):
        with machine.activate():
            x = Tensor(np.ones((10, 10), dtype=np.float32), machine.cpu)
            before = machine.gpu.memory.current_bytes
            moved = x.to(machine.gpu)
        assert len(transfers(machine)) == 1
        assert moved.is_tracked
        assert machine.gpu.memory.current_bytes == before + moved.nbytes

    def test_same_device_move_is_identity(self, machine):
        with machine.activate():
            x = Tensor(np.ones(4, dtype=np.float32), machine.cpu)
            assert x.to(machine.cpu) is x
        assert transfers(machine) == []


class TestNonBlockingTransfers:
    """``Machine.transfer(..., non_blocking=True)``: the pinned-memory copy path."""

    def test_non_blocking_copy_does_not_block_host(self, machine):
        before = machine.host_time_ms
        machine.transfer(machine.cpu, machine.gpu, 512 * 512 * 4, non_blocking=True)
        copy = transfers(machine)[-1]
        overhead_ms = machine.link.spec.host_overhead_us * 1e-3
        assert machine.host_time_ms == pytest.approx(before + overhead_ms)
        assert copy.end_ms > machine.host_time_ms
        assert copy.stream == "copy"

    def test_non_blocking_copies_serialize_on_copy_stream(self, machine):
        machine.transfer(machine.cpu, machine.gpu, 256 * 256 * 4, non_blocking=True)
        machine.transfer(machine.cpu, machine.gpu, 256 * 256 * 4, non_blocking=True)
        first, second = transfers(machine)[-2:]
        assert second.start_ms >= first.end_ms

    def test_synchronize_drains_copy_stream(self, machine):
        machine.transfer(machine.cpu, machine.gpu, 512 * 512 * 4, non_blocking=True)
        machine.synchronize()
        assert machine.host_time_ms >= transfers(machine)[-1].end_ms
