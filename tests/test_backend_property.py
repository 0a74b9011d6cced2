"""Property test: random operator programs are backend-invariant.

For seeded random programs of tensor operators (elementwise chains, matmuls,
reductions, concats, gathers, cross-device transfers, synchronisations) over
randomly drawn machine topologies, the simulated timeline must be identical

* between the ``numeric`` and ``shape`` execution backends, and
* with event recording on or off (``record_events`` only controls whether
  the event *log* is kept; scheduling must not change).

The program is generated as pure data first -- every RNG draw happens before
any machine exists -- so all four (backend, record_events) executions replay
the exact same operator sequence.
"""

import numpy as np
import pytest

from repro.fuzz.program import signature
from repro.hw.machine import Machine
from repro.tensor import Tensor, ops

SPECS = ("1xA100", "2xA100-pcie", "2xA100-nvlink", "4xA100-nvlink")


def _generate_program(seed, steps=40):
    """A random operator program as plain data (no machine, no tensors).

    Returns ``(spec_name, base_shapes, step_descriptors)``.  Device indices
    are resolved against the machine's device list at execution time.
    """
    rng = np.random.default_rng(seed)
    spec = SPECS[int(rng.integers(len(SPECS)))]
    num_devices = 1 + int(spec[0])  # "NxA100..." -> cpu + N gpus
    base_shapes = [
        (int(rng.integers(2, 24)), int(rng.integers(2, 24)))
        for _ in range(4)
    ]
    base_devices = [int(rng.integers(num_devices)) for _ in base_shapes]
    program = []
    for _ in range(steps):
        op = rng.choice(
            ["ew", "matmul", "reduce", "concat", "gather", "to", "sync"],
            p=[0.3, 0.2, 0.12, 0.08, 0.1, 0.15, 0.05],
        )
        if op == "ew":
            program.append(("ew", int(rng.integers(4)), float(rng.normal())))
        elif op == "matmul":
            program.append(("matmul", int(rng.integers(4)), int(rng.integers(2, 16))))
        elif op == "reduce":
            program.append(("reduce", int(rng.integers(4)), bool(rng.integers(2))))
        elif op == "concat":
            program.append(("concat", int(rng.integers(4))))
        elif op == "gather":
            rows = int(rng.integers(1, 8))
            program.append(("gather", int(rng.integers(4)), rows, int(rng.integers(1 << 30))))
        elif op == "to":
            program.append(("to", int(rng.integers(4)), int(rng.integers(num_devices))))
        else:
            program.append(("sync",))
    return spec, list(zip(base_shapes, base_devices)), program


def _execute(spec, bases, program, backend, record_events):
    """Replay one generated program; returns the machine it ran on."""
    machine = Machine.from_spec(spec, record_events=record_events, backend=backend)
    devices = [machine.cpu, *machine.gpus]
    with machine.activate():
        pool = [
            Tensor.zeros(shape, devices[device_index])
            for shape, device_index in bases
        ]
        for step in program:
            kind = step[0]
            slot = step[1] if len(step) > 1 else 0
            tensor = pool[slot]
            if kind == "ew":
                result = ops.relu(ops.add(tensor, step[2]))
            elif kind == "matmul":
                weight = Tensor.zeros((tensor.shape[-1], step[2]), tensor.device)
                result = ops.matmul(tensor, weight)
            elif kind == "reduce":
                reduced = ops.reduce_sum(tensor, axis=-1, keepdims=True)
                # Keep the pool 2-D: broadcast back up via elementwise add.
                result = ops.add(tensor, reduced) if step[2] else reduced
            elif kind == "concat":
                result = ops.concat([tensor, tensor], axis=0)
            elif kind == "gather":
                idx = np.arange(step[2], dtype=np.int64) % max(tensor.shape[0], 1)
                idx = np.roll(idx, step[3] % max(tensor.shape[0], 1))
                result = ops.gather_rows(tensor, idx)
            elif kind == "to":
                result = tensor.to(devices[step[2]])
            else:
                machine.synchronize()
                continue
            pool[slot] = result
        machine.synchronize(name="final")
    return machine


def _busy_by_device(machine):
    return {device.name: device.busy_ms() for device in machine.devices}


@pytest.mark.parametrize("seed", range(8))
def test_random_programs_are_backend_and_recording_invariant(seed):
    spec, bases, program = _generate_program(seed)
    reference = _execute(spec, bases, program, "numeric", True)
    assert reference.event_count > 0
    runs = {
        (backend, record): _execute(spec, bases, program, backend, record)
        for backend in ("numeric", "shape")
        for record in (True, False)
        if (backend, record) != ("numeric", True)
    }
    reference_signature = signature(reference)
    reference_busy = _busy_by_device(reference)
    for (backend, record), machine in runs.items():
        label = f"{backend}/record={record}"
        assert machine.host_time_ms == reference.host_time_ms, label
        assert machine.event_count == reference.event_count, label
        assert _busy_by_device(machine) == reference_busy, label
        if record:
            assert signature(machine) == reference_signature, label
        else:
            assert len(machine.events) == 0, label
