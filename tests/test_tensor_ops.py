"""Tensor operators: numerics plus kernel charging, per op on both backends."""

import inspect

import numpy as np
import pytest

from repro.fuzz.program import signature
from repro.hw import KERNEL, Machine
from repro.tensor import Tensor, ops
from repro.tensor.tensor import DeviceMismatchError


@pytest.fixture
def machine():
    m = Machine.cpu_gpu()
    m.initialize_gpu(model_bytes=0)
    return m


def kernels(machine):
    return [e for e in machine.events if e.kind == KERNEL]


class TestKernelCharging:
    def test_matmul_charges_one_kernel_with_flops(self, machine):
        with machine.activate():
            a = Tensor(np.ones((8, 4), dtype=np.float32), machine.cpu)
            b = Tensor(np.ones((4, 6), dtype=np.float32), machine.cpu)
            out = ops.matmul(a, b)
        assert np.allclose(out.data, 4.0)
        recorded = kernels(machine)
        assert len(recorded) == 1
        assert recorded[0].name == "gemm"
        assert recorded[0].resource == machine.cpu.name
        # 2*m*k*n multiply-accumulate FLOPs.
        assert recorded[0].flops == pytest.approx(2 * 8 * 4 * 6)

    def test_gpu_op_lands_on_gpu_queue(self, machine):
        with machine.activate():
            x = Tensor(np.ones((16, 16), dtype=np.float32), machine.gpu)
            ops.relu(x)
        recorded = kernels(machine)
        assert recorded[-1].resource == machine.gpu.name
        assert machine.gpu.busy_ms() > 0

    def test_elementwise_numerics_and_charge(self, machine):
        with machine.activate():
            x = Tensor(np.array([-1.0, 0.0, 2.0], dtype=np.float32), machine.cpu)
            y = ops.relu(x)
            z = ops.add(y, 1.0)
        assert np.allclose(y.data, [0.0, 0.0, 2.0])
        assert np.allclose(z.data, [1.0, 1.0, 3.0])
        assert [e.name for e in kernels(machine)] == ["relu", "add"]

    def test_ops_without_machine_are_pure(self):
        x = Tensor(np.ones(4, dtype=np.float32), Machine.cpu_only().cpu)
        out = ops.mul(x, 3.0)
        assert np.allclose(out.data, 3.0)

    def test_reshape_is_free(self, machine):
        with machine.activate():
            x = Tensor(np.ones((2, 6), dtype=np.float32), machine.cpu)
            before = len(kernels(machine))
            y = ops.reshape(x, (3, 4))
        assert y.shape == (3, 4)
        assert len(kernels(machine)) == before

    def test_device_mismatch_raises(self, machine):
        with machine.activate():
            a = Tensor(np.ones(3, dtype=np.float32), machine.cpu)
            b = Tensor(np.ones(3, dtype=np.float32), machine.gpu)
            with pytest.raises(DeviceMismatchError):
                ops.add(a, b)


class TestGatherScatter:
    def test_gather_rows(self, machine):
        with machine.activate():
            table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3), machine.cpu)
            out = ops.gather_rows(table, [2, 0])
        assert np.allclose(out.data, [[6, 7, 8], [0, 1, 2]])
        assert kernels(machine)[-1].name == "gather"

    def test_scatter_rows_does_not_mutate(self, machine):
        with machine.activate():
            base = Tensor(np.zeros((3, 2), dtype=np.float32), machine.cpu)
            updates = Tensor(np.ones((1, 2), dtype=np.float32), machine.cpu)
            out = ops.scatter_rows(base, [1], updates)
        assert np.allclose(base.data, 0.0)
        assert np.allclose(out.data[1], 1.0)


class TestStreamIssue:
    def test_ops_issue_onto_current_stream(self, machine):
        stream = machine.stream(machine.gpu, "side")
        with machine.activate():
            x = Tensor(np.ones((8, 8), dtype=np.float32), machine.gpu)
            ops.relu(x)
            with machine.use_stream(stream):
                ops.relu(x)
        events = kernels(machine)
        assert events[-2].stream == "default"
        assert events[-1].stream == "side"
        assert stream.busy_ms() > 0


def _array(*shape):
    return np.arange(np.prod(shape), dtype=np.float32).reshape(shape) / 7.0 - 1.0


#: One row per public operator: ``op -> call(t)``, where ``t(*shape)`` is a
#: dense tensor of that shape on the GPU.  Adding an operator means adding a row.
OP_ROWS = {
    "matmul": lambda t: ops.matmul(t(2, 3, 4), t(4, 5)),
    "linear": lambda t: ops.linear(t(2, 3, 4), t(6, 4), t(6)),
    "add": lambda t: ops.add(t(3, 1, 4), t(2, 4)),
    "sub": lambda t: ops.sub(t(3, 4), 2.0),
    "mul": lambda t: ops.mul(t(3, 4), t(3, 4)),
    "div": lambda t: ops.div(t(3, 4), 3),
    "relu": lambda t: ops.relu(t(3, 4)),
    "sigmoid": lambda t: ops.sigmoid(t(3, 4)),
    "tanh": lambda t: ops.tanh(t(3, 4)),
    "cos": lambda t: ops.cos(t(3, 4)),
    "softplus": lambda t: ops.softplus(t(3, 4)),
    "add_mask": lambda t: ops.add_mask(t(2, 1, 3, 5), t(2, 1, 1, 5)),
    "reduce_sum": lambda t: ops.reduce_sum(t(3, 4, 5), axis=-2, keepdims=True),
    "reduce_mean": lambda t: ops.reduce_mean(t(3, 4, 5), axis=1),
    "softmax": lambda t: ops.softmax(t(3, 4, 5), axis=1),
    "reshape": lambda t: ops.reshape(t(3, 4, 5), (-1, 10)),
    "transpose": lambda t: ops.transpose(t(3, 4, 5), (2, 0, 1)),
    "concat": lambda t: ops.concat([t(3, 4), t(3, 2), t(3, 1)], axis=-1),
    "stack": lambda t: ops.stack([t(3, 4), t(3, 4)], axis=-1),
    "expand_dims": lambda t: ops.expand_dims(t(3, 4), 1),
    "gather_rows": lambda t: ops.gather_rows(t(5, 4), [4, 0, 0]),
    "scatter_rows": lambda t: ops.scatter_rows(t(5, 4), np.array([1, 3]), t(2, 4)),
    "spmm": lambda t: ops.spmm(t(4, 4), t(4, 3)),
}


def test_every_public_operator_has_a_row():
    public = {
        name
        for name, value in vars(ops).items()
        if inspect.isfunction(value) and value.__module__ == ops.__name__ and name[0] != "_"
    }
    assert set(OP_ROWS) == public


@pytest.mark.parametrize("op", sorted(OP_ROWS))
def test_each_operator_charges_the_same_kernels_under_both_backends(op):
    runs = {}
    for backend in ("numeric", "shape"):
        machine = Machine("1xA6000", backend=backend)
        machine.initialize_gpu()
        with machine.activate():
            out = OP_ROWS[op](lambda *shape: Tensor(_array(*shape), machine.gpu))
        runs[backend] = (out.shape, signature(machine))
    assert runs["shape"] == runs["numeric"]


# -- numerics pinned to the reference implementations ----------------------------


def _reference_sigmoid(values: np.ndarray) -> np.ndarray:
    positive = values >= 0
    out = np.empty_like(values, dtype=np.float32)
    out[positive] = 1.0 / (1.0 + np.exp(-values[positive]))
    exp_v = np.exp(values[~positive])
    out[~positive] = exp_v / (1.0 + exp_v)
    return out


def _reference_softmax(v, axis):
    shifted = v - np.max(v, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.sum(exps, axis=axis, keepdims=True)


def _assert_bit_identical(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _with_specials(shape, dtype, seed):
    """Values of ``dtype`` up to 1e4 in magnitude, salted with +-0, +-inf and NaN."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 5, shape)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e4, -1e4])
    salt = rng.random(shape) < 0.05
    values[salt] = rng.choice(specials, int(salt.sum()))
    return values.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7,), (64, 33), (5, 6, 7)])
def test_sigmoid_is_bit_identical_to_the_masked_reference(dtype, shape):
    values = _with_specials(shape, dtype, seed=len(shape))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e4, -1e4], dtype=dtype)
    for v in (values, values.T, values[..., ::2], specials):
        _assert_bit_identical(ops._stable_sigmoid(v), _reference_sigmoid(v))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(960, 4, 12, 12), (50, 1000), (3, 1), (1, 5), (200, 3, 2)])
def test_softmax_is_bit_identical_to_the_reference_over_every_axis(dtype, shape):
    clean = np.random.default_rng(1).standard_normal(shape).astype(dtype) * 4
    salted = _with_specials(shape, dtype, seed=2)
    for v in (clean, salted, clean.T):
        for axis in [*range(v.ndim), -1]:
            with np.errstate(invalid="ignore", over="ignore"):
                want = _reference_softmax(v, axis)
                got = ops._softmax(v, axis)
            _assert_bit_identical(got, want)


@pytest.mark.parametrize("axis", [4, -5, 7])
def test_softmax_refuses_an_out_of_range_axis_as_numpy_does(axis):
    v = np.ones((960, 4, 12, 12), dtype=np.float32)
    with pytest.raises(np.exceptions.AxisError) as want:
        _reference_softmax(v, axis)
    with pytest.raises(np.exceptions.AxisError) as got:
        ops._softmax(v, axis)
    assert str(got.value) == str(want.value)
