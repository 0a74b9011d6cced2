"""Tensor operators.

Every operator computes its result and, when a
:class:`~repro.hw.machine.Machine` is active, records a kernel on the
operands' device with a (flops, bytes) estimate from
:mod:`repro.tensor.costs`.  Operators therefore behave like the PyTorch ops
the paper profiles: numerics plus a hardware cost that the profiler can
attribute to modules and regions.

Under the machine's ``numeric`` backend (the default) results are real numpy
arrays; under the ``shape`` backend (see :mod:`repro.tensor.meta`) each
operator derives only the output *shape* and returns a zero-strided
placeholder, skipping the arithmetic entirely.  The charge arguments are
computed from operand shapes in both branches, so the two backends issue
byte-identical kernels — the simulated timeline cannot tell them apart.
The single exception is :func:`spmm`, whose cost depends on the adjacency's
non-zero *count*; adjacency matrices are built by plain-numpy preprocessing
(outside the operator layer) and stay dense real arrays under both backends,
so the count — and therefore the charge — still matches.

Kernels are issued onto the device's *current* execution stream (see
:meth:`~repro.hw.machine.Machine.use_stream`), so wrapping operator calls in
a stream context pipelines them against work on other streams exactly like
launching CUDA kernels under ``torch.cuda.stream(s)``.  Outside any stream
context everything lands on the default stream and serializes as in the
seed simulator.
"""

from __future__ import annotations

from math import prod as _prod
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..hw.device import Device
from ..hw.machine import Machine, active_machine_or_none
from . import costs
from .meta import placeholder
from .tensor import Tensor, ensure_same_device

Scalar = Union[int, float]


def _backend() -> Tuple[Optional[Machine], bool]:
    """The active machine and whether it runs the shape backend."""
    machine = active_machine_or_none()
    return (machine, machine is not None and machine.shape_mode)


def _launch(
    machine: Optional[Machine], device: Device, name: str, flops: float, traffic: float
) -> None:
    """Charge one kernel to ``machine`` (no-op without a machine).

    The kernel queues on the machine's current stream for ``device``, which
    is the default stream unless the caller is inside ``use_stream``.
    """
    if machine is not None:
        machine.launch_kernel(device, name, flops, traffic)


def _binary_operands(a: Tensor, b: Union[Tensor, Scalar]) -> Tuple[Tensor, Tensor, Device]:
    if isinstance(b, Tensor):
        device = ensure_same_device(a, b)
        return (a, b, device)
    return (a, Tensor(np.asarray(b, dtype=np.float32), a.device), a.device)


# -- shape inference helpers ---------------------------------------------------


def _matmul_shape(a_shape: Tuple[int, ...], b_shape: Tuple[int, ...]) -> Tuple[int, ...]:
    """Output shape of ``np.matmul`` for the given operand shapes."""
    a_vec = len(a_shape) == 1
    b_vec = len(b_shape) == 1
    a_mat = (1,) + a_shape if a_vec else a_shape
    b_mat = b_shape + (1,) if b_vec else b_shape
    if a_mat[-1] != b_mat[-2]:
        raise ValueError(f"matmul shape mismatch: {a_shape} @ {b_shape}")
    batch = np.broadcast_shapes(a_mat[:-2], b_mat[:-2])
    out = batch + (a_mat[-2], b_mat[-1])
    if a_vec:
        out = out[:-2] + out[-1:]
    if b_vec:
        out = out[:-1]
    return out


def _reduced_shape(
    shape: Tuple[int, ...], axis: Optional[int], keepdims: bool
) -> Tuple[int, ...]:
    """Output shape of a numpy reduction over ``axis``."""
    if axis is None:
        return (1,) * len(shape) if keepdims else ()
    axis = axis % len(shape)
    if keepdims:
        return tuple(1 if i == axis else d for i, d in enumerate(shape))
    return tuple(d for i, d in enumerate(shape) if i != axis)


def _resolve_shape(shape: Sequence[int], size: int) -> Tuple[int, ...]:
    """Resolve a reshape target (one ``-1`` allowed) against ``size``."""
    out = tuple(int(s) for s in shape)
    if -1 in out:
        known = 1
        for s in out:
            if s != -1:
                known *= s
        out = tuple(size // max(known, 1) if s == -1 else s for s in out)
    return out


# -- dense linear algebra ----------------------------------------------------


def matmul(a: Tensor, b: Tensor, name: str = "gemm") -> Tensor:
    """Dense matrix product, supporting batched operands like ``np.matmul``."""
    device = ensure_same_device(a, b)
    machine, shape_only = _backend()
    if shape_only:
        out_shape = _matmul_shape(a.data.shape, b.data.shape)
        result = placeholder(out_shape)
    else:
        result = np.matmul(a.data, b.data)
        out_shape = result.shape
    if a.ndim >= 2 and b.ndim >= 2:
        a_shape = a.data.shape
        m, k = (a_shape[-2], a_shape[-1])
        n = b.data.shape[-1]
        batch = _prod(out_shape[:-2]) if len(out_shape) > 2 else 1
        flops, traffic = costs.batched_matmul_cost(batch, m, k, n)
    else:
        flops, traffic = costs.matmul_cost(1, a.shape[-1], 1)
    _launch(machine, device, name, flops, traffic)
    return Tensor(result, device)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` as one fused kernel."""
    device = ensure_same_device(x, weight) if bias is None else ensure_same_device(x, weight, bias)
    machine, shape_only = _backend()
    x_shape = x.data.shape
    out_shape = x_shape[:-1] + (weight.data.shape[0],)
    if shape_only:
        result = placeholder(out_shape)
    else:
        result = x.data @ weight.data.T
        if bias is not None:
            # In-place: the matmul result is a fresh array, so no copy is needed.
            result += bias.data
    rows = _prod(x_shape[:-1]) if len(x_shape) > 1 else 1
    flops, traffic = costs.matmul_cost(rows, x_shape[-1], weight.data.shape[0])
    if bias is not None:
        flops += _prod(out_shape)
    _launch(machine, device, "linear", flops, traffic)
    return Tensor(result, device)


def outer(a: Tensor, b: Tensor) -> Tensor:
    """Outer product of two vectors."""
    device = ensure_same_device(a, b)
    machine, shape_only = _backend()
    if shape_only:
        result = placeholder((a.numel, b.numel))
    else:
        result = np.outer(a.data, b.data)
    flops, traffic = costs.matmul_cost(a.numel, 1, b.numel)
    _launch(machine, device, "outer", flops, traffic)
    return Tensor(result, device)


# -- elementwise --------------------------------------------------------------


def _elementwise(
    name: str,
    fn,
    a: Tensor,
    b: Union[Tensor, Scalar, None] = None,
    flops_per_element: float = 1.0,
) -> Tensor:
    machine, shape_only = _backend()
    if b is None:
        device = a.device
        out_shape = a.data.shape
        n_inputs = 1
        result = placeholder(out_shape) if shape_only else fn(a.data)
    elif shape_only:
        n_inputs = 2
        if isinstance(b, Tensor):
            device = ensure_same_device(a, b)
            b_shape = b.data.shape
            out_shape = (
                a.data.shape
                if a.data.shape == b_shape or not b_shape
                else np.broadcast_shapes(a.data.shape, b_shape)
            )
        else:
            # Scalar operand: no Tensor wrapping needed on the shape path.
            device = a.device
            out_shape = a.data.shape
        result = placeholder(out_shape)
    else:
        a, b_t, device = _binary_operands(a, b)
        n_inputs = 2
        result = fn(a.data, b_t.data)
        out_shape = result.shape
    flops, traffic = costs.elementwise_cost(out_shape, n_inputs, flops_per_element)
    _launch(machine, device, name, flops, traffic)
    return Tensor(result, device)


def add(a: Tensor, b: Union[Tensor, Scalar]) -> Tensor:
    return _elementwise("add", np.add, a, b)


def sub(a: Tensor, b: Union[Tensor, Scalar]) -> Tensor:
    return _elementwise("sub", np.subtract, a, b)


def mul(a: Tensor, b: Union[Tensor, Scalar]) -> Tensor:
    return _elementwise("mul", np.multiply, a, b)


def div(a: Tensor, b: Union[Tensor, Scalar]) -> Tensor:
    return _elementwise("div", np.divide, a, b)


def relu(x: Tensor) -> Tensor:
    return _elementwise("relu", lambda v: np.maximum(v, 0.0), x)


def _stable_sigmoid(values: np.ndarray) -> np.ndarray:
    positive = values >= 0
    out = np.empty_like(values, dtype=np.float32)
    out[positive] = 1.0 / (1.0 + np.exp(-values[positive]))
    exp_v = np.exp(values[~positive])
    out[~positive] = exp_v / (1.0 + exp_v)
    return out


def sigmoid(x: Tensor) -> Tensor:
    return _elementwise("sigmoid", _stable_sigmoid, x, flops_per_element=4.0)


def tanh(x: Tensor) -> Tensor:
    return _elementwise("tanh", np.tanh, x, flops_per_element=4.0)


def exp(x: Tensor) -> Tensor:
    return _elementwise("exp", np.exp, x, flops_per_element=2.0)


def log(x: Tensor) -> Tensor:
    return _elementwise("log", np.log, x, flops_per_element=2.0)


def cos(x: Tensor) -> Tensor:
    return _elementwise("cos", np.cos, x, flops_per_element=2.0)


def sin(x: Tensor) -> Tensor:
    return _elementwise("sin", np.sin, x, flops_per_element=2.0)


def softplus(x: Tensor) -> Tensor:
    return _elementwise(
        "softplus", lambda v: np.log1p(np.exp(-np.abs(v))) + np.maximum(v, 0.0), x,
        flops_per_element=5.0,
    )


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    return _elementwise("leaky_relu", lambda v: np.where(v > 0, v, slope * v), x)


# -- reductions / normalisation -----------------------------------------------


def _reduce(name: str, fn, x: Tensor, axis: Optional[int], keepdims: bool) -> Tensor:
    machine, shape_only = _backend()
    if shape_only:
        out_shape = _reduced_shape(x.data.shape, axis, keepdims)
        result = placeholder(out_shape)
    else:
        result = fn(x.data, axis=axis, keepdims=keepdims)
        out_shape = np.shape(result)
    flops, traffic = costs.reduction_cost(x.shape, out_shape)
    _launch(machine, x.device, name, flops, traffic)
    return Tensor(result, x.device)


def reduce_sum(x: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    return _reduce("reduce_sum", np.sum, x, axis, keepdims)


def reduce_mean(x: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    return _reduce("reduce_mean", np.mean, x, axis, keepdims)


def reduce_max(x: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    return _reduce("reduce_max", np.max, x, axis, keepdims)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    machine, shape_only = _backend()
    if shape_only:
        result = placeholder(x.data.shape)
    else:
        shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
        exps = np.exp(shifted)
        result = exps / np.sum(exps, axis=axis, keepdims=True)
    flops, traffic = costs.softmax_cost(x.shape)
    _launch(machine, x.device, "softmax", flops, traffic)
    return Tensor(result, x.device)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last dimension as one fused kernel."""
    device = ensure_same_device(x, weight, bias)
    machine, shape_only = _backend()
    if shape_only:
        result = placeholder(x.data.shape)
    else:
        mean = np.mean(x.data, axis=-1, keepdims=True)
        var = np.var(x.data, axis=-1, keepdims=True)
        result = (x.data - mean) / np.sqrt(var + eps) * weight.data + bias.data
    flops, traffic = costs.elementwise_cost(x.shape, n_inputs=3, flops_per_element=8.0)
    _launch(machine, device, "layer_norm", flops, traffic)
    return Tensor(result, device)


# -- shape manipulation --------------------------------------------------------


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    """Reshape without data movement (free in the cost model)."""
    machine, shape_only = _backend()
    if shape_only:
        # Reshaping a zero-strided placeholder would force numpy to copy
        # (and thereby materialise) it; build a fresh placeholder instead.
        return Tensor(placeholder(_resolve_shape(shape, x.data.size), x.data.dtype), x.device)
    return Tensor(x.data.reshape(shape), x.device)


def transpose(x: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    # np.transpose is a stride-permuting view, safe for placeholders too.
    result = np.transpose(x.data, axes)
    flops, traffic = costs.copy_cost(x.shape)
    _launch(active_machine_or_none(), x.device, "transpose", flops, traffic)
    return Tensor(result, x.device)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    device = ensure_same_device(*tensors)
    machine, shape_only = _backend()
    if shape_only:
        base = list(tensors[0].data.shape)
        axis_n = axis % len(base)
        base[axis_n] = sum(t.data.shape[axis_n] for t in tensors)
        result = placeholder(tuple(base))
        out_shape: Tuple[int, ...] = tuple(base)
    else:
        result = np.concatenate([t.data for t in tensors], axis=axis)
        out_shape = result.shape
    flops, traffic = costs.copy_cost(out_shape)
    _launch(machine, device, "concat", flops, traffic)
    return Tensor(result, device)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("stack requires at least one tensor")
    device = ensure_same_device(*tensors)
    machine, shape_only = _backend()
    if shape_only:
        base = tensors[0].data.shape
        axis_n = axis % (len(base) + 1)
        out_shape = base[:axis_n] + (len(tensors),) + base[axis_n:]
        result = placeholder(out_shape)
    else:
        result = np.stack([t.data for t in tensors], axis=axis)
        out_shape = result.shape
    flops, traffic = costs.copy_cost(out_shape)
    _launch(machine, device, "stack", flops, traffic)
    return Tensor(result, device)


def expand_dims(x: Tensor, axis: int) -> Tensor:
    return Tensor(np.expand_dims(x.data, axis), x.device)


def squeeze(x: Tensor, axis: Optional[int] = None) -> Tensor:
    return Tensor(np.squeeze(x.data, axis=axis), x.device)


# -- indexing -------------------------------------------------------------------


def gather_rows(x: Tensor, indices: Union[Tensor, np.ndarray, Sequence[int]]) -> Tensor:
    """Select rows of ``x`` by index (embedding lookup / neighbour gather).

    Charged with the irregular-access penalty: embedding and neighbour
    gathers are the memory-unfriendly accesses the paper singles out.
    """
    idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    idx = idx.astype(np.int64, copy=False)
    machine, shape_only = _backend()
    if shape_only:
        out_shape = idx.shape + x.data.shape[1:]
        result = placeholder(out_shape, x.data.dtype)
    else:
        result = x.data[idx]
        out_shape = result.shape
    flops, traffic = costs.gather_cost(out_shape)
    _launch(machine, x.device, "gather", flops, traffic)
    return Tensor(result, x.device)


def scatter_rows(
    x: Tensor, indices: Union[Tensor, np.ndarray, Sequence[int]], updates: Tensor
) -> Tensor:
    """Write ``updates`` into the rows of ``x`` selected by ``indices``.

    Returns a new tensor; ``x`` is not modified in place.
    """
    device = ensure_same_device(x, updates)
    machine, shape_only = _backend()
    if shape_only:
        result = placeholder(x.data.shape, x.data.dtype)
    else:
        idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
        idx = idx.astype(np.int64, copy=False)
        result = np.array(x.data, copy=True)
        result[idx] = updates.data
    flops, traffic = costs.scatter_cost(updates.shape)
    _launch(machine, device, "scatter", flops, traffic)
    return Tensor(result, device)


def where(condition: Tensor, a: Tensor, b: Tensor) -> Tensor:
    device = ensure_same_device(condition, a, b)
    machine, shape_only = _backend()
    if shape_only:
        out_shape = np.broadcast_shapes(
            condition.data.shape, a.data.shape, b.data.shape
        )
        result = placeholder(out_shape)
    else:
        result = np.where(condition.data, a.data, b.data)
        out_shape = result.shape
    flops, traffic = costs.elementwise_cost(out_shape, n_inputs=3)
    _launch(machine, device, "where", flops, traffic)
    return Tensor(result, device)


# -- sparse-ish graph ops --------------------------------------------------------


def spmm(adjacency: Tensor, x: Tensor, nnz: Optional[int] = None) -> Tensor:
    """Multiply a (dense-stored) adjacency matrix with node features.

    The numerics use a dense matmul, but the cost is charged as a sparse
    matrix product with ``nnz`` non-zeros (defaulting to the actual count of
    non-zero entries), matching how GNN message passing behaves on hardware.

    The default count reads ``adjacency.data`` even under the shape backend:
    adjacencies are produced by plain-numpy preprocessing and stay real in
    both backends, so the charge matches.  A shape-mode caller feeding a
    placeholder adjacency must pass ``nnz`` explicitly.
    """
    device = ensure_same_device(adjacency, x)
    machine, shape_only = _backend()
    out_shape = _matmul_shape(adjacency.data.shape, x.data.shape)
    if shape_only:
        result = placeholder(out_shape)
    else:
        result = adjacency.data @ x.data
    non_zeros = int(np.count_nonzero(adjacency.data)) if nnz is None else int(nnz)
    feature_dim = x.shape[-1]
    flops = 2.0 * non_zeros * feature_dim
    traffic = costs.ITEMSIZE * (non_zeros * 2 + non_zeros * feature_dim + _prod(out_shape)) * 2.0
    _launch(machine, device, "spmm", flops, traffic)
    return Tensor(result, device)
