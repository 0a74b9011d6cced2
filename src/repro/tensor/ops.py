"""Tensor operators.

Every operator computes its result and, when a
:class:`~repro.hw.machine.Machine` is active, records a kernel on the
operands' device with a (flops, bytes) estimate from
:mod:`repro.tensor.costs`.  Operators therefore behave like the PyTorch ops
the paper profiles: numerics plus a hardware cost that the profiler can
attribute to modules and regions.

Each operator states three things once and hands them to :func:`_run`, the
one backend seam: its *shape rule* (the output shape from the operands'
shapes, raising ``ValueError`` wherever numpy would), its *numpy function*
and its *cost* (``(flops, bytes)`` from the output shape and the operands).
``_run`` is the only code in :mod:`repro.tensor` and :mod:`repro.nn` that
reads ``machine.shape_mode`` and the only code that launches an operator's
kernel.  Under the ``numeric`` backend (the default) it runs the numpy
function; under the ``shape`` backend (see :mod:`repro.tensor.meta`) it runs
only the shape rule and returns a zero-strided placeholder.  The cost sees
shapes, never values, so the two backends issue byte-identical kernels.
The one value a cost reads is :func:`spmm`'s non-zero count: adjacency
matrices come from plain-numpy preprocessing and are real arrays under both
backends.  Views (:func:`reshape`, :func:`expand_dims`) launch no kernel
and are valid on placeholders, so they need no seam.

Kernels are issued onto the device's *current* execution stream (see
:meth:`~repro.hw.machine.Machine.use_stream`), so wrapping operator calls in
a stream context pipelines them against work on other streams exactly like
launching CUDA kernels under ``torch.cuda.stream(s)``.  Outside any stream
context everything lands on the default stream and serializes as in the
seed simulator.
"""

from __future__ import annotations

from functools import partial
from operator import getitem
from typing import Optional, Sequence, Union

import numpy as np

from ..hw.machine import active_machine_or_none
from . import costs
from .meta import placeholder
from .tensor import Tensor, ensure_same_device

Scalar = Union[int, float]


def _run(name, device, rule, fn, cost, *args) -> Tensor:
    """The backend seam: one kernel ``name`` on ``device`` over ``args``.

    The numeric backend (or no active machine) computes ``fn(*args)``; the
    shape backend builds a placeholder of shape ``rule(*args)``.  A ``rule``
    of ``None`` marks a view op whose ``fn`` is valid on placeholders too.
    The kernel is charged ``cost(out_shape, *args)`` on the machine's
    current stream for ``device``.
    """
    machine = active_machine_or_none()
    if machine is None:
        return Tensor(fn(*args), device)
    result = placeholder(rule(*args)) if rule is not None and machine.shape_mode else fn(*args)
    machine.launch_kernel(device, name, *cost(result.shape, *args))
    return Tensor(result, device)


# -- shape rules several operators share ---------------------------------------


def _axis(axis: int, ndim: int) -> int:
    """``axis`` normalised into ``range(ndim)``, refused like numpy's AxisError."""
    if not -ndim <= axis < ndim:
        raise ValueError(f"axis {axis} is out of bounds for array of dimension {ndim}")
    return axis % ndim


def _same_shape(x, *_):
    return x.shape


def _broadcast_shape(a, b):
    if a.shape == b.shape or not b.shape:
        return a.shape
    return np.broadcast_shapes(a.shape, b.shape)


# -- dense linear algebra ----------------------------------------------------


def _matmul_shape(a, b):
    """Output shape of ``np.matmul`` for the given operands."""
    a_vec = a.ndim == 1
    b_vec = b.ndim == 1
    a_mat = (1,) + a.shape if a_vec else a.shape
    b_mat = b.shape + (1,) if b_vec else b.shape
    if a_mat[-1] != b_mat[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = np.broadcast_shapes(a_mat[:-2], b_mat[:-2]) + (a_mat[-2], b_mat[-1])
    if a_vec:
        out = out[:-2] + out[-1:]
    if b_vec:
        out = out[:-1]
    return out


def matmul(a: Tensor, b: Tensor, name: str = "gemm") -> Tensor:
    """Dense matrix product, supporting batched operands like ``np.matmul``."""
    device = ensure_same_device(a, b)
    return _run(name, device, _matmul_shape, np.matmul, costs.matmul_cost, a.data, b.data)


def _linear_shape(x, weight, bias):
    if x.shape[-1] != weight.shape[-1]:
        raise ValueError(f"linear shape mismatch: {x.shape} @ {weight.shape}^T")
    return x.shape[:-1] + weight.shape[:1]


def _affine(x, weight, bias):
    out = x @ weight.T
    out += bias  # in place: the product is a fresh array
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``x @ weight.T + bias`` as one fused kernel."""
    device = ensure_same_device(x, weight, bias)
    args = (x.data, weight.data, bias.data)
    return _run("linear", device, _linear_shape, _affine, costs.linear_cost, *args)


# -- elementwise --------------------------------------------------------------


#: Elementwise ops charge one FLOP per output element unless they say otherwise.
_elementwise_cost = partial(costs.elementwise_cost, 1.0)


def _binary(name: str, fn):
    def op(a: Tensor, b: Union[Tensor, Scalar]) -> Tensor:
        if isinstance(b, Tensor):
            device, b = ensure_same_device(a, b), b.data
        else:
            device, b = a.device, np.float32(b)
        return _run(name, device, _broadcast_shape, fn, _elementwise_cost, a.data, b)

    op.__name__ = op.__qualname__ = name
    return op


def _unary(name: str, fn, flops_per_element: float):
    cost = partial(costs.elementwise_cost, flops_per_element)

    def op(x: Tensor) -> Tensor:
        return _run(name, x.device, _same_shape, fn, cost, x.data)

    op.__name__ = op.__qualname__ = name
    return op


def _stable_sigmoid(values: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-v))`` for ``v >= 0``, ``exp(v) / (1 + exp(v))`` below, as float32.

    Both branches come from one ``exp(-|v|)``, which cannot overflow.  It is
    spelled ``minimum(v, -v)`` because that returns a NaN with its own sign,
    as the below-zero branch's ``exp(v)`` sees it.
    """
    exp_v = np.exp(np.minimum(values, -values))
    denom = 1.0 + exp_v
    return np.where(values >= 0, 1.0 / denom, exp_v / denom).astype(np.float32, copy=False)


add = _binary("add", np.add)
sub = _binary("sub", np.subtract)
mul = _binary("mul", np.multiply)
div = _binary("div", np.divide)
relu = _unary("relu", lambda v: np.maximum(v, 0.0), 1.0)
sigmoid = _unary("sigmoid", _stable_sigmoid, 4.0)
tanh = _unary("tanh", np.tanh, 4.0)
cos = _unary("cos", np.cos, 2.0)
softplus = _unary("softplus", lambda v: np.log1p(np.exp(-np.abs(v))) + np.maximum(v, 0.0), 5.0)


def _masked(scores, mask):
    return scores + ((1.0 - mask) * -1e9).astype(np.float32, copy=False)


def add_mask(scores: Tensor, mask: Tensor) -> Tensor:
    """``scores`` plus ``-1e9`` wherever ``mask`` is 0 (attention masking), as one add kernel."""
    args = (scores.data, mask.data)
    return _run("add", scores.device, _broadcast_shape, _masked, _elementwise_cost, *args)


# -- reductions ----------------------------------------------------------------


def _reduced_shape(x, axis, keepdims):
    """Output shape of a numpy reduction over ``axis``."""
    if axis is None:
        return (1,) * x.ndim if keepdims else ()
    axis = _axis(axis, x.ndim)
    return x.shape[:axis] + ((1,) if keepdims else ()) + x.shape[axis + 1 :]


def _sum(v, axis, keepdims):
    return np.sum(v, axis=axis, keepdims=keepdims)


def _mean(v, axis, keepdims):
    return np.mean(v, axis=axis, keepdims=keepdims)


def reduce_sum(x: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    args = (x.data, axis, keepdims)
    return _run("reduce_sum", x.device, _reduced_shape, _sum, costs.reduction_cost, *args)


def reduce_mean(x: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    args = (x.data, axis, keepdims)
    return _run("reduce_mean", x.device, _reduced_shape, _mean, costs.reduction_cost, *args)


def _softmax(v, axis):
    if v.ndim and axis in (-1, v.ndim - 1) and v.size > v.shape[-1] ** 2:
        # More rows than the last axis is long: numpy would run one short
        # reduce per row.  A max is order-free, so take it over a copy with
        # that axis outermost, as a few long elementwise maxima.  The sum
        # keeps numpy's own order, which fixes the bits.
        peak = np.expand_dims(np.ascontiguousarray(np.moveaxis(v, -1, 0)).max(axis=0), -1)
    else:
        peak = np.max(v, axis=axis, keepdims=True)
    exps = np.exp(v - peak)
    return exps / np.sum(exps, axis=axis, keepdims=True)


def _softmax_shape(v, axis):
    _axis(axis, v.ndim)
    return v.shape


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return _run("softmax", x.device, _softmax_shape, _softmax, costs.softmax_cost, x.data, axis)


# -- shape manipulation --------------------------------------------------------


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    """Reshape without data movement (free in the cost model).

    A placeholder reshapes to a placeholder: its strides are all zero, so
    numpy returns a view under either backend.
    """
    return Tensor(x.data.reshape(shape), x.device)


def transpose(x: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    # np.transpose is a stride-permuting view, valid on placeholders too.
    return _run("transpose", x.device, None, np.transpose, costs.copy_cost, x.data, axes)


def _concat_shape(arrays, axis):
    first = arrays[0].shape
    axis = _axis(axis, len(first))
    rest = first[:axis] + first[axis + 1 :]
    total = 0
    for array in arrays:
        shape = array.shape
        if len(shape) != len(first) or shape[:axis] + shape[axis + 1 :] != rest:
            raise ValueError(f"concat shape mismatch along axis {axis}: {first} vs {shape}")
        total += shape[axis]
    return first[:axis] + (total,) + first[axis + 1 :]


def _stack_shape(arrays, axis):
    first = arrays[0].shape
    for array in arrays:
        if array.shape != first:
            raise ValueError(f"stack needs one shape: {first} vs {array.shape}")
    axis = _axis(axis, len(first) + 1)
    return first[:axis] + (len(arrays),) + first[axis:]


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    device = ensure_same_device(*tensors)
    arrays = [t.data for t in tensors]
    return _run("concat", device, _concat_shape, np.concatenate, costs.copy_cost, arrays, axis)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    device = ensure_same_device(*tensors)
    arrays = [t.data for t in tensors]
    return _run("stack", device, _stack_shape, np.stack, costs.copy_cost, arrays, axis)


def expand_dims(x: Tensor, axis: int) -> Tensor:
    return Tensor(np.expand_dims(x.data, axis), x.device)


# -- indexing -------------------------------------------------------------------


def _gather_shape(x, idx):
    return idx.shape + x.shape[1:]


def gather_rows(x: Tensor, indices: Union[Tensor, np.ndarray, Sequence[int]]) -> Tensor:
    """Select rows of ``x`` by index (embedding lookup / neighbour gather).

    Charged with the irregular-access penalty: embedding and neighbour
    gathers are the memory-unfriendly accesses the paper singles out.
    """
    idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    idx = idx.astype(np.int64, copy=False)
    return _run("gather", x.device, _gather_shape, getitem, costs.gather_cost, x.data, idx)


def _scatter(x, idx, updates):
    out = np.array(x, copy=True)
    out[idx] = updates
    return out


def scatter_rows(
    x: Tensor, indices: Union[Tensor, np.ndarray, Sequence[int]], updates: Tensor
) -> Tensor:
    """Write ``updates`` into the rows of ``x`` selected by ``indices``.

    Returns a new tensor; ``x`` is not modified in place.
    """
    device = ensure_same_device(x, updates)
    idx = indices.data if isinstance(indices, Tensor) else np.asarray(indices)
    args = (x.data, idx.astype(np.int64, copy=False), updates.data)
    return _run("scatter", device, _same_shape, _scatter, costs.scatter_cost, *args)


# -- sparse-ish graph ops --------------------------------------------------------


def spmm(adjacency: Tensor, x: Tensor) -> Tensor:
    """Multiply a (dense-stored) adjacency matrix with node features.

    The numerics use a dense matmul, but the cost is charged as a sparse
    matrix product over the adjacency's non-zero entries, matching how GNN
    message passing behaves on hardware.
    """
    device = ensure_same_device(adjacency, x)
    args = (adjacency.data, x.data)
    return _run("spmm", device, _matmul_shape, np.matmul, costs.spmm_cost, *args)
