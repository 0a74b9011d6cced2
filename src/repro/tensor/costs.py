"""FLOP and byte-traffic estimates for tensor operators.

Every operator in :mod:`repro.tensor.ops` reports its work to the hardware
simulator as a (flops, bytes) pair.  Each estimate here is one operator's
cost, called as ``cost(out_shape, *operands)`` with the operator's operands
(arrays under the numeric backend, placeholders under the shape backend).
It reads shapes only -- :func:`spmm_cost` also counts the adjacency's
non-zeros, and adjacencies are real arrays under both backends -- so the two
backends charge identical kernels.  The estimates follow standard roofline
accounting:

* dense matmul of (m, k) @ (k, n): ``2 m k n`` FLOPs, ``(mk + kn + mn)``
  elements of traffic;
* elementwise ops: one (or a few) FLOPs per output element, read inputs and
  write the output;
* gathers and scatters move little data but access it irregularly, so they are
  charged an *irregularity factor* of extra traffic
  (``hw.spec.IRREGULAR_ACCESS_FACTOR``) -- the mechanism behind the paper's
  observation that temporal sampling and embedding lookups are
  memory-inefficient.
"""

from __future__ import annotations

from math import prod
from typing import Tuple

import numpy as np

from ..hw import spec

Cost = Tuple[float, float]

#: Bytes per element; the library computes in float32 throughout.
ITEMSIZE = 4


def matmul_cost(out_shape, a, b) -> Cost:
    """A dense (m, k) @ (k, n) product per leading output index."""
    if a.ndim >= 2 and b.ndim >= 2:
        batch = prod(out_shape[:-2])
        m, k = a.shape[-2:]
        n = b.shape[-1]
    else:
        batch, m, k, n = (1, 1, a.shape[-1], 1)
    flops = 2.0 * m * k * n
    traffic = float(ITEMSIZE * (m * k + k * n + m * n))
    return (batch * flops, batch * traffic)


def linear_cost(out_shape, x, weight, bias) -> Cost:
    """``x @ weight.T`` over the rows of ``x``, plus one FLOP per output for the bias."""
    rows = prod(out_shape[:-1])
    n, k = weight.shape
    flops = 2.0 * rows * k * n + prod(out_shape)
    return (flops, float(ITEMSIZE * (rows * k + k * n + rows * n)))


def elementwise_cost(flops_per_element, out_shape, *operands) -> Cost:
    """An elementwise op: every operand read and the output written once.

    Operators bind ``flops_per_element`` with :func:`functools.partial`.
    """
    numel = prod(out_shape)
    return (flops_per_element * numel, float(ITEMSIZE * numel * (len(operands) + 1)))


def reduction_cost(out_shape, x, *_) -> Cost:
    """A reduction (sum/mean) of ``x``: one FLOP per input element."""
    numel = prod(x.shape)
    return (float(numel), float(ITEMSIZE * (numel + prod(out_shape))))


def softmax_cost(out_shape, *_) -> Cost:
    """Max, subtract, exp, sum, divide: ~5 passes over the data."""
    numel = prod(out_shape)
    return (5.0 * numel, float(ITEMSIZE * numel * 3))


def copy_cost(out_shape, *_) -> Cost:
    """A data movement op (concat/stack/transpose): read and write every element."""
    return (0.0, float(ITEMSIZE * prod(out_shape) * 2))


def gather_cost(out_shape, *_) -> Cost:
    """An irregular gather producing ``out_shape``."""
    return (0.0, float(ITEMSIZE * prod(out_shape) * 2 * spec.IRREGULAR_ACCESS_FACTOR))


def scatter_cost(out_shape, x, indices, updates) -> Cost:
    """An irregular scatter of the ``updates`` rows."""
    return (0.0, float(ITEMSIZE * prod(updates.shape) * 2 * spec.IRREGULAR_ACCESS_FACTOR))


def spmm_cost(out_shape, adjacency, x) -> Cost:
    """A sparse product over the adjacency's non-zero entries."""
    non_zeros = int(np.count_nonzero(adjacency))
    feature_dim = x.shape[-1]
    flops = 2.0 * non_zeros * feature_dim
    traffic = ITEMSIZE * (non_zeros * 2 + non_zeros * feature_dim + prod(out_shape)) * 2.0
    return (flops, traffic)
