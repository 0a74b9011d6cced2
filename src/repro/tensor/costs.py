"""FLOP and byte-traffic estimates for tensor operators.

Every operator in :mod:`repro.tensor.ops` reports its work to the hardware
simulator as a (flops, bytes) pair.  The helpers here centralise those
estimates so the cost model stays consistent across operators and is easy to
audit against standard roofline accounting:

* dense matmul of (m, k) @ (k, n): ``2 m k n`` FLOPs, ``(mk + kn + mn)``
  elements of traffic;
* elementwise ops: one (or a few) FLOPs per output element, read inputs and
  write the output;
* gathers and scatters move little data but access it irregularly, so they are
  charged an *irregularity factor* of extra traffic -- the mechanism behind
  the paper's observation that temporal sampling and embedding lookups are
  memory-inefficient.
"""

from __future__ import annotations

from typing import Sequence, Tuple

#: Bytes per element; the library computes in float32 throughout.
ITEMSIZE = 4

#: Multiplier applied to the byte traffic of irregular (gather/scatter)
#: accesses to reflect their poor locality relative to streaming access.
IRREGULAR_ACCESS_FACTOR = 8.0


def _numel(shape: Sequence[int]) -> int:
    n = 1
    for dim in shape:
        n *= int(dim)
    return n


def matmul_cost(m: int, k: int, n: int) -> Tuple[float, float]:
    """(flops, bytes) of a dense (m, k) @ (k, n) product."""
    flops = 2.0 * m * k * n
    traffic = ITEMSIZE * (m * k + k * n + m * n)
    return (flops, float(traffic))


def batched_matmul_cost(batch: int, m: int, k: int, n: int) -> Tuple[float, float]:
    """(flops, bytes) of ``batch`` independent (m, k) @ (k, n) products."""
    flops, traffic = matmul_cost(m, k, n)
    return (batch * flops, batch * traffic)


def elementwise_cost(
    out_shape: Sequence[int], n_inputs: int = 2, flops_per_element: float = 1.0
) -> Tuple[float, float]:
    """(flops, bytes) of an elementwise op producing ``out_shape``."""
    numel = _numel(out_shape)
    flops = flops_per_element * numel
    traffic = ITEMSIZE * numel * (n_inputs + 1)
    return (flops, float(traffic))


def reduction_cost(in_shape: Sequence[int], out_shape: Sequence[int]) -> Tuple[float, float]:
    """(flops, bytes) of a reduction (sum/mean/max) from ``in_shape``."""
    flops = float(_numel(in_shape))
    traffic = ITEMSIZE * (_numel(in_shape) + _numel(out_shape))
    return (flops, float(traffic))


def softmax_cost(shape: Sequence[int]) -> Tuple[float, float]:
    """(flops, bytes) of a softmax over the last axis of ``shape``."""
    numel = _numel(shape)
    # max, subtract, exp, sum, divide ~ 5 passes over the data.
    flops = 5.0 * numel
    traffic = ITEMSIZE * numel * 3
    return (flops, float(traffic))


def copy_cost(shape: Sequence[int]) -> Tuple[float, float]:
    """(flops, bytes) of a data movement op (concat/stack/transpose/reshape copy)."""
    numel = _numel(shape)
    return (0.0, float(ITEMSIZE * numel * 2))


def gather_cost(out_shape: Sequence[int]) -> Tuple[float, float]:
    """(flops, bytes) of an irregular gather producing ``out_shape``."""
    numel = _numel(out_shape)
    traffic = ITEMSIZE * numel * 2 * IRREGULAR_ACCESS_FACTOR
    return (0.0, float(traffic))


def scatter_cost(updates_shape: Sequence[int]) -> Tuple[float, float]:
    """(flops, bytes) of an irregular scatter of ``updates_shape`` elements."""
    numel = _numel(updates_shape)
    traffic = ITEMSIZE * numel * 2 * IRREGULAR_ACCESS_FACTOR
    return (0.0, float(traffic))


def nbytes(shape: Sequence[int]) -> int:
    """Size in bytes of a float32 tensor with ``shape``."""
    return ITEMSIZE * _numel(shape)
