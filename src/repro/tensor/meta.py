"""Placeholder arrays for the shape-only execution backend.

The ``shape`` backend (see :mod:`repro.hw.machine`) runs the full cost model
without numerics: operators still charge every kernel, transfer, and
allocation on the simulated clock, but their outputs carry no values.  The
vehicle is a *placeholder* array: a zero-strided, read-only view of a single
scalar broadcast to the logical shape.  Placeholders are real ``np.ndarray``
objects, so all shape/dtype/``nbytes`` accounting — and every downstream
view operation (slicing, ``reshape`` of contiguous prefixes, ``transpose``,
``expand_dims``) — behaves exactly as it would for dense data, while costing
O(1) memory and no arithmetic.

Invariants the rest of the stack relies on:

* ``placeholder(shape).nbytes == np.zeros(shape).nbytes`` — logical size, so
  transfer and allocation charges are byte-identical to the numeric backend;
* placeholders are read-only — code paths that would mutate an operator
  output in place must branch on the backend rather than silently write;
* fancy indexing or ``.copy()`` on a placeholder materialises a small dense
  array of zeros, which keeps metadata-level consumers (cache key assembly,
  scatter targets) working without a numerics dependency.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

ShapeLike = Union[int, Sequence[int]]

# One shared scalar per dtype: every placeholder of that dtype is a broadcast
# view of it, so building a placeholder allocates nothing.
_SCALARS = {}

# Placeholders are immutable (read-only, value-free), so identical requests
# can share one array object.  Model hot loops request the same few shapes
# thousands of times per run and ``np.broadcast_to`` costs ~10us per call,
# so this memo is what keeps the shape backend's constant factors small.
# Bounded: reset wholesale if a pathological workload floods it with shapes.
_MEMO = {}
_MEMO_LIMIT = 4096


def placeholder(shape: ShapeLike, dtype=np.float32) -> np.ndarray:
    """A read-only zero array of ``shape`` backed by O(1) real memory."""
    if isinstance(shape, int):
        shape = (shape,)
    else:
        shape = tuple(shape)
    # dtype may arrive as a type (np.float32) or a dtype instance; both hash
    # stably, and a rare duplicate memo entry for the two spellings is fine.
    key = (shape, dtype)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    scalar_key = np.dtype(dtype)
    scalar = _SCALARS.get(scalar_key)
    if scalar is None:
        scalar = np.zeros((), dtype=scalar_key)
        scalar.setflags(write=False)
        _SCALARS[scalar_key] = scalar
    array = np.broadcast_to(scalar, shape)
    if len(_MEMO) >= _MEMO_LIMIT:
        _MEMO.clear()
    _MEMO[key] = array
    return array


def is_placeholder(array: np.ndarray) -> bool:
    """True when ``array`` is a zero-strided broadcast view (shape-only data).

    Scalars and genuinely dense arrays return False; only arrays whose every
    stride is zero (the broadcast-scalar trick above) qualify.  Used by tests
    and by the few call sites that accept either backend's output.
    """
    return array.ndim > 0 and all(s == 0 for s in array.strides)
