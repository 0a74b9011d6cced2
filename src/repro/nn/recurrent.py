"""Recurrent cells (GRU and LSTM).

RNNs are the time encoders of JODIE, EvolveGCN, DyRep, LDG and MolDGNN.  In
the paper, their step-by-step execution is the canonical temporal-data-
dependency bottleneck: each step launches a handful of small GEMMs that must
wait for the previous step, which keeps GPU utilization in the low single
digits.  The cells here are implemented exactly that way -- one call per time
step, a few small :func:`~repro.tensor.ops.linear` kernels per call -- so the
simulated profiles exhibit the same behaviour.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..hw.device import Device
from ..tensor import ops
from ..tensor.tensor import Tensor
from . import init
from .linear import Linear
from .module import Module


class GRUCell(Module):
    """A single gated recurrent unit step.

    Computes the standard GRU update with reset gate ``r``, update gate ``z``
    and candidate state ``n``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        device: Device,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.make_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.input_gates = Linear(input_size, 3 * hidden_size, device, rng)
        self.hidden_gates = Linear(hidden_size, 3 * hidden_size, device, rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """One step: ``x`` is (batch, input_size), ``h`` is (batch, hidden_size)."""
        if x.shape[-1] != self.input_size:
            raise ValueError(f"GRUCell expected input dim {self.input_size}, got {x.shape[-1]}")
        if h.shape[-1] != self.hidden_size:
            raise ValueError(f"GRUCell expected hidden dim {self.hidden_size}, got {h.shape[-1]}")
        gates_x = self.input_gates(x)
        gates_h = self.hidden_gates(h)
        hs = self.hidden_size
        rx, zx, nx = _split3(gates_x, hs)
        rh, zh, nh = _split3(gates_h, hs)
        reset = ops.sigmoid(ops.add(rx, rh))
        update = ops.sigmoid(ops.add(zx, zh))
        candidate = ops.tanh(ops.add(nx, ops.mul(reset, nh)))
        # h' = (1 - z) * n + z * h, written as n + z * (h - n).
        return ops.add(candidate, ops.mul(update, ops.sub(h, candidate)))


class LSTMCell(Module):
    """A single long short-term memory step returning ``(h, c)``."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        device: Device,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.make_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.input_gates = Linear(input_size, 4 * hidden_size, device, rng)
        self.hidden_gates = Linear(hidden_size, 4 * hidden_size, device, rng)

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h, c = state
        if x.shape[-1] != self.input_size:
            raise ValueError(f"LSTMCell expected input dim {self.input_size}, got {x.shape[-1]}")
        gates = ops.add(self.input_gates(x), self.hidden_gates(h))
        hs = self.hidden_size
        i_gate = ops.sigmoid(_slice_cols(gates, 0, hs))
        f_gate = ops.sigmoid(_slice_cols(gates, hs, 2 * hs))
        g_gate = ops.tanh(_slice_cols(gates, 2 * hs, 3 * hs))
        o_gate = ops.sigmoid(_slice_cols(gates, 3 * hs, 4 * hs))
        new_c = ops.add(ops.mul(f_gate, c), ops.mul(i_gate, g_gate))
        new_h = ops.mul(o_gate, ops.tanh(new_c))
        return (new_h, new_c)


def _split3(tensor: Tensor, width: int) -> Tuple[Tensor, Tensor, Tensor]:
    return (
        _slice_cols(tensor, 0, width),
        _slice_cols(tensor, width, 2 * width),
        _slice_cols(tensor, 2 * width, 3 * width),
    )


def _slice_cols(tensor: Tensor, start: int, stop: int) -> Tensor:
    """Column slice without a kernel (views are free, as in PyTorch)."""
    return Tensor(tensor.data[..., start:stop], tensor.device)
