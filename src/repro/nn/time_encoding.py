"""Time encoders.

The defining component of a DGNN is its time encoder (paper Sec. 3 / Table 1):

* TGAT and TGN use a Bochner / random-Fourier-feature style *time embedding*
  ``cos(w * t + b)`` derived from Bochner's theorem;
* JODIE, EvolveGCN, DyRep, LDG and MolDGNN use RNNs (see
  :mod:`repro.nn.recurrent`);
* ASTGNN uses self-attention with positional encodings over the time axis.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..domain import POSITIVE_INT
from ..hw.device import Device
from ..tensor import ops
from ..tensor.tensor import Tensor
from . import init
from .module import Module


class BochnerTimeEncoder(Module):
    """Functional time embedding ``phi(t) = cos(t * w + b)`` (TGAT Eq. 6).

    The frequencies are initialised on a log scale, as in the TGAT reference
    implementation, so the encoder resolves both short and long time gaps.
    """

    def __init__(
        self,
        time_dim: int,
        device: Device,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.time_dim = POSITIVE_INT.check("time_dim", time_dim)
        frequencies = 1.0 / (10.0 ** np.linspace(0, 9, time_dim, dtype=np.float32))
        from .module import Parameter

        self.frequencies = Parameter(frequencies, device, name="time.frequencies")
        self.phase = init.zeros((time_dim,), device, name="time.phase")

    def forward(self, timestamps: Tensor) -> Tensor:
        """Encode timestamps of shape (...,) into (..., time_dim)."""
        expanded = ops.expand_dims(timestamps, axis=-1)
        freq = Tensor(self.frequencies.data, timestamps.device) if (
            self.frequencies.device != timestamps.device
        ) else self.frequencies
        phase = Tensor(self.phase.data, timestamps.device) if (
            self.phase.device != timestamps.device
        ) else self.phase
        scaled = ops.mul(expanded, freq)
        return ops.cos(ops.add(scaled, phase))


class PositionalEncoding(Module):
    """Fixed sinusoidal positional encoding over the time axis (ASTGNN)."""

    def __init__(self, model_dim: int, max_len: int, device: Device) -> None:
        super().__init__()
        if model_dim % 2 != 0:
            raise ValueError("model_dim must be even for sinusoidal encodings")
        position = np.arange(max_len, dtype=np.float32)[:, None]
        div_term = np.exp(
            np.arange(0, model_dim, 2, dtype=np.float32) * (-math.log(10000.0) / model_dim)
        )
        table = np.zeros((max_len, model_dim), dtype=np.float32)
        table[:, 0::2] = np.sin(position * div_term)
        table[:, 1::2] = np.cos(position * div_term)
        from .module import Parameter

        self.table = Parameter(table, device, name="positional.table")
        self.model_dim = model_dim
        self.max_len = max_len

    def forward(self, x: Tensor) -> Tensor:
        """Add positional encodings to a (batch, time, model_dim) tensor."""
        if x.ndim != 3:
            raise ValueError("PositionalEncoding expects (batch, time, dim) input")
        length = x.shape[1]
        if length > self.max_len:
            raise ValueError(f"sequence length {length} exceeds max_len {self.max_len}")
        table = Tensor(self.table.data[:length], x.device)
        return ops.add(x, table)
