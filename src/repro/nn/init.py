"""Weight initialisation helpers.

All initialisers are explicit about their random generator so model
construction is deterministic when the caller supplies a seeded
``numpy.random.Generator`` (every model in :mod:`repro.models` does).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..hw.device import Device
from .module import Parameter

_DEFAULT_SEED = 1234


def make_rng(seed: Optional[int] = None) -> np.random.Generator:
    """A seeded generator; the default seed keeps unseeded code deterministic."""
    return np.random.default_rng(_DEFAULT_SEED if seed is None else seed)


def xavier_uniform(
    shape: Sequence[int], device: Device, rng: np.random.Generator, name: str = ""
) -> Parameter:
    """Glorot/Xavier uniform initialisation for weight matrices."""
    fan_in = int(shape[-1]) if len(shape) >= 1 else 1
    fan_out = int(shape[0]) if len(shape) >= 2 else 1
    bound = math.sqrt(6.0 / max(1, fan_in + fan_out))
    data = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return Parameter(data, device, name=name)


def zeros(shape: Sequence[int], device: Device, name: str = "") -> Parameter:
    return Parameter(np.zeros(shape, dtype=np.float32), device, name=name)


def normal(
    shape: Sequence[int],
    device: Device,
    rng: np.random.Generator,
    std: float = 0.02,
    name: str = "",
) -> Parameter:
    data = (rng.standard_normal(shape) * std).astype(np.float32)
    return Parameter(data, device, name=name)
