"""Dense layers: Linear and MLP."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..domain import POSITIVE_INT, Domain
from ..hw.device import Device
from ..tensor import ops
from ..tensor.tensor import Tensor
from . import init
from .module import Module, Sequential


class Linear(Module):
    """Affine transformation ``y = x W^T + b``.

    Args:
        in_features: Input feature dimension.
        out_features: Output feature dimension.
        device: Device holding the weights.
        rng: Seeded generator for initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        device: Device,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = POSITIVE_INT.check("in_features", in_features)
        self.out_features = POSITIVE_INT.check("out_features", out_features)
        rng = rng if rng is not None else init.make_rng()
        self.weight = init.xavier_uniform(
            (out_features, in_features), device, rng, name="linear.weight"
        )
        self.bias = init.zeros((out_features,), device, name="linear.bias")

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(f"Linear expected last dim {self.in_features}, got {x.shape[-1]}")
        return ops.linear(x, self.weight, self.bias)


class ReLU(Module):
    """``ops.relu`` as a module, so it can live inside ``Sequential``."""

    def forward(self, x: Tensor) -> Tensor:
        return ops.relu(x)


class MLP(Module):
    """Multi-layer perceptron: ``Linear`` layers with a ReLU between each pair.

    Args:
        dims: Layer widths, e.g. ``(in, hidden, out)``.
        device: Device holding the weights.
        rng: Seeded generator for initialisation.
    """

    def __init__(
        self,
        dims: Sequence[int],
        device: Device,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        Domain(2, integer=True).check("len(dims)", len(dims))
        rng = rng if rng is not None else init.make_rng()
        layers = []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            layers += [Linear(d_in, d_out, device, rng), ReLU()]
        self.net = Sequential(*layers[:-1])
        self.dims = tuple(dims)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
