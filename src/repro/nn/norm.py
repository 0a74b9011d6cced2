"""Embedding tables."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..hw.device import Device
from ..tensor import ops
from ..tensor.tensor import Tensor
from . import init
from .module import Module


class Embedding(Module):
    """A lookup table of node/item embeddings.

    Lookups use :func:`repro.tensor.ops.gather_rows`, which is charged with
    the irregular-access penalty -- embedding gathers are one of the irregular
    memory access patterns the paper attributes the sampling/workload
    imbalance bottleneck to.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        device: Device,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError("embedding table dimensions must be positive")
        rng = rng if rng is not None else init.make_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = init.normal(
            (num_embeddings, embedding_dim), device, rng, std=0.1, name="embedding.weight"
        )

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError("embedding index out of range")
        return ops.gather_rows(self.weight, indices)
