"""Graph convolution layers.

The discrete-time models in the paper (EvolveGCN, MolDGNN, ASTGNN) process
each snapshot with graph convolutions; this module provides the symmetric-
normalised GCN forward they build on and a layer whose weights are supplied
externally (EvolveGCN's RNN evolves the GCN weights, so the layer must accept
them per time step rather than owning them).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import ops
from ..tensor.tensor import Tensor, ensure_same_device
from .module import Module


def normalized_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetrically normalise an adjacency matrix: ``D^-1/2 (A + I) D^-1/2``.

    Operates on plain numpy because the paper's models perform this step as
    CPU-side preprocessing; the caller charges the cost separately.
    """
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    a_hat = adjacency.astype(np.float32) + np.eye(adjacency.shape[0], dtype=np.float32)
    degrees = a_hat.sum(axis=1)
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = degrees[nonzero] ** -0.5
    return (a_hat * inv_sqrt[:, None]) * inv_sqrt[None, :]


class WeightlessGCNLayer(Module):
    """A GCN layer whose weight matrix is passed in at call time.

    EvolveGCN's defining trick is that an RNN produces the GCN weights for
    each snapshot; the layer itself therefore owns no parameters.
    """

    def __init__(self, activation: Optional[str] = "relu") -> None:
        super().__init__()
        self.activation = activation

    def forward(self, adjacency: Tensor, features: Tensor, weight: Tensor) -> Tensor:
        return gcn_forward(adjacency, features, weight, self.activation)


def gcn_forward(
    adjacency: Tensor,
    features: Tensor,
    weight: Tensor,
    activation: Optional[str] = "relu",
) -> Tensor:
    """Shared GCN computation: aggregate with SpMM, transform, activate."""
    ensure_same_device(adjacency, features, weight)
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be square")
    if adjacency.shape[1] != features.shape[0]:
        raise ValueError(f"adjacency ({adjacency.shape}) and features ({features.shape}) disagree")
    aggregated = ops.spmm(adjacency, features)
    transformed = ops.matmul(aggregated, weight, name="gcn_transform")
    if activation == "relu":
        return ops.relu(transformed)
    if activation is None:
        return transformed
    raise ValueError(f"unknown activation {activation!r}")
