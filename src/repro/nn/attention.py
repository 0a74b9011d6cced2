"""Attention layers.

Self-attention appears in several of the profiled models: TGAT aggregates
temporal neighbourhoods with multi-head attention, ASTGNN stacks temporal
self-attention blocks, JODIE's projection operator is attention-like, and
DyRep/LDG learn temporal attention weights over node pairs.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..hw.device import Device
from ..tensor import ops
from ..tensor.tensor import Tensor, ensure_same_device
from . import init
from .linear import Linear
from .module import Module


def scaled_dot_product_attention(
    query: Tensor, key: Tensor, value: Tensor, mask: Optional[Tensor] = None
) -> Tuple[Tensor, Tensor]:
    """Attention(Q, K, V) = softmax(Q K^T / sqrt(d)) V.

    Shapes: query (..., Lq, d), key (..., Lk, d), value (..., Lk, dv).
    Returns the attended values and the attention weights.
    """
    ensure_same_device(query, key, value)
    d_model = query.shape[-1]
    scores = ops.matmul(query, ops.transpose(key, _swap_last_two(key.ndim)), name="attn_qk")
    scores = ops.mul(scores, 1.0 / math.sqrt(max(1, d_model)))
    if mask is not None:
        scores = ops.add_mask(scores, mask)
    weights = ops.softmax(scores, axis=-1)
    attended = ops.matmul(weights, value, name="attn_v")
    return (attended, weights)


def _swap_last_two(ndim: int) -> Tuple[int, ...]:
    axes = list(range(ndim))
    axes[-2], axes[-1] = (axes[-1], axes[-2])
    return tuple(axes)


class MultiHeadAttention(Module):
    """Standard multi-head attention with separate Q/K/V/output projections.

    Args:
        model_dim: Input and output feature dimension.
        num_heads: Number of attention heads (must divide ``model_dim``).
        device: Device holding the weights.
        rng: Seeded generator for initialisation.
    """

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        device: Device,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if model_dim % num_heads != 0:
            raise ValueError("model_dim must be divisible by num_heads")
        rng = rng if rng is not None else init.make_rng()
        self.model_dim = model_dim
        self.num_heads = num_heads
        self.head_dim = model_dim // num_heads
        self.query_proj = Linear(model_dim, model_dim, device, rng)
        self.key_proj = Linear(model_dim, model_dim, device, rng)
        self.value_proj = Linear(model_dim, model_dim, device, rng)
        self.out_proj = Linear(model_dim, model_dim, device, rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        """(B, L, D) -> (B, H, L, D/H)."""
        batch, length, _ = x.shape
        reshaped = ops.reshape(x, (batch, length, self.num_heads, self.head_dim))
        return ops.transpose(reshaped, (0, 2, 1, 3))

    def _merge_heads(self, x: Tensor) -> Tensor:
        """(B, H, L, D/H) -> (B, L, D)."""
        batch, _, length, _ = x.shape
        swapped = ops.transpose(x, (0, 2, 1, 3))
        return ops.reshape(swapped, (batch, length, self.model_dim))

    def forward(
        self,
        query: Tensor,
        key: Optional[Tensor] = None,
        value: Optional[Tensor] = None,
        mask: Optional[Tensor] = None,
    ) -> Tensor:
        """Inputs are (batch, length, model_dim); defaults to self-attention."""
        key = key if key is not None else query
        value = value if value is not None else key
        if query.ndim != 3:
            raise ValueError("MultiHeadAttention expects (batch, length, dim) inputs")
        q = self._split_heads(self.query_proj(query))
        k = self._split_heads(self.key_proj(key))
        v = self._split_heads(self.value_proj(value))
        attended, _ = scaled_dot_product_attention(q, k, v, mask=mask)
        return self.out_proj(self._merge_heads(attended))


class TemporalNeighborAttention(Module):
    """TGAT-style attention of a target node over its sampled temporal neighbours.

    The query is the target node's feature concatenated with its time
    encoding; keys and values are the neighbours' features concatenated with
    the encodings of the time deltas to the interaction.  This mirrors the
    TGAT layer the paper profiles as the "Attention Layer" component.
    """

    def __init__(
        self,
        node_dim: int,
        time_dim: int,
        num_heads: int,
        device: Device,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else init.make_rng()
        model_dim = node_dim + time_dim
        if model_dim % num_heads != 0:
            # Round the model dim up so heads divide it evenly.
            model_dim = ((model_dim + num_heads - 1) // num_heads) * num_heads
        self.node_dim = node_dim
        self.time_dim = time_dim
        self.model_dim = model_dim
        self.input_proj = Linear(node_dim + time_dim, model_dim, device, rng)
        self.attention = MultiHeadAttention(model_dim, num_heads, device, rng)
        self.output_proj = Linear(model_dim, node_dim, device, rng)

    def forward(
        self,
        target_features: Tensor,
        target_time_encoding: Tensor,
        neighbor_features: Tensor,
        neighbor_time_encoding: Tensor,
        mask: Optional[Tensor] = None,
    ) -> Tensor:
        """Aggregate neighbours into updated target embeddings.

        Shapes: target_features (B, node_dim); target_time_encoding
        (B, time_dim); neighbor_features (B, K, node_dim);
        neighbor_time_encoding (B, K, time_dim).  Returns (B, node_dim).
        """
        batch = target_features.shape[0]
        query_input = ops.concat([target_features, target_time_encoding], axis=-1)
        query = ops.reshape(self.input_proj(query_input), (batch, 1, self.model_dim))
        key_input = ops.concat([neighbor_features, neighbor_time_encoding], axis=-1)
        keys = self.input_proj(key_input)
        attended = self.attention(query, keys, keys, mask=mask)
        squeezed = ops.reshape(attended, (batch, self.model_dim))
        return self.output_proj(squeezed)
