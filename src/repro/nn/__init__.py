"""Neural-network substrate built on :mod:`repro.tensor`.

Provides the layers the eight profiled DGNNs are composed of: dense and
recurrent layers, attention, graph convolutions, normalisation, embedding
tables and the time encoders that distinguish DGNNs from static GNNs.
"""

from . import init
from .attention import (
    MultiHeadAttention,
    TemporalNeighborAttention,
    scaled_dot_product_attention,
)
from .conv import GCNLayer, WeightlessGCNLayer, gcn_forward, normalized_adjacency
from .linear import MLP, Activation, Linear
from .module import Module, ModuleList, Parameter, Sequential
from .norm import Embedding, LayerNorm
from .recurrent import GRU, GRUCell, LSTM, LSTMCell
from .time_encoding import BochnerTimeEncoder, PositionalEncoding

__all__ = [
    "Activation",
    "BochnerTimeEncoder",
    "Embedding",
    "GCNLayer",
    "GRU",
    "GRUCell",
    "LSTM",
    "LSTMCell",
    "LayerNorm",
    "Linear",
    "MLP",
    "Module",
    "ModuleList",
    "MultiHeadAttention",
    "Parameter",
    "PositionalEncoding",
    "Sequential",
    "TemporalNeighborAttention",
    "WeightlessGCNLayer",
    "gcn_forward",
    "init",
    "normalized_adjacency",
    "scaled_dot_product_attention",
]
