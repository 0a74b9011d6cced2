"""Neural-network substrate built on :mod:`repro.tensor`.

Provides the layers the eight profiled DGNNs are composed of: dense layers,
recurrent cells, attention, graph convolutions and the time encoders that
distinguish DGNNs from static GNNs.
"""

from . import init
from .attention import MultiHeadAttention, TemporalNeighborAttention
from .conv import WeightlessGCNLayer, normalized_adjacency
from .linear import MLP, Linear
from .module import Module, ModuleList, Parameter, Sequential
from .recurrent import GRUCell, LSTMCell
from .time_encoding import BochnerTimeEncoder, PositionalEncoding

__all__ = [
    "BochnerTimeEncoder",
    "GRUCell",
    "LSTMCell",
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
    "init",
    "normalized_adjacency",
]
