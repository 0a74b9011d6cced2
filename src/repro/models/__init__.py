"""The eight DGNN models profiled in the paper, implemented on the
:mod:`repro.nn` / :mod:`repro.graph` substrates with paper-faithful dataflow
and region annotations."""

from .astgnn import ASTGNN, ASTGNNConfig
from .base import CONTINUOUS, DISCRETE, DGNNModel, ModelCard
from .dyrep import DyRep, DyRepConfig
from .evolvegcn import EvolveGCN, EvolveGCNConfig
from .jodie import JODIE, JODIEConfig
from .ldg import LDG, LDGConfig
from .moldgnn import MolDGNN, MolDGNNConfig
from .registry import DEFAULT_DATASETS, MODEL_NAMES, available_models, build_model
from .tgat import TGAT, TGATConfig
from .tgn import TGN, TGNConfig

__all__ = [
    "ASTGNN",
    "ASTGNNConfig",
    "CONTINUOUS",
    "DEFAULT_DATASETS",
    "DGNNModel",
    "DISCRETE",
    "DyRep",
    "DyRepConfig",
    "EvolveGCN",
    "EvolveGCNConfig",
    "JODIE",
    "JODIEConfig",
    "LDG",
    "LDGConfig",
    "MODEL_NAMES",
    "ModelCard",
    "MolDGNN",
    "MolDGNNConfig",
    "TGAT",
    "TGATConfig",
    "TGN",
    "TGNConfig",
    "available_models",
    "build_model",
]
