"""Synthetic datasets mirroring the structure of the paper's public datasets."""

from .base import MolecularDataset, SnapshotDataset, TemporalInteractionDataset, TrafficDataset
from .interactions import github, lastfm, reddit, social_evolution, wikipedia
from .molecules import iso17
from .registry import available_datasets, load
from .snapshot_data import bitcoin_alpha, reddit_hyperlinks, stochastic_block_model
from .traffic import pems

__all__ = [
    "MolecularDataset",
    "SnapshotDataset",
    "TemporalInteractionDataset",
    "TrafficDataset",
    "available_datasets",
    "bitcoin_alpha",
    "github",
    "iso17",
    "lastfm",
    "load",
    "pems",
    "reddit",
    "reddit_hyperlinks",
    "social_evolution",
    "stochastic_block_model",
    "wikipedia",
]
