"""Synthetic datasets mirroring the structure of the paper's public datasets."""

from .base import MolecularDataset, SnapshotDataset, TemporalInteractionDataset, TrafficDataset
from .registry import available_datasets, load

__all__ = [
    "MolecularDataset",
    "SnapshotDataset",
    "TemporalInteractionDataset",
    "TrafficDataset",
    "available_datasets",
    "load",
]
