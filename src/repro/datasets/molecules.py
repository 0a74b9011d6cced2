"""Synthetic molecular-dynamics dataset (ISO17 stand-in) for MolDGNN.

ISO17 contains molecular-dynamics trajectories of C7O2H10 isomers: 19 atoms
whose positions evolve over thousands of femtosecond steps.  MolDGNN encodes
each frame as a graph (atoms = nodes, bonds/close pairs = edges) and predicts
the next adjacency matrix.  The generator below integrates a simple
harmonic-well + thermal-noise dynamic for the atom positions and derives
per-frame adjacency matrices from a distance cutoff, which gives trajectories
whose graph topology genuinely changes frame to frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..domain import POSITIVE_INT, Domain
from ..graph.snapshots import GraphSnapshot, SnapshotSequence
from .base import MolecularDataset

#: C7O2H10: atom-type channels are one-hot over (C, O, H).
ISO17_ATOM_TYPES = [0] * 7 + [1] * 2 + [2] * 10


@dataclass(frozen=True)
class MolecularConfig:
    """Parameters of the synthetic molecular-trajectory generator."""

    name: str = "iso17"
    num_trajectories: int = 8
    num_frames: int = 20
    num_atoms: int = 19
    bond_cutoff: float = 1.6
    temperature: float = 0.05
    seed: int = 41

    def __post_init__(self) -> None:
        POSITIVE_INT.check("num_trajectories", self.num_trajectories)
        Domain(2, integer=True).check("num_frames", self.num_frames)
        Domain(2, integer=True).check("num_atoms", self.num_atoms)


def generate_molecules(config: MolecularConfig) -> MolecularDataset:
    """Generate a :class:`MolecularDataset` from ``config``."""
    rng = np.random.default_rng(config.seed)
    trajectories: List[SnapshotSequence] = []
    atom_types = _atom_type_features(config.num_atoms)
    for _ in range(config.num_trajectories):
        positions = _initial_positions(rng, config.num_atoms)
        equilibrium = positions.copy()
        velocities = np.zeros_like(positions)
        frames: List[GraphSnapshot] = []
        for frame in range(config.num_frames):
            adjacency = _distance_adjacency(positions, config.bond_cutoff)
            features = np.concatenate([atom_types, positions.astype(np.float32)], axis=1)
            frames.append(
                GraphSnapshot(timestamp=float(frame), adjacency=adjacency, node_features=features)
            )
            # Damped harmonic pull towards equilibrium plus thermal noise.
            force = -0.3 * (positions - equilibrium)
            velocities = 0.9 * velocities + force + rng.normal(
                0.0, config.temperature, size=positions.shape
            )
            positions = positions + velocities
        trajectories.append(SnapshotSequence(frames))
    return MolecularDataset(name=config.name, trajectories=trajectories)


def _initial_positions(rng: np.random.Generator, num_atoms: int) -> np.ndarray:
    """Atoms placed on a jittered 3-D lattice so initial bond lengths are sane."""
    side = int(np.ceil(num_atoms ** (1.0 / 3.0)))
    grid = np.array(
        [[x, y, z] for x in range(side) for y in range(side) for z in range(side)],
        dtype=np.float64,
    )[:num_atoms]
    return grid * 1.2 + rng.normal(0.0, 0.1, size=(num_atoms, 3))


def _distance_adjacency(positions: np.ndarray, cutoff: float) -> np.ndarray:
    distances = np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=-1)
    adjacency = (distances < cutoff).astype(np.float32)
    np.fill_diagonal(adjacency, 0.0)
    return adjacency


def _atom_type_features(num_atoms: int) -> np.ndarray:
    types = (ISO17_ATOM_TYPES * ((num_atoms // len(ISO17_ATOM_TYPES)) + 1))[:num_atoms]
    one_hot = np.zeros((num_atoms, 3), dtype=np.float32)
    one_hot[np.arange(num_atoms), types] = 1.0
    return one_hot
