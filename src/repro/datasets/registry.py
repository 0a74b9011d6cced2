"""Dataset registry: one table row per named dataset, and :func:`load`, its reader.

Every dataset the paper's artifact appendix lists is available here by name
at three scales: ``tiny`` (unit tests), ``small`` (examples and the default
benchmark configuration) and ``paper`` (closest to the published sizes that a
laptop-class machine can hold).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Tuple, Union

from .base import (
    MolecularDataset,
    SnapshotDataset,
    TemporalInteractionDataset,
    TrafficDataset,
)
from .interactions import InteractionConfig, generate_interactions
from .molecules import MolecularConfig, generate_molecules
from .snapshot_data import SnapshotConfig, generate_block_model, generate_snapshot_sequence
from .traffic import TrafficConfig, generate_traffic

Dataset = Union[TemporalInteractionDataset, SnapshotDataset, TrafficDataset, MolecularDataset]

SCALES = ("tiny", "small", "paper")


class DatasetSpec(NamedTuple):
    """One row of the dataset table."""

    generate: Callable[[Any], Dataset]
    config_class: type
    #: Default generator seed (``load``'s ``seed`` overrides it).
    seed: int
    #: Config fields that grow with scale: ``field -> (tiny, small, paper)``.
    sizes: Mapping[str, Tuple[int, int, int]]
    #: Config fields the preset fixes at every scale.
    fixed: Mapping[str, Any]


#: The dataset table: continuous-time streams, then snapshots, traffic and molecules.
DATASETS: Dict[str, DatasetSpec] = {
    # Wikipedia edit stream: bipartite user-page interactions.
    "wikipedia": DatasetSpec(
        generate_interactions, InteractionConfig, 7,
        {"num_users": (120, 1000, 8227), "num_items": (60, 400, 1000),
         "num_events": (800, 8000, 157474)},
        {"edge_dim": 172, "node_dim": 172},
    ),
    # Reddit post stream: bipartite user-subreddit interactions.  The larger of
    # the two JODIE/TGAT datasets; its higher average temporal degree is why the
    # paper's Reddit breakdowns show larger sampling and memory-copy times than
    # Wikipedia's.
    "reddit": DatasetSpec(
        generate_interactions, InteractionConfig, 11,
        {"num_users": (160, 1500, 10000), "num_items": (40, 300, 984),
         "num_events": (1200, 12000, 672447)},
        {"edge_dim": 172, "node_dim": 172, "zipf_exponent": 1.5},
    ),
    # LastFM listening stream: bipartite user-song interactions.
    "lastfm": DatasetSpec(
        generate_interactions, InteractionConfig, 13,
        {"num_users": (100, 800, 980), "num_items": (80, 600, 1000),
         "num_events": (1000, 10000, 1293103)},
        {"edge_dim": 2, "node_dim": 128, "zipf_exponent": 1.1, "burstiness": 0.5},
    ),
    # Social Evolution proximity events: a non-bipartite person graph.
    "social-evolution": DatasetSpec(
        generate_interactions, InteractionConfig, 17,
        {"num_users": (60, 84, 84), "num_events": (900, 8000, 200000)},
        {"num_items": 0, "edge_dim": 16, "node_dim": 32, "bipartite": False, "burstiness": 0.6},
    ),
    # GitHub archive events: a non-bipartite developer-interaction graph.
    "github": DatasetSpec(
        generate_interactions, InteractionConfig, 19,
        {"num_users": (150, 1200, 12328), "num_events": (1000, 9000, 500000)},
        {"num_items": 0, "edge_dim": 8, "node_dim": 64, "bipartite": False,
         "zipf_exponent": 1.6},
    ),
    # Bitcoin-Alpha trust network: small, sparse, signed weights.  The real
    # graph has 3783 nodes; ``paper`` is capped so dense snapshot storage fits.
    "bitcoin-alpha": DatasetSpec(
        generate_snapshot_sequence, SnapshotConfig, 23,
        {"num_nodes": (60, 300, 1200), "num_snapshots": (6, 12, 20)},
        {"feature_dim": 64, "edge_density": 0.01, "churn": 0.08, "signed": True},
    ),
    # Reddit hyperlink network: larger, denser snapshots, whose payload drives
    # EvolveGCN's higher memory-copy share on Reddit in the paper's Fig. 7(i).
    # The real network has ~35k subreddits; ``paper`` is capped for dense
    # snapshot storage but kept several times larger than Bitcoin-Alpha so the
    # relative memory-copy behaviour is preserved.
    "reddit-hyperlinks": DatasetSpec(
        generate_snapshot_sequence, SnapshotConfig, 29,
        {"num_nodes": (120, 600, 1500), "num_snapshots": (6, 12, 16)},
        {"feature_dim": 128, "edge_density": 0.02, "churn": 0.15, "signed": False},
    ),
    # IBM stochastic-block-model benchmark with drifting communities; its
    # generator reads only the sizes and the seed.
    "sbm": DatasetSpec(
        generate_block_model, SnapshotConfig, 31,
        {"num_nodes": (80, 400, 1000), "num_snapshots": (6, 10, 50)},
        {},
    ),
    # PeMS road sensors: PEMS04 has 307 sensors, PEMS08 has 170.
    "pems": DatasetSpec(
        generate_traffic, TrafficConfig, 37,
        {"num_sensors": (40, 120, 307), "num_days": (1, 2, 7)},
        {},
    ),
    # ISO17 molecular-dynamics trajectories of C7O2H10 isomers.
    "iso17": DatasetSpec(
        generate_molecules, MolecularConfig, 41,
        {"num_trajectories": (4, 16, 64), "num_frames": (8, 20, 50)},
        {},
    ),
}


def available_datasets() -> List[str]:
    """Names of every registered dataset, sorted."""
    return sorted(DATASETS)


def load(name: str, scale: str = "small", seed: int | None = None) -> Dataset:
    """Load a dataset by name.

    Args:
        name: One of :func:`available_datasets`.
        scale: ``"tiny"``, ``"small"`` or ``"paper"``.
        seed: Override the dataset's default seed (affects the synthetic
            generator, keeping everything else identical).
    """
    if name not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; available: {', '.join(available_datasets())}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    spec = DATASETS[name]
    column = SCALES.index(scale)
    sizes = {field: values[column] for field, values in spec.sizes.items()}
    config = spec.config_class(
        name=name, seed=spec.seed if seed is None else seed, **sizes, **spec.fixed
    )
    return spec.generate(config)
