"""Synthetic temporal-interaction datasets.

Generates bipartite user-item interaction streams shaped like the Stanford
SNAP datasets the paper uses for JODIE, TGN, TGAT, DyRep and LDG (Wikipedia
page edits, Reddit posts, LastFM listens, GitHub events, Social Evolution
proximity records):

* item popularity follows a Zipf-like law (a few hot pages/subreddits absorb
  most interactions);
* users are bursty -- a user's interactions cluster in time;
* interaction rates drift over the capture window so the graph keeps
  evolving, which is what forces the models' per-event updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..domain import POSITIVE_INT, Domain
from ..graph.events import EventStream
from .base import TemporalInteractionDataset


@dataclass(frozen=True)
class InteractionConfig:
    """Parameters of the synthetic interaction generator."""

    name: str = "synthetic"
    num_users: int = 1000
    num_items: int = 500
    num_events: int = 10000
    edge_dim: int = 172
    node_dim: int = 172
    bipartite: bool = True
    zipf_exponent: float = 1.3
    burstiness: float = 0.3
    time_span: float = 1.0e6
    seed: int = 7

    def __post_init__(self) -> None:
        Domain(2, integer=True).check("num_users", self.num_users)
        POSITIVE_INT.check("num_events", self.num_events)
        Domain(2 if self.bipartite else 0, integer=True).check("num_items", self.num_items)
        Domain(0, 1, hi_open=True).check("burstiness", self.burstiness)


def generate_interactions(config: InteractionConfig) -> TemporalInteractionDataset:
    """Generate a :class:`TemporalInteractionDataset` from ``config``."""
    rng = np.random.default_rng(config.seed)
    num_users = config.num_users
    num_items = config.num_items if config.bipartite else 0
    num_nodes = num_users + num_items

    # Zipf-like popularity for destinations, mild skew for sources.
    if config.bipartite:
        item_weights = _zipf_weights(num_items, config.zipf_exponent)
        user_weights = _zipf_weights(num_users, max(0.6, config.zipf_exponent - 0.5))
        src = rng.choice(num_users, size=config.num_events, p=user_weights)
        dst = num_users + rng.choice(num_items, size=config.num_events, p=item_weights)
    else:
        weights = _zipf_weights(num_users, config.zipf_exponent)
        src = rng.choice(num_users, size=config.num_events, p=weights)
        dst = rng.choice(num_users, size=config.num_events, p=weights)
        # Avoid self-loops by re-drawing collisions.
        collisions = src == dst
        while collisions.any():
            dst[collisions] = rng.choice(num_users, size=int(collisions.sum()), p=weights)
            collisions = src == dst

    timestamps = _bursty_timestamps(rng, config.num_events, config.time_span, config.burstiness)
    order = np.argsort(timestamps, kind="stable")
    src, dst, timestamps = (src[order], dst[order], timestamps[order])

    edge_features = rng.standard_normal((config.num_events, config.edge_dim)).astype(np.float32)
    edge_features *= 0.1
    node_features = rng.standard_normal((num_nodes, config.node_dim)).astype(np.float32) * 0.1

    stream = EventStream(src, dst, timestamps, edge_features, num_nodes=num_nodes)
    return TemporalInteractionDataset(
        name=config.name,
        stream=stream,
        num_users=num_users,
        num_items=num_items,
        node_features=node_features,
    )


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


def _bursty_timestamps(
    rng: np.random.Generator, num_events: int, time_span: float, burstiness: float
) -> np.ndarray:
    """Event times from a mixture of uniform arrivals and short bursts."""
    uniform_count = int(num_events * (1.0 - burstiness))
    burst_count = num_events - uniform_count
    uniform_times = rng.uniform(0.0, time_span, size=uniform_count)
    if burst_count > 0:
        num_bursts = max(1, burst_count // 50)
        centers = rng.uniform(0.0, time_span, size=num_bursts)
        assignment = rng.integers(0, num_bursts, size=burst_count)
        burst_times = centers[assignment] + rng.normal(0.0, time_span * 0.002, size=burst_count)
        burst_times = np.clip(burst_times, 0.0, time_span)
        times = np.concatenate([uniform_times, burst_times])
    else:
        times = uniform_times
    return np.sort(times)


# -- named dataset presets -----------------------------------------------------

def wikipedia(scale: str = "small", seed: int = 7) -> TemporalInteractionDataset:
    """Wikipedia edit stream stand-in (bipartite user-page interactions)."""
    sizes = {
        "tiny": (120, 60, 800),
        "small": (1000, 400, 8000),
        "paper": (8227, 1000, 157474),
    }
    users, items, events = sizes[_check_scale(scale, sizes)]
    return generate_interactions(
        InteractionConfig(
            name="wikipedia", num_users=users, num_items=items, num_events=events,
            edge_dim=172, node_dim=172, seed=seed,
        )
    )


def reddit(scale: str = "small", seed: int = 11) -> TemporalInteractionDataset:
    """Reddit post stream stand-in (bipartite user-subreddit interactions).

    Reddit is the larger of the two JODIE/TGAT datasets; its average temporal
    degree is higher, which is why the paper's Reddit breakdowns show larger
    sampling and memory-copy times than Wikipedia.
    """
    sizes = {
        "tiny": (160, 40, 1200),
        "small": (1500, 300, 12000),
        "paper": (10000, 984, 672447),
    }
    users, items, events = sizes[_check_scale(scale, sizes)]
    return generate_interactions(
        InteractionConfig(
            name="reddit", num_users=users, num_items=items, num_events=events,
            edge_dim=172, node_dim=172, zipf_exponent=1.5, seed=seed,
        )
    )


def lastfm(scale: str = "small", seed: int = 13) -> TemporalInteractionDataset:
    """LastFM listening stream stand-in (bipartite user-song interactions)."""
    sizes = {
        "tiny": (100, 80, 1000),
        "small": (800, 600, 10000),
        "paper": (980, 1000, 1293103),
    }
    users, items, events = sizes[_check_scale(scale, sizes)]
    return generate_interactions(
        InteractionConfig(
            name="lastfm", num_users=users, num_items=items, num_events=events,
            edge_dim=2, node_dim=128, zipf_exponent=1.1, burstiness=0.5, seed=seed,
        )
    )


def social_evolution(scale: str = "small", seed: int = 17) -> TemporalInteractionDataset:
    """Social Evolution proximity-event stand-in (non-bipartite person graph)."""
    sizes = {
        "tiny": (60, 0, 900),
        "small": (84, 0, 8000),
        "paper": (84, 0, 200000),
    }
    users, _, events = sizes[_check_scale(scale, sizes)]
    return generate_interactions(
        InteractionConfig(
            name="social-evolution", num_users=users, num_items=0, num_events=events,
            edge_dim=16, node_dim=32, bipartite=False, burstiness=0.6, seed=seed,
        )
    )


def github(scale: str = "small", seed: int = 19) -> TemporalInteractionDataset:
    """GitHub archive event stand-in (non-bipartite developer-interaction graph)."""
    sizes = {
        "tiny": (150, 0, 1000),
        "small": (1200, 0, 9000),
        "paper": (12328, 0, 500000),
    }
    users, _, events = sizes[_check_scale(scale, sizes)]
    return generate_interactions(
        InteractionConfig(
            name="github", num_users=users, num_items=0, num_events=events,
            edge_dim=8, node_dim=64, bipartite=False, zipf_exponent=1.6, seed=seed,
        )
    )


def _check_scale(scale: str, sizes: dict) -> str:
    if scale not in sizes:
        raise ValueError(f"unknown scale {scale!r}; expected one of {sorted(sizes)}")
    return scale
