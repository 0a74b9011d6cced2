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
