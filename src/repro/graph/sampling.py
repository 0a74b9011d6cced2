"""Temporal neighbourhood sampling.

TGAT and TGN aggregate information from a node's *temporal* neighbourhood:
the k most recent (or k uniformly chosen) interactions that happened strictly
before the query time.  The reference implementations do this on the CPU with
a per-node binary search over the node's time-sorted interaction list followed
by index sorting -- exactly the irregular, sort-heavy preprocessing the paper
identifies as the workload-imbalance bottleneck (Sec. 4.2).

The sampler here reproduces both the functionality (correct temporal
neighbourhoods, deterministic under a seed) and the cost: every call charges
host-side work to the active machine according to a calibrated per-target /
per-sample cost model, so the profiled "Sampling (CPU)" share behaves like the
paper's Figs. 7(e)-(h).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._compat import DATACLASS_SLOTS
from ..hw.machine import active_machine_or_none, current_machine, has_active_machine
from ..tensor.meta import placeholder
from .events import EventStream


@dataclass(frozen=True, **DATACLASS_SLOTS)
class SamplingCostModel:
    """Host-side cost of temporal neighbourhood sampling.

    The defaults are calibrated so that a two-layer TGAT query over a
    200-interaction mini-batch costs tens of milliseconds for small
    neighbourhoods and grows towards a second for 300-neighbour sampling,
    matching the magnitudes reported in the paper's Fig. 7 breakdowns.
    """

    per_target_us: float = 10.0
    per_candidate_us: float = 0.01
    per_sample_us: float = 0.03
    sort_log_factor_us: float = 1.0

    def batch_cost_ms(self, degrees: np.ndarray, k: int) -> float:
        """Cost of sampling ``k`` neighbours for each target with ``degrees``."""
        if k < 0:
            raise ValueError("k must be non-negative")
        degrees = np.asarray(degrees, dtype=np.float64)
        per_target = (
            self.per_target_us
            + self.per_candidate_us * degrees
            + self.per_sample_us * k
            + self.sort_log_factor_us * np.log2(degrees + 2.0)
        )
        return float(per_target.sum() * 1e-3)


@dataclass(frozen=True, **DATACLASS_SLOTS)
class NeighborhoodSample:
    """Result of one batched temporal-neighbourhood query.

    All arrays have shape (num_targets, k); ``mask`` marks valid entries
    (targets with fewer than k earlier interactions are zero-padded).
    """

    neighbor_ids: np.ndarray
    neighbor_times: np.ndarray
    event_indices: np.ndarray
    mask: np.ndarray

    @property
    def num_targets(self) -> int:
        return int(self.neighbor_ids.shape[0])

    @property
    def k(self) -> int:
        return int(self.neighbor_ids.shape[1])


class TemporalNeighborSampler:
    """Samples temporal neighbourhoods from an :class:`EventStream`.

    Args:
        stream: The interaction stream to index.
        uniform: When true, sample uniformly among the earlier interactions;
            otherwise take the most recent ones (both strategies appear in the
            TGAT/TGN reference code).
        seed: Seed for the uniform strategy.
        cost_model: Host-side cost model; ``None`` uses the calibrated default.
    """

    def __init__(
        self,
        stream: EventStream,
        uniform: bool = True,
        seed: int = 0,
        cost_model: Optional[SamplingCostModel] = None,
    ) -> None:
        self.stream = stream
        self.uniform = uniform
        self.cost_model = cost_model if cost_model is not None else SamplingCostModel()
        self._rng = np.random.default_rng(seed)
        self._adjacency = self._build_index(stream)

    @staticmethod
    def _build_index(stream: EventStream):
        """Per-node arrays of (timestamps, neighbours, event indices), time-sorted.

        Built with one vectorized stable sort over the doubled event list
        instead of a Python loop over events.  The ordering is identical to
        appending each event's (src -> dst) then (dst -> src) entry in event
        order and stably sorting each node's list by timestamp: the sort key
        is (node, time, append position), so time ties keep event order and
        a self-loop's src entry stays ahead of its dst entry.
        """
        num_events = stream.num_events
        num_nodes = stream.num_nodes
        if num_events == 0:
            empty = (
                np.empty(0, dtype=np.float64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
            return [empty for _ in range(num_nodes)]
        # Entry 2i is event i seen from its source, entry 2i+1 from its
        # destination -- the same append order as the reference loop.
        node_ids = np.empty(2 * num_events, dtype=np.int64)
        node_ids[0::2] = stream.src
        node_ids[1::2] = stream.dst
        neighbor_ids = np.empty(2 * num_events, dtype=np.int64)
        neighbor_ids[0::2] = stream.dst
        neighbor_ids[1::2] = stream.src
        entry_times = np.repeat(stream.timestamps.astype(np.float64), 2)
        position = np.arange(2 * num_events, dtype=np.int64)
        order = np.lexsort((position, entry_times, node_ids))
        sorted_nodes = node_ids[order]
        sorted_times = entry_times[order]
        sorted_neighbors = neighbor_ids[order]
        sorted_events = order // 2
        offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        counts = np.bincount(node_ids, minlength=num_nodes)
        np.cumsum(counts, out=offsets[1:])
        return [
            (
                sorted_times[offsets[node]:offsets[node + 1]],
                sorted_neighbors[offsets[node]:offsets[node + 1]],
                sorted_events[offsets[node]:offsets[node + 1]],
            )
            for node in range(num_nodes)
        ]

    # -- queries ----------------------------------------------------------------

    def total_degree(self, node: int) -> int:
        """Total interaction count of ``node`` over the whole stream.

        Used by the degree-weighted cache eviction policy as a proxy for how
        expensive a node's neighbourhood sample is to recompute (the
        per-query cost grows with the candidate-list length).
        """
        times, _, _ = self._adjacency[node]
        return int(len(times))

    def sample(self, nodes: np.ndarray, timestamps: np.ndarray, k: int) -> NeighborhoodSample:
        """Sample ``k`` temporal neighbours for each (node, time) pair.

        The call charges its host-side cost to the active machine under the
        op name ``temporal_neighbor_sampling`` so profilers can attribute it.

        Under the machine's ``shape`` backend the sampler still walks every
        row, consumes the *same* RNG draws, and materialises ``neighbor_ids``
        and ``mask`` (both feed timeline-relevant logic downstream: deeper
        sampling layers, cache keys, cross-shard gather accounting) -- only
        the pure payload arrays ``neighbor_times`` and ``event_indices``
        become placeholders, skipping their per-row gather writes.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if nodes.shape != timestamps.shape:
            raise ValueError("nodes and timestamps must have the same shape")
        if k <= 0:
            raise ValueError("k must be positive")
        machine = active_machine_or_none()
        shape_only = machine is not None and machine.shape_mode
        batch = len(nodes)
        neighbor_ids = np.zeros((batch, k), dtype=np.int64)
        if shape_only:
            neighbor_times = placeholder((batch, k), np.float64)
            event_indices = placeholder((batch, k), np.int64)
        else:
            neighbor_times = np.zeros((batch, k), dtype=np.float64)
            event_indices = np.zeros((batch, k), dtype=np.int64)
        mask = np.zeros((batch, k), dtype=np.float32)
        degrees = np.zeros(batch, dtype=np.int64)
        # Tight loop: the RNG must be consulted in row order with the same
        # draws as ever (seeded reproducibility), so the rows cannot be
        # batched -- but the per-row numpy wrapper overhead can go: ndarray
        # method calls instead of module-level functions, an in-place sort
        # of the drawn indices, and a slice (not an index array) for the
        # most-recent-k path.
        adjacency = self._adjacency
        uniform = self.uniform
        choice = self._rng.choice
        node_list = nodes.tolist()
        time_list = timestamps.tolist()
        for row in range(batch):
            times, neighbors, event_ids = adjacency[node_list[row]]
            cutoff = int(times.searchsorted(time_list[row], side="left"))
            degrees[row] = cutoff
            if cutoff == 0:
                continue
            if uniform and cutoff > k:
                chosen = choice(cutoff, size=k, replace=False)
                chosen.sort()
                count = k
            else:
                chosen = slice(cutoff - k if cutoff > k else 0, cutoff)
                count = cutoff if cutoff < k else k
            neighbor_ids[row, :count] = neighbors[chosen]
            if not shape_only:
                neighbor_times[row, :count] = times[chosen]
                event_indices[row, :count] = event_ids[chosen]
            mask[row, :count] = 1.0
        self._charge(degrees, k)
        return NeighborhoodSample(neighbor_ids, neighbor_times, event_indices, mask)

    def _charge(self, degrees: np.ndarray, k: int) -> None:
        if not has_active_machine():
            return
        cost_ms = self.cost_model.batch_cost_ms(degrees, k)
        current_machine().host_work("temporal_neighbor_sampling", cost_ms)


def recency_decay_weights(
    neighbor_times: np.ndarray, query_times: np.ndarray, tau: float
) -> np.ndarray:
    """Exponential recency weights ``exp(-(t_query - t_neighbor) / tau)``.

    A small utility shared by models that bias aggregation towards recent
    interactions (JODIE's projection and DyRep's attention both do).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    deltas = np.maximum(0.0, query_times[:, None] - neighbor_times)
    return np.exp(-deltas / tau).astype(np.float32)
