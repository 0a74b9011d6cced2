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

from functools import partial
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..hw import spec
from ..hw.machine import active_machine_or_none
from ..tensor.meta import placeholder
from .events import EventStream


def target_costs_us(degrees: np.ndarray, k: int) -> np.ndarray:
    """Host cost (µs) of sampling ``k`` neighbours for a target with each of
    ``degrees`` earlier interactions, at the sampling prices in
    :mod:`repro.hw.spec`.  Each element depends on its own degree alone, so
    a sampler tabulates it once per ``k`` and gathers."""
    degrees = np.asarray(degrees, dtype=np.float64)
    return (
        spec.SAMPLING_US_PER_TARGET
        + spec.SAMPLING_US_PER_CANDIDATE * degrees
        + spec.SAMPLING_US_PER_SAMPLE * k
        + spec.SAMPLING_SORT_US_PER_LOG2_DEGREE * np.log2(degrees + 2.0)
    )


class NeighborhoodSample:
    """Result of one batched temporal-neighbourhood query.

    All arrays have shape (num_targets, k); ``mask`` marks valid entries
    (targets with fewer than k earlier interactions are zero-padded).

    A sample built by :meth:`deferred` computes ``neighbor_ids`` on first
    read, by calling its resolver once; the sampler hands out such samples
    under the shape backend, where most ids are never read.
    """

    __slots__ = ("_neighbor_ids", "_resolve", "neighbor_times", "event_indices", "mask")

    def __init__(
        self,
        neighbor_ids: np.ndarray,
        neighbor_times: np.ndarray,
        event_indices: np.ndarray,
        mask: np.ndarray,
    ) -> None:
        self._neighbor_ids = neighbor_ids
        self._resolve: Optional[Callable[[], np.ndarray]] = None
        self.neighbor_times = neighbor_times
        self.event_indices = event_indices
        self.mask = mask

    @classmethod
    def deferred(
        cls, resolve: Callable[[], np.ndarray], *payload: np.ndarray
    ) -> NeighborhoodSample:
        """``NeighborhoodSample(resolve(), *payload)``, running ``resolve`` on
        the first read of ``neighbor_ids``."""
        sample = cls(None, *payload)
        sample._resolve = resolve
        return sample

    @property
    def neighbor_ids(self) -> np.ndarray:
        if self._resolve is not None:
            self._neighbor_ids = self._resolve()
            self._resolve = None
        return self._neighbor_ids

    @property
    def num_targets(self) -> int:
        return int(self.mask.shape[0])

    @property
    def k(self) -> int:
        return int(self.mask.shape[1])


#: Largest ``k`` served by :func:`_floyd_draws`.  Resolving its draws costs
#: ``k`` numpy steps, so a batch repays it from about ``k`` rows up (measured
#: with the resolve eager: k=10 at 9 rows, k=20 at 16, k=32 at 40); past 64,
#: ``choice``'s per-call overhead is spread over enough draws that the per-row
#: loop wins at every batch size.  Under the shape backend most resolves never
#: run, but the numeric backend and every id read still pay them, so the
#: crossover stays as measured.
#: Must stay <= 200: ``Generator.choice(pop, k, replace=False)`` leaves
#: Floyd's algorithm for a tail shuffle of ``arange(pop)`` only when
#: ``pop > 10_000 and k > pop // 50`` (numpy/random/_generator.pyx).
_MAX_BATCHED_K = 64

#: Fan-outs a sampler keeps a cost table for.  Adaptive fidelity visits a
#: handful; the memo is reset wholesale if something floods it, like the
#: model's tape store.
_PER_K_LIMIT = 64


def _floyd_draws(rng: np.random.Generator, pops: np.ndarray, k: int) -> np.ndarray:
    """The raw draws of ``rng.choice(pops[i], k, replace=False)`` for every
    row ``i``, in row order, from a single ``rng.integers`` call;
    :func:`_floyd_resolve` turns them into the picks.

    Valid while ``choice`` runs Floyd's algorithm (always, for
    ``k <= _MAX_BATCHED_K``).  There it consumes
    ``random_bounded_uint64(0, j)`` for ``j = pop-k .. pop-1`` (keeping the
    draw, or ``j`` itself when the draw is already selected) and then for
    ``j = k-1 .. 1`` (a final shuffle of the picks) -- exactly what
    ``integers(0, bounds, endpoint=True)`` consumes for those bounds, element
    by element.  The shuffle draws are discarded: the picks get sorted.
    """
    bounds = np.empty((len(pops), 2 * k - 1), dtype=np.int64)
    bounds[:, :k] = pops[:, None] - k + np.arange(k)
    bounds[:, k:] = np.arange(k - 1, 0, -1)
    return rng.integers(0, bounds.ravel(), endpoint=True).reshape(bounds.shape)[:, :k]


def _floyd_resolve(pops: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Row ``i`` is ``sorted(choice(pops[i], k, replace=False))``, given that
    call's raw ``draws`` (see :func:`_floyd_draws`); reads no RNG and writes
    neither input."""
    k = draws.shape[1]
    ordered = np.sort(draws, axis=1)
    # Distinct draws are never substituted, so they already are the answer.
    # A row with a repeated draw replays Floyd's rule step by step: ``j``
    # exceeds everything selected before it, but may equal a later draw.
    repeated = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    if len(repeated):
        replay = draws[repeated]
        substitute = pops[repeated, None] - k + np.arange(k)
        for step in range(1, k):
            seen = (replay[:, :step] == replay[:, step, None]).any(axis=1)
            replay[seen, step] = substitute[seen, step]
        replay.sort(axis=1)
        ordered[repeated] = replay
    return ordered


def _floyd_choices(rng: np.random.Generator, pops: np.ndarray, k: int) -> np.ndarray:
    """Row ``i`` is ``sorted(rng.choice(pops[i], k, replace=False))``, drawn
    for all rows, in row order, with a single ``rng.integers`` call."""
    return _floyd_resolve(pops, _floyd_draws(rng, pops, k))


class TemporalNeighborSampler:
    """Samples temporal neighbourhoods from an :class:`EventStream`.

    Args:
        stream: The interaction stream to index.
        uniform: When true, sample uniformly among the earlier interactions;
            otherwise take the most recent ones (both strategies appear in the
            TGAT/TGN reference code).
        seed: Seed for the uniform strategy.

    Every call charges :func:`target_costs_us` for its rows.
    """

    def __init__(self, stream: EventStream, uniform: bool = True, seed: int = 0) -> None:
        self.stream = stream
        self.uniform = uniform
        self._rng = np.random.default_rng(seed)
        (
            self._times,
            self._neighbors,
            self._events,
            self._offsets,
            self._unique_times,
            self._keys,
        ) = self._build_index(stream)
        #: Per-node interaction count over the whole stream (CSR row lengths).
        self.total_degrees = np.diff(self._offsets)
        self.total_degrees.setflags(write=False)
        #: ``k -> (arange(k), table)``: ``table[d]`` is what a target with
        #: ``d`` earlier interactions is charged, for every ``d`` the stream
        #: can produce.
        self._per_k: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        #: ``(k, node bytes, time bytes, query)`` of the last validated call.
        self._last_query: Optional[tuple] = None

    @staticmethod
    def _build_index(stream: EventStream):
        """CSR index over the doubled event list, rows time-sorted.

        Returns ``(times, neighbors, events, offsets, unique_times, keys)``:
        node ``n`` owns entries ``offsets[n]:offsets[n + 1]`` of the three
        flat payload arrays.  Built with one vectorized stable sort; the
        ordering is identical to appending each event's (src -> dst) then
        (dst -> src) entry in event order and stably sorting each node's list
        by timestamp: the sort key is (node, time, append position), so time
        ties keep event order and a self-loop's src entry stays ahead of its
        dst entry.

        The payload arrays carry one trailing zero past ``offsets[-1]``, the
        gather target of padded sample slots.  ``keys`` is the ascending
        integer composite ``node * (U + 1) + rank(time)`` over the ``U``
        sorted ``unique_times``, so "entries of ``n`` strictly before ``t``"
        is one bisect of ``keys`` for ``n * (U + 1) + rank(t)`` -- exact,
        ties included, because ranks are integers.
        """
        num_events = stream.num_events
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
        sorted_times = entry_times[order]
        offsets = np.zeros(stream.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(node_ids, minlength=stream.num_nodes), out=offsets[1:])
        unique_times = np.unique(sorted_times)
        keys = node_ids[order] * (len(unique_times) + 1) + unique_times.searchsorted(sorted_times)
        return (
            np.append(sorted_times, 0.0),
            np.append(neighbor_ids[order], 0),
            np.append(order // 2, 0),
            offsets,
            unique_times,
            keys,
        )

    # -- queries ----------------------------------------------------------------

    def total_degree(self, node: int) -> int:
        """Total interaction count of ``node`` over the whole stream.

        Used by the degree-weighted cache eviction policy as a proxy for how
        expensive a node's neighbourhood sample is to recompute (the
        per-query cost grows with the candidate-list length).
        """
        if not 0 <= node < len(self.total_degrees):
            raise ValueError(f"node id {node} is outside [0, {len(self.total_degrees)})")
        return int(self.total_degrees[node])

    def sample(self, nodes: np.ndarray, timestamps: np.ndarray, k: int) -> NeighborhoodSample:
        """Sample ``k`` temporal neighbours for each (node, time) pair.

        The call charges its host-side cost to the active machine under the
        op name ``temporal_neighbor_sampling`` so profilers can attribute it.

        The whole batch is served by a fixed number of numpy calls: two
        bisects over the CSR index (see :meth:`_build_index`) give every
        row's cutoff, one fancy index per output gathers it, and the charge
        is one gather from a per-``k`` cost table.  An equal query asked
        twice in a row -- TGAT asks each once per layer -- is bisected once
        (:meth:`_query`); its draw, charge and mask still happen per call.
        The results
        and the RNG stream are those of the reference per-row loop --
        ``sorted(rng.choice(cutoff, k, replace=False))`` for each uniform row
        with ``cutoff > k``, in row order -- which :meth:`_draw` reproduces
        from batched draws; that equivalence leans on numpy's ``choice``
        internals and is pinned against ``Generator.choice`` itself in
        ``tests/test_sampler_rng_contract.py``.

        Under the machine's ``shape`` backend the RNG draws are kept and the
        ids are resolved on first read.  Everything that moves the RNG or the
        clock still runs here -- validation, the bisects, the mask, the draw
        and the charge -- so the stream is consumed exactly as the numeric
        backend consumes it.  Turning the draws into ``neighbor_ids``
        (Floyd's replay, the sort, the gather) waits for the first read of
        that attribute, and runs over arrays nothing writes, so the ids are
        the numeric ones whenever they are read; TGAT's shape-backend compute
        reads only the ids that feed a deeper query.  ``neighbor_times`` and
        ``event_indices`` are placeholders there.

        Node ids must be a 1-D integer array: a float or boolean id, or a
        query of another rank, raises ``ValueError`` before anything is drawn
        or charged.
        """
        nodes = np.asarray(nodes)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        if nodes.ndim != 1:
            raise ValueError(f"nodes must be a 1-D array of node ids, not {nodes.ndim}-D")
        if nodes.shape != timestamps.shape:
            raise ValueError("nodes and timestamps must have the same shape")
        if nodes.dtype.kind not in "iu" and len(nodes):
            raise ValueError(f"node ids must be integers, not {nodes.dtype}")
        if k <= 0:
            raise ValueError("k must be positive")
        nodes = nodes.astype(np.int64, copy=False)
        columns, starts, degrees, drawn, pops, valid, cost_ms = self._query(nodes, timestamps, k)
        picks = None if pops is None else self._deferred_draw(pops, k)
        machine = active_machine_or_none()
        if machine is not None:
            machine.host_work("temporal_neighbor_sampling", cost_ms)

        def slots() -> np.ndarray:
            # Most-recent-k positions within each row's candidates; uniform
            # rows with more than k candidates take the drawn ones.  Padding
            # points at the payload's trailing zero.
            chosen = np.maximum(degrees - k, 0)[:, None] + columns
            if picks is not None:
                chosen[drawn] = picks()
            return np.where(valid, starts[:, None] + chosen, len(self._keys))

        mask = valid.astype(np.float32)
        if machine is not None and machine.shape_mode:
            return NeighborhoodSample.deferred(
                partial(self._resolve_ids, slots),
                placeholder(mask.shape, np.float64),
                placeholder(mask.shape, np.int64),
                mask,
            )
        flat = slots()
        return NeighborhoodSample(
            self._neighbors[flat], self._times[flat], self._events[flat], mask
        )

    def _query(self, nodes: np.ndarray, times: np.ndarray, k: int) -> tuple:
        """What ``(nodes, times, k)`` determine before any draw: ``(arange(k),
        starts, degrees, drawn rows, their candidate counts, valid, charge
        in ms)``, validating the query on the way.

        TGAT asks each query twice in a row (once per layer), so the last
        validated query is kept -- its arrays as bytes, which are copies --
        and its result is handed back when the next call asks for the same
        values; nothing in a result is ever written.  Equal bytes are equal
        values (a NaN is never kept), and the only equal values with other
        bytes, ``0.0`` and ``-0.0``, bisect alike and merely miss.
        """
        node_bytes, time_bytes = nodes.tobytes(), times.tobytes()
        last = self._last_query
        if last is not None and last[0] == k and last[1] == node_bytes and last[2] == time_bytes:
            return last[3]
        num_nodes = self.stream.num_nodes
        if len(nodes) and not 0 <= nodes.min() <= nodes.max() < num_nodes:
            bad = int(nodes[(nodes < 0) | (nodes >= num_nodes)][0])
            raise ValueError(f"node id {bad} is outside [0, {num_nodes})")
        nan = np.isnan(times)
        if nan.any():
            # NaN bisects past every time: the row would see its whole history.
            raise ValueError(f"query time of row {int(np.flatnonzero(nan)[0])} is NaN")
        columns, table = self._per_k.get(k) or self._tabulate(k)
        starts = self._offsets[nodes]
        ranks = self._unique_times.searchsorted(times, side="left")
        targets = nodes * (len(self._unique_times) + 1) + ranks
        degrees = self._keys.searchsorted(targets, side="left") - starts
        drawn = pops = None
        if self.uniform:
            drawn = np.flatnonzero(degrees > k)
            if len(drawn):
                pops = degrees[drawn]
        valid = columns < degrees[:, None]
        # The gather holds the values target_costs_us(degrees, k) computes,
        # in the same order, so its pairwise sum is that array's.
        query = (columns, starts, degrees, drawn, pops, valid, float(table[degrees].sum() * 1e-3))
        self._last_query = (k, node_bytes, time_bytes, query)
        return query

    def _tabulate(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(arange(k), cost table)`` for fan-out ``k``, memoised."""
        if len(self._per_k) >= _PER_K_LIMIT:
            self._per_k.clear()
        columns = np.arange(k)
        degrees = np.arange(int(self.total_degrees.max(initial=0)) + 1)
        table = target_costs_us(degrees, k)
        columns.setflags(write=False)
        table.setflags(write=False)
        self._per_k[k] = (columns, table)
        return columns, table

    def _resolve_ids(self, slots: Callable[[], np.ndarray]) -> np.ndarray:
        """``neighbor_ids`` of a deferred sample."""
        return self._neighbors[slots()]

    def _draw(self, pops: np.ndarray, k: int) -> np.ndarray:
        """``sorted(choice(pop, k, replace=False))`` per row, same RNG stream."""
        return self._deferred_draw(pops, k)()

    def _deferred_draw(self, pops: np.ndarray, k: int) -> Callable[[], np.ndarray]:
        """:meth:`_draw` with the RNG consumed now and the picks left to the call.

        One batched draw when there are at least ``k`` rows to repay it, whose
        replay and sort are what the call defers; fewer rows, or
        ``k > _MAX_BATCHED_K`` (the only place numpy's tail-shuffle regime can
        occur), call ``choice`` row by row, at once.
        """
        if k <= min(len(pops), _MAX_BATCHED_K):
            return partial(_floyd_resolve, pops, _floyd_draws(self._rng, pops, k))
        choice = self._rng.choice
        out = np.empty((len(pops), k), dtype=np.int64)
        for row, pop in enumerate(pops.tolist()):
            picks = choice(pop, size=k, replace=False)
            picks.sort()
            out[row] = picks
        return lambda: out
