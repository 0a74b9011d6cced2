"""Offline embedding backfill: warm the serving cache before the traffic.

Reactive caching only helps after the first miss; a diurnal peak or flash
crowd hits a cold cache with its whole front.  :func:`backfill_embeddings`
is the proactive half: rank nodes by temporal degree (the same
recompute-cost proxy the degree-weighted eviction policy uses -- hot nodes
are both the likeliest queries and the most expensive misses), compute
their embeddings through the model's ordinary recursive path, and insert
the rows into the attached cache's embedding store at a chosen event time.
All sampling/compute/insert work is charged to the owning machine, so a
backfill pass has an honest simulated cost -- it is cheap only relative to
paying the same misses inside the measured serving window.

Wired into serving at two points, both in :mod:`repro.serve.core`: after
warm-up on every placement (every replica -- every shard of a sharded
model -- backfills before the first request, once its GPU context and
weights are up) and autoscaling cold starts (a spun-up replica's cache was
flushed at spin-down, so the cold-start charge includes re-warming it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..domain import NON_NEGATIVE_INT


@dataclass(frozen=True)
class BackfillReport:
    """Outcome of one backfill pass.

    ``requested`` is the hot-node budget asked for, ``computed`` the nodes
    whose embeddings were actually computed (zero-degree nodes are skipped:
    their neighbourhood is empty, so there is nothing worth caching), and
    ``inserted`` the rows the store admitted.  ``elapsed_ms`` is simulated
    machine time charged to the pass.
    """

    requested: int
    computed: int
    inserted: int
    elapsed_ms: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "requested": self.requested,
            "computed": self.computed,
            "inserted": self.inserted,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }


#: The no-work report (no cache, no embedding store, nothing hot).
EMPTY_BACKFILL = BackfillReport(requested=0, computed=0, inserted=0, elapsed_ms=0.0)


def hot_nodes(model: Any, top_k: int) -> List[int]:
    """The ``top_k`` nodes by total temporal degree, hottest first.

    Deterministic: degree ties break toward the smaller node id.  Nodes
    that never interact are excluded regardless of budget.
    """
    NON_NEGATIVE_INT.check("top_k", top_k)
    degrees = model.sampler.total_degrees
    order = np.lexsort((np.arange(len(degrees)), -degrees))
    return order[degrees[order] > 0][:top_k].tolist()


def backfill_embeddings(
    model: Any, top_k: int = 64, event_time: Optional[float] = None
) -> BackfillReport:
    """Precompute hot-node embeddings into ``model``'s attached cache.

    Requires an attached :class:`~repro.cache.ModelCache`; returns
    :data:`EMPTY_BACKFILL` when the model caches no embeddings, so callers
    can wire the pass unconditionally (a model that caches ``"embedding"``
    defines ``compute_embeddings``).  ``event_time`` is the event timestamp
    the rows are registered at -- it defaults to the stream's first
    timestamp, making the entries maximally fresh for the queries that
    follow (an entry's age is ``query_time - event_time``, and the strict
    hit window rejects negative ages).
    """
    cache = model.cache
    if cache is None:
        raise TypeError(
            f"{type(model).__name__} has no attached cache to backfill; "
            "attach one with make_model_cache first"
        )
    store = cache.embeddings
    if store is None:
        return EMPTY_BACKFILL
    nodes = hot_nodes(model, top_k)
    if not nodes:
        return BackfillReport(requested=top_k, computed=0, inserted=0, elapsed_ms=0.0)
    if event_time is None:
        stream = model.sampler.stream
        event_time = float(stream.timestamps[0]) if stream.num_events else 0.0
    machine = model.machine
    node_array = np.asarray(nodes, dtype=np.int64)
    times = np.full(len(nodes), float(event_time), dtype=np.float64)
    inserts_before = store.stats.inserts
    start_ms = machine.host_time_ms
    with machine.activate():
        with machine.region("Cache Backfill"):
            rows = model.compute_embeddings(node_array, times)
            cache.store_embeddings(node_array, times, rows.data)
        model.finish_iteration()
    return BackfillReport(
        requested=top_k,
        computed=len(nodes),
        inserted=store.stats.inserts - inserts_before,
        elapsed_ms=machine.host_time_ms - start_ms,
    )
