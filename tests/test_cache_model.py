"""Model-layer cache tests: golden byte-equivalence and invalidation.

The load-bearing guarantee: with a cache attached at staleness 0, every
model output (and the sampler's RNG stream) is byte-identical to uncached
execution -- the cache degenerates to write-through bookkeeping.  At nonzero
staleness TGAT outputs are approximations (that is the point), while TGN
memory-row hits never change numerics at all (values are exact copies).
"""

import math
from itertools import islice

import numpy as np
import pytest

from repro.cache import ModelCache, make_model_cache
from repro.datasets import load
from repro.graph.sampling import TemporalNeighborSampler
from repro.hw import Machine
from repro.models.ldg import LDG
from repro.models.tgat import TGAT, TGATConfig
from repro.models.tgn import TGN, TGNConfig
from repro.serve.fidelity import FANOUT_SCALE


@pytest.fixture(scope="module")
def dataset():
    return load("wikipedia", scale="tiny")


def run_tgat(dataset, cache_kwargs, batches=4, **config_kwargs):
    config = TGATConfig(num_neighbors=5, batch_size=32, seed=0, **config_kwargs)
    machine = Machine.cpu_gpu()
    with machine.activate():
        model = TGAT(machine, dataset, config)
        if cache_kwargs is not None:
            make_model_cache(model, **cache_kwargs)
        outputs = []
        for index, batch in enumerate(model.iteration_batches()):
            if index == 0:
                model.warm_up(batch)
            outputs.append(model.inference_iteration(batch).data.copy())
            if index + 1 >= batches:
                break
    return (outputs, model)


def run_tgn(dataset, cache_kwargs, batches=3):
    machine = Machine.cpu_gpu()
    with machine.activate():
        model = TGN(machine, dataset, TGNConfig(num_neighbors=5, batch_size=32, seed=1))
        if cache_kwargs is not None:
            make_model_cache(model, **cache_kwargs)
        outputs = []
        for index, batch in enumerate(model.iteration_batches()):
            if index == 0:
                model.warm_up(batch)
            outputs.append(model.inference_iteration(batch).data.copy())
            if index + 1 >= batches:
                break
    return (outputs, model)


def test_tgat_staleness_zero_is_byte_identical(dataset):
    """Golden equivalence: cache on at staleness 0 == cache off, bytewise."""
    base_outputs, base_model = run_tgat(dataset, None)
    for policy in ("lru", "lfu", "degree"):
        cached_outputs, cached_model = run_tgat(
            dataset, dict(policy=policy, capacity_mb=4.0, staleness_ms=0.0)
        )
        for base, cached in zip(base_outputs, cached_outputs):
            assert np.array_equal(base, cached)
        # The sampler consumed exactly the same draw sequence.
        assert (
            base_model.sampler._rng.bit_generator.state
            == cached_model.sampler._rng.bit_generator.state
        )
        stats = cached_model.cache_stats()
        assert stats["hits"] == 0
        assert stats["lookups"] > 0


def test_tgat_overlap_protocol_staleness_zero_is_byte_identical(dataset):
    """prepare/compute through the cache reproduces the uncached plan bytewise."""
    machine_a = Machine.cpu_gpu()
    machine_b = Machine.cpu_gpu()
    config = TGATConfig(num_neighbors=5, batch_size=32, seed=0)
    with machine_a.activate():
        uncached = TGAT(machine_a, dataset, config)
        batch = next(uncached.iteration_batches())
        uncached.warm_up(batch)
        plain = uncached.compute_iteration(batch, uncached.prepare_iteration(batch))
    with machine_b.activate():
        cached = TGAT(machine_b, dataset, config)
        make_model_cache(cached, policy="lru", capacity_mb=4.0, staleness_ms=0.0)
        cached.warm_up(batch)
        plan = cached.prepare_iteration(batch)
        assert plan.num_hits == 0
        result = cached.compute_iteration(batch, plan)
    assert np.array_equal(plain.data, result.data)


def test_tgat_warm_cache_hits_and_skips_sampling(dataset):
    outputs, model = run_tgat(
        dataset, dict(policy="lru", capacity_mb=16.0, staleness_ms=1e12)
    )
    stats = model.cache_stats()
    assert stats["hits"] > 0
    assert 0.0 < stats["hit_rate"] < 1.0
    assert stats["by_kind"]["embedding"]["hits"] > 0
    assert stats["by_kind"]["sample"]["hits"] > 0
    # Outputs stay probability-shaped even on the approximate path.
    for out in outputs:
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_tgat_cached_run_is_seed_reproducible(dataset):
    first, model_a = run_tgat(
        dataset, dict(policy="degree", capacity_mb=8.0, staleness_ms=1e6)
    )
    second, model_b = run_tgat(
        dataset, dict(policy="degree", capacity_mb=8.0, staleness_ms=1e6)
    )
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    assert model_a.cache_stats() == model_b.cache_stats()
    assert model_a.machine.host_time_ms == model_b.machine.host_time_ms


def test_tgn_cached_numerics_identical_at_any_staleness(dataset):
    """TGN memory-row hits skip transfers only: values are exact copies."""
    base_outputs, _ = run_tgn(dataset, None)
    for staleness in (0.0, 1e12):
        cached_outputs, model = run_tgn(
            dataset, dict(policy="lru", capacity_mb=8.0, staleness_ms=staleness)
        )
        for base, cached in zip(base_outputs, cached_outputs):
            assert np.array_equal(base, cached)
        stats = model.cache_stats()
        if staleness > 0:
            assert stats["by_kind"]["memory"]["hits"] > 0


def test_tgn_warm_cache_shrinks_memory_row_transfers(dataset):
    def memory_row_bytes(machine):
        return sum(
            event.bytes
            for event in machine.events
            if event.kind == "transfer"
            and event.name in ("src_memory", "dst_memory", "neighbor_memory")
        )

    _, uncached = run_tgn(dataset, None)
    _, cached = run_tgn(dataset, dict(policy="lru", capacity_mb=32.0, staleness_ms=1e12))
    # Memory-row hits are served from the device-resident pool, so the PCIe
    # traffic for memory rows strictly shrinks (by the hit rows' bytes).
    hit_bytes = cached.cache.memory.stats.hits * cached._memory_row_bytes
    assert hit_bytes > 0
    assert memory_row_bytes(cached.machine) == memory_row_bytes(uncached.machine) - hit_bytes


def test_cache_flush_forces_cold_misses(dataset):
    """flush() (the autoscaler's spin-down hook) drops every entry: the next
    batch re-misses embedding rows that were registered before the flush."""
    _, model = run_tgat(dataset, dict(policy="lru", capacity_mb=32.0, staleness_ms=1e12))
    cache = model.cache
    store = cache.embeddings
    last = list(islice(model.iteration_batches(), 4))[-1]
    with model.machine.activate():
        assert len(store._entries) > 0
        before = cache.stats()["invalidations"]
        dropped = cache.flush()
        assert dropped == cache.stats()["invalidations"] - before >= 1
        assert all(len(cache.store(kind)._entries) == 0 for kind in cache.kinds)
        hits_before = store.stats.hits
        model.inference_iteration(last)
        # The replayed batch's rows were all flushed: no embedding hit survives.
        assert store.stats.hits == hits_before


def test_event_invalidation_drops_touched_entries(dataset):
    _, model = run_tgat(
        dataset, dict(policy="lru", capacity_mb=16.0, staleness_ms=1e12), batches=1
    )
    cache = model.cache
    batch = next(model.iteration_batches())
    touched = np.unique(np.concatenate([batch.src, batch.dst]))
    store = cache.embeddings
    with model.machine.activate():
        # Freshly inserted entries for the batch's own nodes survive their
        # batch (store-after-invalidate), so the touched nodes are present...
        present = [node for node in touched.tolist() if node in store]
        assert present
        before = cache.stats()["invalidations"]
        cache.observe_events(batch)
        # ...and an invalidation sweep for the same events removes them.
        assert all(node not in store for node in touched.tolist())
        assert cache.stats()["invalidations"] > before


def test_attach_cache_refuses_non_caching_models(dataset):
    machine = Machine.cpu_gpu()
    with machine.activate():
        model = LDG(machine, dataset)
    with pytest.raises(TypeError, match="does not support request caching"):
        make_model_cache(model)
    assert model.cache_stats() is None


def test_model_cache_rejects_unknown_kinds_and_bad_budgets():
    machine = Machine.cpu_gpu()
    with pytest.raises(ValueError, match="unknown cache kind"):
        ModelCache(machine, machine.gpu, kinds=("weights",))
    with pytest.raises(ValueError, match="at least one entry kind"):
        ModelCache(machine, machine.gpu, kinds=())
    with pytest.raises(ValueError, match="capacity"):
        ModelCache(machine, machine.gpu, kinds=("embedding",), capacity_mb=0.0)
    for budget in (math.inf, math.nan):
        with pytest.raises(ValueError, match="must be a finite number > 0"):
            ModelCache(machine, machine.gpu, kinds=("embedding",), capacity_mb=budget)
    with pytest.raises(ValueError, match="got nan"):
        ModelCache(machine, machine.gpu, kinds=("sample",), staleness_ms=math.nan)


def test_degree_policy_is_wired_to_the_sampler(dataset):
    _, model = run_tgat(
        dataset, dict(policy="degree", capacity_mb=8.0, staleness_ms=1e6), batches=1
    )
    store = model.cache.embeddings
    assert store.weight_of == model.sampler.total_degree


def test_a_sample_row_of_another_width_is_a_miss(dataset):
    """A row drawn at fan-out 10 answers no fan-out-5 query: no hit is counted
    and no gather is charged, and every probe is a hit or a miss."""
    machine = Machine.cpu_gpu()
    sampler = TemporalNeighborSampler(dataset.stream, seed=0)
    nodes = np.unique(dataset.stream.src[:32])
    times = np.full(len(nodes), float(dataset.stream.timestamps[-1]))
    with machine.activate():
        cache = ModelCache(
            machine, machine.gpu, kinds=("sample",), capacity_mb=4.0, staleness_ms=1e12
        )
        cache.sample(sampler, nodes, times, 10)
        assert all(int(node) in cache.samples for node in nodes)
        narrow = cache.sample(sampler, nodes, times, 5)
    assert narrow.neighbor_ids.shape == (len(nodes), 5)
    stats = cache.samples.stats
    assert stats.hits == 0
    assert stats.hits + stats.misses == stats.lookups == 2 * len(nodes)
    gathered = [e for e in machine.events if e.name.startswith("cache_sample_gather")]
    assert sum(e.bytes for e in gathered) == 0


# -- the packed row records ---------------------------------------------------


def fidelity_fanout(dataset):
    """The fan-out a TGAT with 7 neighbours samples at under degraded fidelity."""
    machine = Machine.cpu_gpu()
    with machine.activate():
        model = TGAT(machine, dataset, TGATConfig(num_neighbors=7, batch_size=32, seed=0))
    model.set_fanout_scale(FANOUT_SCALE)
    return model.effective_fanout(model.config.num_neighbors)


def sample_columns(sample):
    return (sample.neighbor_ids, sample.neighbor_times, sample.event_indices, sample.mask)


@pytest.mark.parametrize("k", [1, 10, "fidelity"])
def test_a_sample_hit_returns_the_inserted_row_bit_for_bit(dataset, k):
    """A sample row is stored as one packed record and read back exactly:
    ids, times, event indices and mask, with their dtypes, scattered to the
    hit positions of a batch that mixes hits and misses."""
    if k == "fidelity":
        k = fidelity_fanout(dataset)
        assert 1 < k < 7
    machine = Machine.cpu_gpu()
    sampler = TemporalNeighborSampler(dataset.stream, seed=0)
    nodes = np.unique(dataset.stream.src[:40])
    times = np.full(len(nodes), float(dataset.stream.timestamps[-1]))
    with machine.activate():
        cache = ModelCache(
            machine, machine.gpu, kinds=("sample",), capacity_mb=4.0, staleness_ms=1e12
        )
        first = cache.sample(sampler, nodes[::2], times[::2], k)
        inserted = [column.copy() for column in sample_columns(first)]
        # The sampler's arrays are not the cached rows: scribbling on them
        # after the insert changes no later hit.
        for column in sample_columns(first):
            column[...] = 7
        order = np.random.default_rng(0).permutation(len(nodes))
        second = cache.sample(sampler, nodes[order], times[order], k)
    store = cache.samples
    assert store.stats.hits == len(nodes[::2])
    assert all(len(entry[0]) == entry[2] == k * 28 for entry in store._entries.values())
    hit_at = {int(node): row for row, node in enumerate(nodes[::2])}
    served = sample_columns(second)
    for column, want, dtype in zip(served, inserted, (np.int64, np.float64, np.int64, np.float32)):
        assert column.dtype == dtype and column.shape == (len(nodes), k)
        for position, node in enumerate(nodes[order].tolist()):
            if node in hit_at:
                assert column[position].tobytes() == want[hit_at[node]].tobytes()
    with machine.activate():
        hits = store.stats.hits
        cache.sample(sampler, nodes, times, k + 1)
    assert store.stats.hits == hits


def test_embedding_hits_are_float32_rows_of_the_stored_width(dataset):
    machine = Machine.cpu_gpu()
    nodes = np.arange(12, dtype=np.int64)
    times = np.full(12, 5.0)
    rows = np.random.default_rng(1).standard_normal((12, 16))
    with machine.activate():
        cache = ModelCache(
            machine, machine.gpu, kinds=("embedding",), capacity_mb=4.0, staleness_ms=1e12
        )
        cache.store_embeddings(nodes[:8], times[:8], rows[:8])
        rows[:] = 0.0
        hit_idx, hit_rows, miss_idx = cache.lookup_embeddings(nodes[::-1], times)
    assert hit_idx.tolist() == list(range(4, 12))
    assert miss_idx.tolist() == list(range(4))
    assert hit_rows.dtype == np.float32 and hit_rows.shape == (8, 16)
    want = np.random.default_rng(1).standard_normal((12, 16))[7::-1].astype(np.float32)
    assert hit_rows.tobytes() == want.tobytes()
    assert all(len(entry[0]) == entry[2] == 16 * 4 for entry in cache.embeddings._entries.values())


@pytest.mark.parametrize("k", [0, -3])
def test_a_non_positive_fan_out_is_refused_as_the_sampler_refuses_it(dataset, k):
    machine = Machine.cpu_gpu()
    sampler = TemporalNeighborSampler(dataset.stream, seed=0)
    nodes = np.unique(dataset.stream.src[:8])
    times = np.full(len(nodes), float(dataset.stream.timestamps[-1]))
    cache = ModelCache(machine, machine.gpu, kinds=("sample",), staleness_ms=1e12)
    with machine.activate(), pytest.raises(ValueError, match="k must be positive"):
        cache.sample(sampler, nodes, times, k)


def test_a_zero_staleness_cache_packs_no_row(dataset, monkeypatch):
    """At staleness 0 no probe can hit, so no insert could ever be served:
    the stores admit no write, and ``sample``/``store_embeddings`` build no
    record for one.  What runs is the uncached sampler plus the cache's own
    probe charges, and the sample is the uncached one."""
    from repro.cache import model_cache

    def refuse(*args):
        raise AssertionError("a row was packed for a store that admits no write")

    monkeypatch.setattr(model_cache, "_pack_sample", refuse)
    monkeypatch.setattr(model_cache, "_split", refuse)
    nodes = np.unique(dataset.stream.src[:40])
    times = np.full(len(nodes), float(dataset.stream.timestamps[-1]))

    def run(cached):
        machine = Machine.cpu_gpu()
        sampler = TemporalNeighborSampler(dataset.stream, seed=0)
        with machine.activate():
            if not cached:
                return machine, None, sampler.sample(nodes, times, 5)
            cache = ModelCache(machine, machine.gpu, kinds=("embedding", "sample"))
            sample = cache.sample(sampler, nodes, times, 5)
            cache.store_embeddings(nodes, times, np.ones((len(nodes), 4), dtype=np.float32))
        return machine, cache, sample

    plain_machine, _, plain = run(cached=False)
    machine, cache, sample = run(cached=True)
    assert not cache.samples.admits_writes and not cache.embeddings.admits_writes
    for got, want in zip(sample_columns(sample), sample_columns(plain)):
        assert np.array_equal(got, want) and got.dtype == want.dtype
    own = [tuple(e) for e in machine.events if not e.name.startswith("cache_")]
    assert own == [tuple(e) for e in plain_machine.events]
    assert len(cache.samples) == len(cache.embeddings) == 0
