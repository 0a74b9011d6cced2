"""The sampler's batched draw against ``numpy.random.Generator.choice`` itself.

``TemporalNeighborSampler`` replaces one ``choice(pop, k, replace=False)``
per row with a single ``integers`` call over the bounds numpy's Floyd
implementation would have drawn (``repro.graph.sampling._floyd_choices``).
That is a dependence on numpy internals, so the oracle here is the installed
``choice`` -- not a copy of it: the picks must be equal **and** the bit
generator must end in the same state.  A numpy release that changes
``choice`` fails here, loudly, instead of letting the golden tables drift.

Under the shape backend the sampler keeps every draw eager but resolves
``neighbor_ids`` on first read; the tests at the end pin that the stream is
consumed before any read, in numeric order, and that unread ids never resolve.

The sampler also charges from a per-``k`` cost table instead of evaluating the
cost model per call; the last tests pin that table against the cost model's
own expression, bit for bit, at every array length and alignment numpy's
vector loops distinguish.
"""

import numpy as np
import pytest

from repro.graph.events import EventStream
from repro.graph.sampling import (
    _MAX_BATCHED_K,
    TemporalNeighborSampler,
    _floyd_choices,
    target_costs_us,
)
from repro.hw import spec
from repro.hw.machine import Machine


def choice_rows(rng, pops, k):
    return np.array([np.sort(rng.choice(int(pop), size=k, replace=False)) for pop in pops])


def paired_generators(seed, odd_uint32_draws):
    """Two generators in the same state; optionally with half of a 64-bit
    word left in the ``next_uint32`` buffer, so bounded draws start
    de-synchronised from the 64-bit stream."""
    pair = (np.random.default_rng(seed), np.random.default_rng(seed))
    for rng in pair:
        rng.integers(0, 1000, size=2 * (seed % 3) + int(odd_uint32_draws), dtype=np.uint32)
    return pair


def in_floyd_regime(pops, k):
    return bool(np.all((pops <= 10_000) | (k <= pops // 50)))


def random_floyd_case(rng):
    """``(pops, k)`` in the Floyd regime, biased toward the awkward corners."""
    k = int(rng.choice([1, 2, 3, 5, 10, 20, 33, 64, 150, 200, 230]))
    rows = int(rng.integers(1, 40))
    kind = rng.integers(0, 4)
    if kind == 0:  # pop = k + 1: nearly every draw collides
        pops = np.full(rows, k + 1)
    elif kind == 1:  # small surplus: collision chains through substituted j's
        pops = k + rng.integers(1, 8, size=rows)
    elif kind == 2:  # around numpy's 10 000 switch, kept on the Floyd side
        pops = rng.integers(9_990, 10_001 if k > 200 else 12_000, size=rows)
    else:
        pops = rng.integers(k + 1, 50 * k + 500, size=rows)
        pops = np.where((pops > 10_000) & (k > pops // 50), 10_000, pops)
    assert in_floyd_regime(pops, k)
    return pops.astype(np.int64), k


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("odd_uint32_draws", [False, True])
def test_floyd_choices_equals_generator_choice(seed, odd_uint32_draws):
    cases = np.random.default_rng(1000 + seed)
    batched, reference = paired_generators(seed, odd_uint32_draws)
    for _ in range(25):
        pops, k = random_floyd_case(cases)
        picks = _floyd_choices(batched, pops, k)
        assert picks.dtype == np.int64 and picks.shape == (len(pops), k)
        assert np.array_equal(picks, choice_rows(reference, pops, k))
        assert batched.bit_generator.state == reference.bit_generator.state


def test_floyd_boundary_populations():
    """Both edges of ``pop > 10 000 and k > pop // 50`` that stay Floyd."""
    batched, reference = paired_generators(3, True)
    for pops, k in (([10_000, 9_999], 300), ([10_001, 10_049, 10_050], 200),
                    ([10_050, 10_099], 201), ([2**31, 2**33 + 5], 4)):
        pops = np.array(pops, dtype=np.int64)
        assert in_floyd_regime(pops, k)
        assert np.array_equal(_floyd_choices(batched, pops, k), choice_rows(reference, pops, k))
        assert batched.bit_generator.state == reference.bit_generator.state


def test_batched_k_stays_inside_the_floyd_regime():
    # pop > 10 000 implies pop // 50 >= 200, so k <= 200 never tail-shuffles.
    assert 1 <= _MAX_BATCHED_K <= 200


@pytest.mark.parametrize("seed", range(4))
def test_sampler_draw_preserves_stream_order_across_every_route(seed):
    """``_draw`` over batches that mix the batched route, the few-row route
    and numpy's tail-shuffle regime consumes the stream in row order."""
    empty = EventStream(
        src=np.empty(0, dtype=np.int64),
        dst=np.empty(0, dtype=np.int64),
        timestamps=np.empty(0, dtype=np.float64),
        num_nodes=1,
    )
    sampler = TemporalNeighborSampler(empty, uniform=True, seed=seed)
    reference = np.random.default_rng(seed)
    cases = np.random.default_rng(2000 + seed)
    for k, rows in ((1, 1), (1, 50), (5, 4), (5, 5), (20, 19), (20, 400),
                    (_MAX_BATCHED_K, 70), (_MAX_BATCHED_K + 1, 70), (210, 12)):
        pops = cases.integers(k + 1, 4 * k + 40, size=rows)
        if k > 200:  # both sides of the tail-shuffle boundary in one batch
            pops[::3] = cases.integers(10_001, 50 * k, size=len(pops[::3]))
            pops[1::3] = cases.integers(50 * k, 60 * k, size=len(pops[1::3]))
            tail_shuffled = (pops > 10_000) & (k > pops // 50)
            assert tail_shuffled.any() and not tail_shuffled.all()
        picks = sampler._draw(pops.astype(np.int64), k)
        assert np.array_equal(picks, choice_rows(reference, pops, k))
        assert sampler._rng.bit_generator.state == reference.bit_generator.state


# -- the sampler under the shape backend: draws kept, ids resolved on first read


def busy_stream(seed, num_events=4000, num_nodes=40):
    """Degrees around 200: k=20 and k=64 rows draw, early rows are padded."""
    rng = np.random.default_rng(seed)
    return EventStream(
        src=rng.integers(0, num_nodes, size=num_events),
        dst=rng.integers(0, num_nodes, size=num_events),
        timestamps=np.sort(rng.uniform(0.0, 1000.0, size=num_events)),
        num_nodes=num_nodes,
    )


#: ``(rows, k)`` per query: the batched route (with Floyd collisions at
#: k=64), the per-row ``choice`` route (fewer rows than k), and k > 64.
QUERIES = ((300, 20), (5, 20), (200, 64), (80, 70))


def sample_on(backend, seed):
    """The samples of :data:`QUERIES` on a fresh sampler, and the generator
    state after each call -- taken before any id is read."""
    stream = busy_stream(seed)
    sampler = TemporalNeighborSampler(stream, uniform=True, seed=seed)
    queries = np.random.default_rng(100 + seed)
    samples, states = [], []
    with Machine.cpu_gpu(backend=backend).activate():
        for rows, k in QUERIES:
            nodes = queries.integers(0, stream.num_nodes, size=rows)
            times = queries.uniform(0.0, 1100.0, size=rows)
            samples.append(sampler.sample(nodes, times, k))
            states.append(sampler._rng.bit_generator.state)
    return samples, states


@pytest.fixture
def resolves(monkeypatch):
    """Row counts of every deferred sample resolved, in resolve order."""
    rows = []
    resolve = TemporalNeighborSampler._resolve_ids

    def spy(self, slots):
        ids = resolve(self, slots)
        rows.append(len(ids))
        return ids

    monkeypatch.setattr(TemporalNeighborSampler, "_resolve_ids", spy)
    return rows


@pytest.mark.parametrize("seed", range(3))
def test_shape_sampler_consumes_the_stream_before_any_id_is_read(seed, resolves):
    shape, shape_states = sample_on("shape", seed)
    numeric, numeric_states = sample_on("numeric", seed)
    assert resolves == []
    assert shape_states == numeric_states
    # Read in reverse order: each resolve sees only its own draws.
    for lazy, eager in reversed(list(zip(shape, numeric))):
        assert np.array_equal(lazy.neighbor_ids, eager.neighbor_ids)
        assert np.array_equal(lazy.mask, eager.mask)
        assert (lazy.num_targets, lazy.k) == (eager.num_targets, eager.k)
    assert resolves == [rows for rows, _ in reversed(QUERIES)]
    assert shape[0].neighbor_ids is shape[0].neighbor_ids  # resolved once, then kept
    assert len(resolves) == len(QUERIES)


def test_unread_samples_never_resolve(resolves):
    shape, _ = sample_on("shape", 7)
    numeric, _ = sample_on("numeric", 7)
    assert np.array_equal(shape[2].neighbor_ids, numeric[2].neighbor_ids)
    for sample in numeric:  # resolved inside sample(), not through the spy
        sample.neighbor_ids
    assert resolves == [QUERIES[2][0]]


def test_sampler_rejects_nan_query_times():
    """A NaN time used to bisect past every interaction: the row sampled the
    node's whole history, future interactions included."""
    sampler = TemporalNeighborSampler(busy_stream(0), uniform=True)
    times = np.array([100.0, 200.0, np.nan, 300.0, np.nan])
    state = sampler._rng.bit_generator.state
    with pytest.raises(ValueError, match="query time of row 2 is NaN"):
        sampler.sample(np.arange(5), times, 4)
    assert sampler._rng.bit_generator.state == state
    # +-inf keep their meaning: all of a node's history, or none of it.
    sample = sampler.sample(np.array([3, 3]), np.array([np.inf, -np.inf]), 1000)
    assert sample.mask.sum(axis=1).tolist() == [sampler.total_degree(3), 0]


# -- the per-k cost table against the cost model's expression


def reference_target_costs_us(degrees, k):
    """The per-call cost model's elementwise expression, verbatim as it stood
    before the sampler tabulated it (before the ``.sum()``), at the sampling
    prices of ``repro.hw.spec``."""
    degrees = np.asarray(degrees, dtype=np.float64)
    per_target = (
        spec.SAMPLING_US_PER_TARGET
        + spec.SAMPLING_US_PER_CANDIDATE * degrees
        + spec.SAMPLING_US_PER_SAMPLE * k
        + spec.SAMPLING_SORT_US_PER_LOG2_DEGREE * np.log2(degrees + 2.0)
    )
    return per_target


#: Lengths on both sides of every SIMD width and unroll numpy's ``log2`` and
#: arithmetic loops use, plus a few long ones with ragged tails.
TABLE_LENGTHS = (*range(71), 128, 2560, 4097)


@pytest.mark.parametrize("k", [1, 10, 20, 64, 200])
def test_cost_table_equals_the_cost_expression_bit_for_bit(k):
    sampler = TemporalNeighborSampler(busy_stream(k), uniform=True, seed=k)
    _, table = sampler._tabulate(k)
    top = int(sampler.total_degrees.max())
    assert len(table) == top + 1 and not table.flags.writeable
    # Every degree the stream can produce, as one array.
    every = np.arange(top + 1)
    assert table.tobytes() == reference_target_costs_us(every, k).tobytes()
    # Gathers of every length at several alignments of a larger buffer: the
    # expression evaluated on that very slice must give the gathered bits,
    # and the sums must agree with the summed target_costs_us.
    draws = np.random.default_rng(k)
    buffer = draws.integers(0, top + 1, size=max(TABLE_LENGTHS) + 8)
    mismatches = 0
    for length in TABLE_LENGTHS:
        for offset in (0, 1, 3, 7):
            degrees = buffer[offset:offset + length]
            gathered = table[degrees]
            expected = reference_target_costs_us(degrees, k)
            mismatches += gathered.tobytes() != expected.tobytes()
            cost_ms = float(gathered.sum() * 1e-3)
            assert cost_ms == float(expected.sum() * 1e-3)
            assert cost_ms == float(target_costs_us(degrees, k).sum() * 1e-3)
    assert mismatches == 0
