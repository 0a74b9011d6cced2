"""The sampler's batched draw against ``numpy.random.Generator.choice`` itself.

``TemporalNeighborSampler`` replaces one ``choice(pop, k, replace=False)``
per row with a single ``integers`` call over the bounds numpy's Floyd
implementation would have drawn (``repro.graph.sampling._floyd_choices``).
That is a dependence on numpy internals, so the oracle here is the installed
``choice`` -- not a copy of it: the picks must be equal **and** the bit
generator must end in the same state.  A numpy release that changes
``choice`` fails here, loudly, instead of letting the golden tables drift.
"""

import numpy as np
import pytest

from repro.graph.events import EventStream
from repro.graph.sampling import _MAX_BATCHED_K, TemporalNeighborSampler, _floyd_choices


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
