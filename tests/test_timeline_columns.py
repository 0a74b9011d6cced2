"""``reserve_run`` is ``n x reserve``, bit for bit (``repro.hw.timeline``).

A :class:`~repro.hw.stream.Stream` driven by the scalar loop every launch
path used to run -- one ``reserve`` per work item from one host cursor -- and
a twin driven by ``reserve_run`` must be indistinguishable: returned starts,
ends and host cursor, the two storage columns, the unclipped totals and every
windowed query.  Floats are compared by ``float.hex`` so a last-ulp
difference (or a ``-0.0``) cannot hide behind ``==``.
"""

import random

import pytest

from repro.hw.stream import Stream, StreamEvent, union_busy_ms
from repro.hw.timeline import Interval, Timeline

CASES_PER_SEED = 60
SEEDS = range(6)

#: Durations that tickle float rounding (``start + d - start != d``), plus zero.
AWKWARD = (0.0, 0.1, 0.3, 1e-9, 1.0 / 3.0, 0.0105, 6200.0)


def bits(values):
    return [float(value).hex() for value in values]


def scalar_run(stream, host_ms, step_ms, durations, blocking):
    """The reference: what ``launch_kernel`` does, once per work item."""
    starts, ends = [], []
    for duration_ms in durations:
        if not blocking:
            host_ms += step_ms
        interval = stream.reserve(host_ms, duration_ms)
        if blocking:
            host_ms = interval.end_ms
        starts.append(interval.start_ms)
        ends.append(interval.end_ms)
    return starts, ends, host_ms


def state(timeline):
    """Every slot of a timeline, floats rendered bit-exactly."""
    snapshot = {}
    for slot in Timeline.__slots__:
        value = getattr(timeline, slot)
        if isinstance(value, float):
            value = value.hex()
        elif isinstance(value, list):
            value = [item.hex() if isinstance(item, float) else item for item in value]
        snapshot[slot] = value
    return snapshot


def draw_duration(rng):
    kind = rng.random()
    if kind < 0.3:
        return rng.choice(AWKWARD)
    if kind < 0.4:
        return float(rng.randint(0, 3))
    return rng.uniform(0.0, 2.0)


def draw_run(rng):
    length = rng.choice((0, 1, 1, 2, 3, 5, 8, 13, 40))
    return [draw_duration(rng) for _ in range(length)]


def seed_existing(rng, streams):
    """Empty, gapped or touching runs, identically on every stream."""
    shape = rng.choice(("empty", "gapped", "touching", "mixed"))
    if shape == "empty":
        return
    cursor = rng.uniform(0.0, 5.0)
    for _ in range(rng.randint(1, 12)):
        touching = shape == "touching" or (shape == "mixed" and rng.random() < 0.5)
        # A ready time behind the last end makes the interval touch it.
        ready = cursor - rng.uniform(0.0, 1.0) if touching else cursor + rng.uniform(0.01, 3.0)
        duration = draw_duration(rng)
        for stream in streams:
            cursor = stream.reserve(ready, duration).end_ms


def assert_twins_match(rng, scalar, batched, background):
    assert state(scalar.timeline) == state(batched.timeline)
    assert list(scalar.timeline) == list(batched.timeline)
    assert scalar.free_at.hex() == batched.free_at.hex()
    one, two = scalar.timeline, batched.timeline
    assert one.busy_ms().hex() == two.busy_ms().hex()
    assert union_busy_ms([one]).hex() == union_busy_ms([two]).hex()
    assert union_busy_ms([one, background]).hex() == union_busy_ms([two, background]).hex()
    horizon = one.free_at + 5.0
    for _ in range(20):
        lo = rng.uniform(-2.0, horizon)
        hi = lo + rng.uniform(0.0, horizon / 2 + 1.0)
        assert one.busy_ms(lo, hi).hex() == two.busy_ms(lo, hi).hex()
        assert union_busy_ms([one], lo, hi).hex() == union_busy_ms([two], lo, hi).hex()
        assert (
            union_busy_ms([one, background], lo, hi).hex()
            == union_busy_ms([two, background], lo, hi).hex()
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_reserve_run_is_bit_identical_to_the_scalar_loop(seed):
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        scalar, batched = Stream("gpu0", "default"), Stream("gpu0", "default")
        seed_existing(rng, (scalar, batched))
        background = Timeline("gpu0:worker")
        cursor = 0.0
        for _ in range(rng.randint(0, 6)):
            cursor = background.reserve(cursor + rng.uniform(0.0, 4.0), draw_duration(rng)).end_ms
        host_ms = rng.uniform(0.0, scalar.free_at + 3.0)
        # Several runs in a row: the second starts from the state the first left.
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.4:
                # A floor from a prior wait_event, behind or ahead of the queue.
                ready = rng.uniform(0.0, scalar.free_at + 4.0)
                for stream in (scalar, batched):
                    stream.wait_event(StreamEvent("worker", "gpu0", ready))
            step_ms = rng.choice((0.0, 0.0, 0.004, 0.0105, rng.uniform(0.0, 1.0)))
            blocking = rng.random() < 0.5
            durations = draw_run(rng)
            expected = scalar_run(scalar, host_ms, step_ms, durations, blocking)
            starts, ends, host_after = batched.reserve_run(host_ms, step_ms, durations, blocking)
            assert bits(starts) == bits(expected[0])
            assert bits(ends) == bits(expected[1])
            assert host_after.hex() == expected[2].hex()
            assert len(starts) == len(ends) == len(durations)
            host_ms = host_after + rng.choice((0.0, rng.uniform(0.0, 2.0)))
            assert_twins_match(rng, scalar, batched, background)


def test_the_property_test_draws_every_shape_it_claims():
    """The generator reaches each corner the suite is meant to pin."""
    seen = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(CASES_PER_SEED):
            probe = Stream("gpu0", "default")
            seed_existing(rng, (probe,))
            timeline = probe.timeline
            if not len(timeline):
                seen.add("empty")
            else:
                pairs = list(zip(timeline._starts[1:], timeline._ends))
                seen.add("touching" if any(s == e for s, e in pairs) else "gapped-only")
                seen.add("gapped" if any(s > e for s, e in pairs) else "touching-only")
            durations = draw_run(rng)
            seen.add(f"run-{min(len(durations), 2)}")
            if 0.0 in durations:
                seen.add("zero-duration")
    assert {"empty", "touching", "gapped", "run-0", "run-1", "run-2", "zero-duration"} <= seen
    assert len(SEEDS) * CASES_PER_SEED >= 300


@pytest.mark.parametrize("seed", SEEDS)
def test_a_negative_duration_raises_and_leaves_the_timeline_untouched(seed):
    rng = random.Random(1000 + seed)
    for _ in range(20):
        stream = Stream("gpu0", "default")
        seed_existing(rng, (stream,))
        durations = draw_run(rng)
        position = rng.randint(0, len(durations))
        durations.insert(position, -rng.choice((1e-12, 0.5, 3.0)))
        before = state(stream.timeline)
        with pytest.raises(ValueError, match="duration must be non-negative"):
            stream.reserve_run(rng.uniform(0.0, 9.0), 0.01, durations, rng.random() < 0.5)
        assert state(stream.timeline) == before
        # The scalar loop is weaker: it reserves the prefix before it raises.
        with pytest.raises(ValueError, match="duration must be non-negative"):
            scalar_run(stream, 0.0, 0.01, durations, False)
        assert len(stream.timeline) == len(before["_starts"]) + position


def test_an_empty_run_is_a_no_op():
    timeline = Timeline("t")
    timeline.reserve(1.0, 2.0)
    before = state(timeline)
    assert timeline.reserve_run(7.5, 0.25, 0.0, [], False) == ([], [], 7.5)
    assert timeline.reserve_run(7.5, 0.25, 0.0, [], True) == ([], [], 7.5)
    assert state(timeline) == before


def test_intervals_are_materialised_from_the_columns_on_read():
    timeline = Timeline("t")
    first = timeline.reserve(1.0, 2.0)
    timeline.reserve_run(0.0, 0.5, 4.0, [1.0, 0.0], False)
    expected = (Interval(1.0, 3.0), Interval(4.0, 5.0), Interval(5.0, 5.0))
    assert first == expected[0]
    assert timeline.intervals == expected == tuple(timeline)
    assert len(timeline) == 3 and timeline.span() == (1.0, 5.0)
    assert not hasattr(timeline, "_intervals")
