"""DeviceResidentCache tests: staleness, pressure, invalidation, charging.

Includes the seeded property tests the cache subsystem is gated on:
* the store never serves an entry whose event-time age falls outside the
  strict ``[0, staleness)`` window, and
* the charged device memory (the store's own ledger *and* the simulated
  device pool's per-tag usage) never exceeds the configured capacity.
"""

import math
import random

import pytest

from repro.cache import DeviceResidentCache, make_eviction_policy
from repro.hw import Machine, OutOfMemoryError
from repro.hw.events import ALLOC, FREE


def make_store(
    machine=None,
    kind="embedding",
    policy="lru",
    capacity=1000,
    staleness=100.0,
    weight_of=None,
):
    machine = machine if machine is not None else Machine.cpu_gpu()
    device = machine.gpu if kind in ("embedding", "memory") else machine.cpu
    store = DeviceResidentCache(
        machine,
        device,
        kind,
        make_eviction_policy(policy),
        capacity,
        staleness,
        weight_of=weight_of,
    )
    return (machine, store)


@pytest.mark.parametrize(
    "capacity, staleness, message",
    [
        (0, 1.0, "capacity must be a finite number > 0"),
        (math.inf, 1.0, "capacity must be a finite number > 0, got inf"),
        (math.nan, 1.0, "capacity must be a finite number > 0, got nan"),
        (10, -1.0, "staleness bound must be a finite number >= 0"),
        (10, math.nan, "staleness bound must be a finite number >= 0, got nan"),
    ],
)
def test_rejects_bad_configuration(capacity, staleness, message):
    machine = Machine.cpu_gpu()
    with pytest.raises(ValueError, match=message):
        DeviceResidentCache(
            machine, machine.gpu, "embedding", make_eviction_policy("lru"), capacity, staleness
        )


def test_staleness_override_refuses_nan_and_keeps_inf():
    """``force_hits`` widens the window to inf; a NaN window would reject
    every probe, so it is refused and the window stays as it was."""
    _, store = make_store(staleness=10.0)
    with pytest.raises(ValueError, match="got nan"):
        store.set_staleness_override(math.nan)
    assert store.effective_staleness_ms == 10.0
    store.set_staleness_override(math.inf)
    assert store.effective_staleness_ms == math.inf


def test_staleness_window_is_strict():
    _, store = make_store(staleness=10.0)
    store.put(7, "row", event_ms=100.0, nbytes=10)
    store.flush_charges()
    assert store.probe(7, 100.0) == "row"  # age 0 is inside
    assert store.probe(7, 109.999) == "row"  # just inside
    assert store.probe(7, 110.0) is None  # age == bound: rejected + expired
    assert 7 not in store
    assert store.stats.stale_rejects == 1
    assert store.stats.stale_evictions == 1


def test_staleness_zero_never_serves():
    _, store = make_store(staleness=0.0)
    store.put(1, "row", event_ms=5.0, nbytes=4)
    assert store.probe(1, 5.0) is None
    assert store.stats.hits == 0
    assert store.stats.misses == 1


def test_entries_from_the_future_are_not_served_but_kept():
    _, store = make_store(staleness=50.0)
    store.put(1, "row", event_ms=100.0, nbytes=4)
    # A query before the entry's event time must not see it...
    assert store.probe(1, 90.0) is None
    # ...but the entry is not expired (it is still valid for later queries).
    assert store.probe(1, 120.0) == "row"


def test_eviction_under_forced_memory_pressure_lru():
    _, store = make_store(capacity=30, staleness=1e9)
    for key in (1, 2, 3):
        store.put(key, f"row{key}", event_ms=0.0, nbytes=10)
    store.probe(1, 0.0)  # 1 is now the most recently served
    assert store.put(4, "row4", event_ms=0.0, nbytes=10)
    assert 2 not in store  # LRU victim
    assert 1 in store and 3 in store and 4 in store
    assert store.stats.evictions == 1
    assert store.bytes_current == 30


def test_eviction_under_forced_memory_pressure_degree():
    degrees = {1: 100.0, 2: 1.0, 3: 50.0}
    _, store = make_store(
        policy="degree", capacity=30, staleness=1e9, weight_of=degrees.get
    )
    for key in (1, 2, 3):
        store.put(key, f"row{key}", event_ms=0.0, nbytes=10)
    store.put(4, "row4", event_ms=0.0, nbytes=10)
    assert 2 not in store  # smallest degree goes first
    assert 1 in store and 3 in store


def test_oversized_entries_are_rejected_outright():
    _, store = make_store(capacity=100, staleness=1e9)
    store.put(1, "keep", event_ms=0.0, nbytes=60)
    assert not store.put(2, "huge", event_ms=0.0, nbytes=101)
    assert 2 not in store
    assert 1 in store  # nothing was evicted for a hopeless insert
    assert store.stats.evictions == 0


def test_overwrite_replaces_without_double_counting():
    _, store = make_store(capacity=100, staleness=1e9)
    store.put(1, "old", event_ms=0.0, nbytes=40)
    store.put(1, "new", event_ms=5.0, nbytes=60)
    assert store.bytes_current == 60
    assert store.probe(1, 5.0) == "new"
    assert len(store) == 1


def test_invalidation_on_events_drops_touched_entries():
    _, store = make_store(staleness=1e9)
    for key in (1, 2, 3):
        store.put(key, key, event_ms=0.0, nbytes=8)
    dropped = store.invalidate([1, 3, 99])
    assert dropped == 2
    assert store.stats.invalidations == 2
    assert 1 not in store and 3 not in store and 2 in store
    assert store.bytes_current == 8


def test_residency_is_charged_to_the_device_memory_pool():
    machine, store = make_store(capacity=1000, staleness=1e9)
    gpu = machine.gpu
    with machine.activate():
        store.put(1, "a", event_ms=0.0, nbytes=100)
        store.put(2, "b", event_ms=0.0, nbytes=200)
        store.flush_charges()
        assert gpu.memory.usage_by_tag().get("cache:embedding") == 300
        store.invalidate([1])
        store.flush_charges()
        assert gpu.memory.usage_by_tag().get("cache:embedding") == 200
    kinds = [e.kind for e in machine.events]
    assert ALLOC in kinds and FREE in kinds


def test_lookups_and_updates_are_charged_on_the_machine_clock():
    machine, store = make_store(capacity=1000, staleness=1e9)
    with machine.activate():
        before = machine.host_time_ms
        store.put(1, "a", event_ms=0.0, nbytes=100)
        store.probe(1, 0.0)
        store.flush_charges("test")
        after = machine.host_time_ms
    assert after > before  # host admin work moved the cursor
    names = [e.name for e in machine.events]
    assert any(n.startswith("cache_embedding_admin") for n in names)
    assert any(n.startswith("cache_embedding_gather") for n in names)
    assert any(n.startswith("cache_embedding_insert") for n in names)


def test_flush_without_activity_charges_nothing():
    machine, store = make_store()
    with machine.activate():
        count = machine.event_count
        store.flush_charges()
        assert machine.event_count == count


@pytest.mark.parametrize("policy", ["lru", "lfu", "degree"])
def test_property_staleness_bound_and_capacity_never_violated(policy):
    """Seeded random op streams: the two cache safety invariants hold.

    (1) a probe only ever serves entries with age in [0, staleness);
    (2) the store's ledger and the device pool's cache-tag usage never
        exceed the configured capacity.
    """
    rng = random.Random(1234)
    machine = Machine.cpu_gpu()
    capacity = 500
    staleness = 25.0
    degrees = {key: float(rng.randrange(1, 200)) for key in range(40)}
    _, store = make_store(
        machine,
        policy=policy,
        capacity=capacity,
        staleness=staleness,
        weight_of=degrees.get,
    )
    gpu = machine.gpu
    clock = 0.0
    with machine.activate():
        for _ in range(1500):
            clock += rng.random() * 4.0
            key = rng.randrange(40)
            op = rng.random()
            if op < 0.45:
                # Each value carries its own event time, so a hit shows its age.
                value = store.probe(key, clock)
                if value is not None:
                    assert 0.0 <= clock - value < staleness
            elif op < 0.85:
                store.put(key, clock, event_ms=clock, nbytes=rng.randrange(1, 120))
            else:
                store.invalidate([key, rng.randrange(40)])
            assert 0 <= store.bytes_current <= capacity
            assert gpu.memory.usage_by_tag().get("cache:embedding", 0) <= capacity
            assert (
                gpu.memory.usage_by_tag().get("cache:embedding", 0)
                == store.bytes_current
            )
        store.flush_charges()
    stats = store.stats
    assert stats.hits + stats.misses == stats.lookups
    assert stats.hits > 0 and stats.evictions > 0  # the stream exercised both


def test_staleness_zero_bypasses_inserts_entirely():
    """Under a zero bound ``put`` admits nothing: no inserts, no occupancy."""
    machine, store = make_store(staleness=0.0)
    with machine.activate():
        events_before = machine.event_count
        for key in range(20):
            assert store.put(key, "row", event_ms=float(key), nbytes=16) is False
        assert store.put_many(list(range(20)), "row", [0.0] * 20, 16) == 0
        store.flush_charges("update")
    assert store.stats.inserts == 0
    assert store.stats.entries == 0
    assert store.stats.bytes_current == 0
    assert store.stats.bytes_peak == 0
    assert len(store) == 0
    # No allocation, copy kernel or admin work was charged for the bypass.
    assert machine.event_count == events_before
    assert machine.gpu.memory.usage_by_tag().get("cache:embedding", 0) == 0


def test_batched_probe_put_match_per_key_calls_exactly():
    """probe_many/put_many are charge- and stats-identical to per-key loops."""
    loop_machine, loop_store = make_store(staleness=30.0, capacity=600)
    batch_machine, batch_store = make_store(staleness=30.0, capacity=600)
    keys = [key % 17 for key in range(60)]
    times = [float(index) for index in range(60)]
    probe_times = [t + 5.0 for t in times]
    with loop_machine.activate():
        for key, event_ms in zip(keys, times):
            loop_store.put(key, key, event_ms, 24)
        loop_store.flush_charges("update")
        loop_values = [
            loop_store.probe(key, now) for key, now in zip(keys, probe_times)
        ]
        loop_store.flush_charges("lookup")
    with batch_machine.activate():
        batch_store.put_many(keys, None, times, 24)
        # put_many shares one value object; rewrite values per key so the
        # probe comparison below is meaningful.
        for key, event_ms in zip(keys, times):
            batch_store.put(key, key, event_ms, 24)
        batch_store.flush_charges("update")
        batch_values = batch_store.probe_many(keys, probe_times)
        batch_store.flush_charges("lookup")
    assert batch_values == loop_values
    loop_stats = loop_store.stats.as_dict()
    batch_stats = batch_store.stats.as_dict()
    # The batched store did one extra overwrite round (the value rewrite),
    # which doubles inserts but must not disturb the lookup-side counters.
    for key in ("lookups", "hits", "misses", "stale_rejects", "entries",
                "bytes_current", "hit_rate"):
        assert batch_stats[key] == loop_stats[key], key
    assert batch_stats["inserts"] == 2 * loop_stats["inserts"]


def test_put_many_evicts_under_pressure_like_put():
    """Eviction decisions inside put_many mirror sequential per-key puts."""
    loop_machine, loop_store = make_store(staleness=100.0, capacity=100)
    batch_machine, batch_store = make_store(staleness=100.0, capacity=100)
    keys = list(range(10))
    times = [float(index) for index in range(10)]
    with loop_machine.activate():
        for key, event_ms in zip(keys, times):
            loop_store.put(key, True, event_ms, 30)
        loop_store.flush_charges("update")
    with batch_machine.activate():
        assert batch_store.put_many(keys, True, times, 30) == 10
        batch_store.flush_charges("update")
    assert loop_store.stats.as_dict() == batch_store.stats.as_dict()
    assert loop_store.stats.evictions > 0
    assert sorted(key for key in keys if key in loop_store) == sorted(
        key for key in keys if key in batch_store
    )


# -- merged-stats peak semantics (PR 8 regression) ----------------------------------


def test_cache_stats_merge_takes_max_peak_and_keeps_the_sum():
    from repro.cache.store import CacheStats

    a = CacheStats(lookups=10, hits=4, misses=6, bytes_current=100, bytes_peak=300)
    b = CacheStats(lookups=5, hits=5, misses=0, bytes_current=50, bytes_peak=200)
    c = CacheStats(lookups=1, hits=0, misses=1, bytes_current=10, bytes_peak=400)
    merged = CacheStats()
    for part in (a, b, c):
        merged.merge(part)
    # Per-store peaks happen at different times: a sum of them is not a
    # peak of the merged store.  The max is; the sum survives separately.
    assert merged.bytes_peak == 400
    assert merged.peak_sum == 900
    assert merged.as_dict()["bytes_peak_sum"] == 900
    assert merged.lookups == 16
    assert merged.hits == 9
    assert merged.bytes_current == 160
    # Conservation holds through the merge.
    assert merged.hits + merged.misses == merged.lookups


def test_cache_stats_single_store_peak_sum_equals_peak():
    from repro.cache.store import CacheStats

    stats = CacheStats(bytes_peak=123)
    assert stats.peak_sum == 123
    assert stats.as_dict()["bytes_peak_sum"] == 123


def test_merge_cache_stats_reports_max_peak_across_replicas():
    from repro.cache import merge_cache_stats

    reports = [
        {"policy": "lru", "capacity_mb": 8.0, "staleness_ms": 5.0, "kinds": ["embedding"],
         "lookups": 10, "hits": 3, "misses": 7, "bytes_peak": 1000, "bytes_peak_sum": 1000},
        {"policy": "lru", "capacity_mb": 8.0, "staleness_ms": 5.0, "kinds": ["embedding"],
         "lookups": 20, "hits": 10, "misses": 10, "bytes_peak": 600, "bytes_peak_sum": 600},
    ]
    merged = merge_cache_stats(reports)
    assert merged["bytes_peak"] == 1000
    assert merged["bytes_peak_sum"] == 1600
    assert merged["lookups"] == 30
    assert merged["hits"] + merged["misses"] == merged["lookups"]


# -- run == n x run-of-one: the batch entry points against per-key calls ----------

RUN_CAPACITY = 240
RUN_STALENESS = 25.0
RUN_KEYS = 24


def run_law_program(seed):
    """Ops ``(name, keys, times, nbytes)`` for the run law, drawn once per seed.

    A scripted prefix guarantees the cases the law has to hold on -- a key
    repeated inside one batch, a hit then an expiry of the same key inside
    one probe batch, an overwrite, an eviction of an entry the same batch
    inserted, ``nbytes > capacity`` -- and a random tail mixes them.
    """
    rng = random.Random(seed)
    ops = [
        ("put", [1, 2, 3, 2, 1], [0.0, 1.0, 2.0, 3.0, 4.0], 24),  # repeats = overwrites
        ("probe", [1, 1, 9, 2, 1], [5.0, 4.0 + RUN_STALENESS, 5.0, 3.5, 6.0], 0),  # hit, expiry, gone
        ("flush_charges", [], [], 0),
        ("put", list(range(4, 20)), [6.0] * 16, 24),  # 16 rows into a 10-row store
        ("put", [20, 21], [6.0, 6.0], RUN_CAPACITY + 1),  # larger than the store
        ("invalidate", [4, 19, 19, 23, 18], [], 0),
        ("flush_charges", [], [], 0),
    ]
    clock = 7.0
    for _ in range(140):
        clock += rng.random() * 6.0
        size = rng.choice((0, 1, 2, 5, 12, 30))
        keys = [rng.randrange(RUN_KEYS) for _ in range(size)]
        draw = rng.random()
        if draw < 0.35:
            times = [clock + rng.choice((0.0, 1.0, RUN_STALENESS, -3.0)) for _ in keys]
            ops.append(("probe", keys, times, 0))
        elif draw < 0.75:
            times = [clock + rng.random() for _ in keys]
            name = rng.choice(("put", "put_rows"))  # one shared value / one value per key
            ops.append((name, keys, times, rng.choice((8, 24, 24, 60, 120, RUN_CAPACITY + 8))))
        elif draw < 0.9:
            ops.append(("invalidate", keys, [], 0))
        else:
            ops.append(("flush_charges", [], [], 0))
    ops.append(("flush_charges", [], [], 0))
    return ops


def drain_policy(policy):
    """The policy's eviction order, read by evicting everything."""
    order = []
    while len(policy):
        victim = policy.victim()
        order.append(victim)
        policy.on_remove(victim)
    return order


def run_law_observables(program, policy, batched, staleness=RUN_STALENESS, pool_room=None):
    """Run ``program`` through the batch (or per-key) entry points; everything observable.

    Batched: ``probe_many`` / ``put_many`` / ``put_rows`` / ``invalidate(keys)``;
    per key: ``probe`` / ``put`` / ``invalidate([key])``.

    ``pool_room`` makes the GPU pool strict with that many bytes left, so a
    put batch can raise ``OutOfMemoryError`` part-way; the exception is an
    outcome like any other and the program carries on after it.
    """
    machine = Machine.cpu_gpu(strict_memory=pool_room is not None)
    gpu = machine.gpu
    if pool_room is not None:
        machine.alloc(gpu, gpu.memory.capacity_bytes - pool_room, "filler")
    _, store = make_store(
        machine, policy=policy, capacity=RUN_CAPACITY, staleness=staleness,
        weight_of=lambda key: float(key * 7 % 13),
    )
    def issue(name, keys, times, nbytes):
        if name == "probe":
            if batched:
                return store.probe_many(keys, times)
            return [store.probe(key, now) for key, now in zip(keys, times)]
        if name == "put":
            if batched:
                return store.put_many(keys, "row", times, nbytes)
            return sum([store.put(key, "row", now, nbytes) for key, now in zip(keys, times)])
        if name == "put_rows":
            values = [f"{key}@{now}" for key, now in zip(keys, times)]
            if batched:
                return store.put_rows(keys, values, times, nbytes)
            return sum([store.put(*row, nbytes) for row in zip(keys, values, times)])
        if name == "invalidate":
            if batched:
                return store.invalidate(keys)
            return sum([store.invalidate([key]) for key in keys])
        if name == "squeeze":  # someone else takes pool room the store had counted on
            return machine.alloc(gpu, nbytes, "squeeze")
        return store.flush_charges("run")

    returns = []
    with machine.activate():
        for op in program:
            inserts = store.stats.inserts
            try:
                returns.append(issue(*op))
            except OutOfMemoryError as error:
                returns.append(("oom", str(error), store.stats.inserts - inserts))
                store.flush_charges("after_oom")
    return {
        "events": [tuple(event) for event in machine.events],
        "event_count": machine.event_count,
        "pools": [
            # The pool's footprint over time: its device's memory rows.
            (d.memory.current_bytes, d.memory.peak_bytes,
             [row for row in machine.events.rows
              if row[2] == d.name and row[0] in (ALLOC, FREE)])
            for d in machine.devices
        ],
        "stats": store.stats.as_dict(),
        "resident": sorted(key for key in range(RUN_KEYS) if key in store),
        "returns": returns,
        "host_ms": machine.host_time_ms,
        "eviction_order": drain_policy(store.policy),
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("policy", ["lru", "lfu", "degree"])
def test_a_key_batch_equals_its_keys_one_at_a_time(policy, seed):
    program = run_law_program(seed)
    batched = run_law_observables(program, policy, batched=True)
    scalar = run_law_observables(program, policy, batched=False)
    for name, value in scalar.items():
        assert batched[name] == value, name
    assert len(batched["events"]) == batched["event_count"]
    stats = batched["stats"]
    # The program reached every case it was written for.
    assert stats["hits"] and stats["stale_evictions"] and stats["evictions"]
    assert stats["invalidations"] and stats["inserts"] > stats["entries"]


@pytest.mark.parametrize("policy", ["lru", "lfu", "degree"])
def test_a_key_batch_equals_its_keys_one_at_a_time_under_a_zero_bound(policy):
    program = run_law_program(3)
    batched = run_law_observables(program, policy, batched=True, staleness=0.0)
    assert batched == run_law_observables(program, policy, batched=False, staleness=0.0)
    assert batched["stats"]["inserts"] == 0 and batched["stats"]["hits"] == 0


@pytest.mark.parametrize("policy", ["lru", "lfu", "degree"])
def test_a_strict_pool_raises_at_the_same_key_of_a_batch(policy):
    """The pool has room for the whole store, then for half of it: evictions, then OOMs."""
    program = run_law_program(4)
    middle = len(program) // 2
    program[middle:middle] = [("invalidate", list(range(RUN_KEYS)), [], 0), ("squeeze", [], [], 180)]
    batched = run_law_observables(program, policy, batched=True, pool_room=300)
    scalar = run_law_observables(program, policy, batched=False, pool_room=300)
    for name, value in scalar.items():
        assert batched[name] == value, name
    ooms = [value for value in batched["returns"] if isinstance(value, tuple)]
    assert ooms and all(value[0] == "oom" for value in ooms)
    assert any(admitted_before > 0 for _, _, admitted_before in ooms)  # mid-batch
    assert len(batched["events"]) == batched["event_count"]  # the refused alloc left no trace
    assert batched["stats"]["evictions"] and batched["stats"]["bytes_peak"] == RUN_CAPACITY


@pytest.mark.parametrize("call", ["probe_many", "put_many", "put_rows"])
def test_ragged_batches_raise_before_any_state_moves(call):
    """Regression: a short ``times_ms`` used to drop keys silently (zip) while
    ``lookups`` counted them all, breaking ``hits + misses == lookups``."""
    machine, store = make_store(capacity=1000, staleness=1e9)
    store.put_many([1, 2, 3], "row", [0.0, 0.0, 0.0], 10)
    before = (store.stats.as_dict(), machine.event_count, len(store))
    arguments = {
        "probe_many": ([1, 2, 3, 4], [0.0, 0.0]),
        "put_many": ([4, 5, 6, 7], "row", [0.0, 0.0], 10),
        "put_rows": ([4, 5, 6, 7], ["a", "b", "c", "d"], [0.0, 0.0], 10),
    }[call]
    with pytest.raises(ValueError, match=r"4 keys .*2 times"):
        getattr(store, call)(*arguments)
    assert (store.stats.as_dict(), machine.event_count, len(store)) == before
    if call == "put_rows":
        with pytest.raises(ValueError, match=r"2 keys .*1 values"):
            store.put_rows([4, 5], ["a"], [0.0, 0.0], 10)
    store.flush_charges()
    stats = store.stats
    assert stats.hits + stats.misses == stats.lookups


@pytest.mark.parametrize("policy", ["lru", "lfu"])
def test_insertion_weights_are_not_computed_for_policies_that_ignore_them(policy):
    def weight_of(key):
        raise AssertionError(f"weight_of({key!r}) called under {policy}")

    _, store = make_store(policy=policy, capacity=100, staleness=1e9, weight_of=weight_of)
    assert store.put(1, "a", 0.0, 40)
    assert store.put_many([2, 3, 4], "b", [0.0] * 3, 40) == 3  # evicts on the way
    assert store.put_rows([5], ["c"], [0.0], 40) == 1
    assert store.stats.evictions == 3


def test_degree_policy_still_reads_one_weight_per_admitted_insert():
    asked = []
    degrees = {1: 100.0, 2: 1.0, 3: 50.0, 4: 75.0, 5: None}

    def weight_of(key):
        asked.append(key)
        return degrees[key]

    _, store = make_store(policy="degree", capacity=30, staleness=1e9, weight_of=weight_of)
    store.put_many([1, 2, 3], "row", [0.0] * 3, 10)
    store.put(4, "row", 0.0, 10)  # evicts 2, the smallest degree
    store.put(9, "huge", 0.0, 31)  # rejected: no weight asked for
    store.put(5, "row", 0.0, 10)  # a missing degree weighs 0 and evicts 3
    assert asked == [1, 2, 3, 4, 5]
    assert drain_policy(store.policy) == [5, 4, 1]
