"""Eviction-policy unit tests: victim order under forced pressure."""

import pytest

from repro.cache import (
    DegreeWeightedPolicy,
    LFUPolicy,
    LRUPolicy,
    available_eviction_policies,
    make_eviction_policy,
)


def test_registry_lists_the_three_policies():
    assert set(available_eviction_policies()) == {"lru", "lfu", "degree"}
    for name in available_eviction_policies():
        assert make_eviction_policy(name).name == name
    with pytest.raises(KeyError, match="unknown eviction policy"):
        make_eviction_policy("clock")


def test_lru_evicts_least_recently_served():
    policy = LRUPolicy()
    for key in ("a", "b", "c"):
        policy.on_insert(key)
    assert policy.victim() == "a"
    policy.on_access("a")  # a is now the warmest entry
    assert policy.victim() == "b"
    policy.on_remove("b")
    assert policy.victim() == "c"
    assert len(policy) == 2


def test_lfu_evicts_least_frequently_served_with_oldest_tiebreak():
    policy = LFUPolicy()
    for key in ("a", "b", "c"):
        policy.on_insert(key)
    # Equal counts: the oldest insertion loses.
    assert policy.victim() == "a"
    policy.on_access("a")
    policy.on_access("a")
    policy.on_access("b")
    # counts: a=2, b=1, c=0
    assert policy.victim() == "c"
    policy.on_remove("c")
    assert policy.victim() == "b"


def test_lfu_reinsert_resets_the_count():
    policy = LFUPolicy()
    policy.on_insert("a")
    policy.on_access("a")
    policy.on_insert("b")
    assert policy.victim() == "b"
    # Overwriting a starts it cold again, and it is now the youngest.
    policy.on_insert("a")
    assert policy.victim() == "b"
    policy.on_access("b")
    assert policy.victim() == "a"


def test_degree_weighted_evicts_smallest_degree_first():
    policy = DegreeWeightedPolicy()
    policy.on_insert("hub", weight=500.0)
    policy.on_insert("leaf", weight=1.0)
    policy.on_insert("mid", weight=40.0)
    assert policy.victim() == "leaf"
    policy.on_remove("leaf")
    assert policy.victim() == "mid"
    # Accesses do not promote entries: degree is a static recompute-cost proxy.
    policy.on_access("mid")
    policy.on_access("mid")
    assert policy.victim() == "mid"


def test_degree_ties_evict_the_oldest_insertion():
    policy = DegreeWeightedPolicy()
    policy.on_insert("first", weight=7.0)
    policy.on_insert("second", weight=7.0)
    assert policy.victim() == "first"


def test_empty_policies_refuse_to_pick_victims():
    for name in available_eviction_policies():
        policy = make_eviction_policy(name)
        with pytest.raises(KeyError):
            policy.victim()
        policy.on_insert("x", weight=1.0)
        policy.on_remove("x")
        with pytest.raises(KeyError):
            policy.victim()


@pytest.mark.parametrize("name", ["lru", "lfu", "degree"])
def test_touching_a_batch_equals_touching_its_keys_in_order(name):
    """``on_access_many`` (a probe batch's hits) is ``on_access`` per key, repeats and
    unknown keys included."""
    touched = ["c", "a", "zz", "c", "e", "a", "a", "b"]
    orders = []
    for batched in (True, False):
        policy = make_eviction_policy(name)
        for weight, key in enumerate("abcdef"):
            policy.on_insert(key, float(weight % 3))
        if batched:
            policy.on_access_many(iter(touched))
        else:
            for key in touched:
                policy.on_access(key)
        order = []
        while len(policy):
            order.append(policy.victim())
            policy.on_remove(order[-1])
        orders.append(order)
    assert orders[0] == orders[1]
    assert sorted(orders[0]) == list("abcdef")
    assert DegreeWeightedPolicy.reads_weights and not (
        LRUPolicy.reads_weights or LFUPolicy.reads_weights)


#: Touch sequences whose unknown keys sit where a batched touch could lose its
#: place: first, last, back to back, and nothing but unknown keys.
UNKNOWN_KEY_TOUCHES = {
    "first": ["zz", "c", "a", "b"],
    "last": ["c", "a", "b", "zz"],
    "back to back": ["c", "yy", "zz", "a", "xx", "ww", "vv", "b", "a"],
    "only unknown": ["zz", "yy", "zz"],
}


def _victim_order(name, touch):
    policy = make_eviction_policy(name)
    for weight, key in enumerate("abcdef"):
        policy.on_insert(key, float(weight % 3))
    touch(policy)
    order = []
    while len(policy):
        order.append(policy.victim())
        policy.on_remove(order[-1])
    return order


@pytest.mark.parametrize("name", ["lru", "lfu", "degree"])
@pytest.mark.parametrize("case", sorted(UNKNOWN_KEY_TOUCHES))
def test_a_batch_touch_skips_unknown_keys_wherever_they_sit(name, case):
    touched = UNKNOWN_KEY_TOUCHES[case]
    batched = _victim_order(name, lambda policy: policy.on_access_many(iter(touched)))
    one_by_one = _victim_order(name, lambda policy: [policy.on_access(key) for key in touched])
    assert batched == one_by_one
    assert sorted(batched) == list("abcdef")
