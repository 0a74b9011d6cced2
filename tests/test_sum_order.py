"""Float totals must not depend on the Python version.

Python 3.12's builtin ``sum`` compensates float rounding (Neumaier); 3.9 to
3.11 add left to right.  The package totals floats with
:func:`repro._compat.ordered_sum`, which adds left to right everywhere, so
its reports are the same bits on every interpreter.  These tests install
the 3.12 algorithm as ``builtins.sum`` -- written out below, step for step
-- and re-check what a stray builtin ``sum`` would move: the bottlenecks
golden, the autoscaled serving case (its scale decisions read a mean) and
the busy-time reference scans.  So the 3.9 and 3.11 CI legs catch a
version-dependent total too, not only the 3.12 leg.
"""

import builtins
import json
import math
import random
import sys

import pytest

import test_golden_regression as goldens
import test_perf_safety as perf_safety
from repro._compat import ordered_sum
from repro.datasets import load


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's ``builtin_sum_impl`` in Python, fast paths included.

    Exact ints add exactly; from the first exact float on, exact floats add
    with Neumaier's compensation (``c``), ints that fit a C long add
    uncompensated, and the compensation is folded in once, at the end or
    before the first item of any other type, which is then added generically.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    c += (total - t) + item
                else:
                    c += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and -(2**63) <= item < 2**63:
                total += float(item)
                continue
            if c and math.isfinite(c):
                total += c
            result = total + item
            break
        else:
            if c and math.isfinite(c):
                total += c
            return total
    for item in items:
        result = result + item
    return result


@pytest.fixture
def compensated_builtin_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)


def _float_lists(seed, count=200):
    rng = random.Random(seed)
    for _ in range(count):
        yield [
            rng.choice([rng.uniform(-1e3, 1e3), rng.random() * 1e-9, 0.1, 1e16, -0.0])
            for _ in range(rng.randint(0, 40))
        ]


def test_the_two_sums_differ_where_312_compensates():
    tenths = [0.1] * 10
    assert compensated_sum(tenths) == 1.0
    assert ordered_sum(tenths) == 0.9999999999999999
    # ``ordered_sum`` is ``sum`` as 3.11 computes it: the same types too.
    assert ordered_sum([]) == 0 and type(ordered_sum([])) is int
    assert ordered_sum([1, 2, True]) == 4 and type(ordered_sum([1, 2])) is int
    assert compensated_sum([1, 2.5, 3]) == 6.5 and compensated_sum([]) == 0


@pytest.mark.skipif(sys.version_info < (3, 12), reason="the 3.12 algorithm is the builtin")
def test_the_shim_is_the_builtin_sum_on_312():
    for values in _float_lists(0):
        assert repr(compensated_sum(values)) == repr(sum(values))
        assert repr(compensated_sum([1, *values, 2])) == repr(sum([1, *values, 2]))


@pytest.mark.skipif(sum([0.1] * 10) == 1.0, reason="the builtin sum compensates")
def test_ordered_sum_is_the_builtin_sum_before_312():
    for values in _float_lists(1):
        assert repr(ordered_sum(values)) == repr(sum(values))


def test_bottlenecks_golden_holds_under_a_compensated_sum(compensated_builtin_sum):
    with open(goldens.golden_path("bottlenecks"), "r", encoding="utf-8") as handle:
        assert goldens.bottlenecks_json() == handle.read()


def test_autoscaled_serving_case_holds_under_a_compensated_sum(compensated_builtin_sum):
    name = "8-cluster-2n-autoscale-flash"
    with open(goldens.golden_path("serving"), "r", encoding="utf-8") as handle:
        expected = json.load(handle)["cases"][name]["bare"]
    build = goldens.SERVING_CASES[name]
    record = goldens._serving_record(*build(load("wikipedia", scale="tiny"), None, None))
    assert json.loads(json.dumps(record)) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_windowed_busy_reference_holds_under_a_compensated_sum(compensated_builtin_sum, seed):
    perf_safety.test_windowed_busy_matches_reference_scan(seed)


@pytest.mark.parametrize("seed", [3, 4])
def test_union_busy_reference_holds_under_a_compensated_sum(compensated_builtin_sum, seed):
    perf_safety.test_union_busy_matches_reference_merge(seed)
