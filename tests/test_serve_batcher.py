"""Dynamic batcher + scheduler policy edge cases (no simulator involved)."""

import pytest

from repro.serve import (
    DynamicBatcher,
    FIFOPolicy,
    Request,
    ServiceTimeEstimator,
    SLOAwarePolicy,
    TimeoutBatchingPolicy,
    make_policy,
)
from repro.serve.policy import ESTIMATOR_ALPHA, SAFETY_FACTOR


def _request(request_id, arrival_ms, slo_ms=None):
    return Request(request_id=request_id, arrival_ms=arrival_ms, payload=None, slo_ms=slo_ms)


# -- empty queue ----------------------------------------------------------------


@pytest.mark.parametrize("policy_name", ["fifo", "timeout", "slo"])
def test_empty_queue_tick_yields_no_batch(policy_name):
    batcher = DynamicBatcher(make_policy(policy_name))
    assert len(batcher) == 0
    assert batcher.poll(123.0) == []
    assert batcher.next_deadline_ms(123.0) is None


# -- FIFO -----------------------------------------------------------------------


def test_fifo_dispatches_immediately_in_arrival_order():
    batcher = DynamicBatcher(FIFOPolicy(max_batch_size=4))
    for rid in range(3):
        batcher.enqueue(_request(rid, arrival_ms=float(rid)))
    batch = batcher.poll(10.0)
    assert [r.request_id for r in batch] == [0, 1, 2]
    assert len(batcher) == 0


def test_fifo_caps_at_max_batch_size():
    batcher = DynamicBatcher(FIFOPolicy(max_batch_size=2))
    for rid in range(5):
        batcher.enqueue(_request(rid, arrival_ms=0.0))
    assert [r.request_id for r in batcher.poll(1.0)] == [0, 1]
    assert [r.request_id for r in batcher.poll(1.0)] == [2, 3]
    assert [r.request_id for r in batcher.poll(1.0)] == [4]


# -- timeout batching ---------------------------------------------------------------


def test_timeout_waits_then_fires_with_partial_batch():
    policy = TimeoutBatchingPolicy(max_batch_size=8, batch_timeout_ms=5.0)
    batcher = DynamicBatcher(policy)
    batcher.enqueue(_request(0, arrival_ms=10.0))
    batcher.enqueue(_request(1, arrival_ms=12.0))
    assert batcher.poll(11.0) == []  # still accumulating
    assert batcher.next_deadline_ms(11.0) == pytest.approx(15.0)
    batch = batcher.poll(15.0)  # oldest waited exactly the timeout
    assert [r.request_id for r in batch] == [0, 1]


def test_timeout_fires_immediately_when_batch_fills_exactly():
    policy = TimeoutBatchingPolicy(max_batch_size=3, batch_timeout_ms=1000.0)
    batcher = DynamicBatcher(policy)
    for rid in range(3):
        batcher.enqueue(_request(rid, arrival_ms=0.0))
    batch = batcher.poll(0.0)  # no timeout elapsed, but the batch is full
    assert len(batch) == 3
    assert len(batcher) == 0


def test_timeout_keeps_excess_beyond_max_batch_size():
    policy = TimeoutBatchingPolicy(max_batch_size=3, batch_timeout_ms=1000.0)
    batcher = DynamicBatcher(policy)
    for rid in range(4):
        batcher.enqueue(_request(rid, arrival_ms=0.0))
    assert len(batcher.poll(0.0)) == 3
    assert len(batcher) == 1
    assert batcher.poll(0.5) == []  # the leftover waits for its own timeout


# -- SLO-aware shrinking ----------------------------------------------------------


def test_slo_policy_behaves_like_timeout_before_any_observation():
    policy = SLOAwarePolicy(max_batch_size=4, batch_timeout_ms=5.0, slo_ms=20.0)
    queue = [_request(0, arrival_ms=0.0, slo_ms=20.0)]
    assert policy.select_batch_size(queue, 1.0) == 0
    assert policy.select_batch_size(queue, 5.0) == 1  # plain timeout fires


def test_slo_policy_shrinks_batch_under_deadline_pressure():
    assert SAFETY_FACTOR == 1.2  # the arithmetic below prices a request at 4.8 ms
    policy = SLOAwarePolicy(max_batch_size=8, batch_timeout_ms=100.0, slo_ms=20.0)
    policy.observe(batch_size=1, service_ms=4.0)  # 4 ms per request
    queue = [_request(rid, arrival_ms=0.0, slo_ms=20.0) for rid in range(8)]
    # A full batch is estimated at 8 * 4.8 = 38.4 ms > 20 ms of slack, so
    # pressure applies immediately: only floor(20 / 4.8) = 4 requests fit
    # before the oldest deadline.
    assert policy.select_batch_size(queue, 0.0) == 4
    # Closer to the deadline the batch shrinks further: floor(10 / 4.8) = 2.
    assert policy.select_batch_size(queue, 10.0) == 2
    # Once even one request cannot make it (slack 3 < 4.8), shrinking is
    # pointless: fall back to throughput batching (full batch available).
    assert policy.select_batch_size(queue, 17.0) == 8


def test_slo_policy_with_comfortable_slack_keeps_batching():
    policy = SLOAwarePolicy(max_batch_size=4, batch_timeout_ms=6.0, slo_ms=100.0)
    policy.observe(batch_size=1, service_ms=1.0)
    queue = [_request(0, arrival_ms=0.0, slo_ms=100.0)]
    # est(1) = 1.2 ms << 100 ms slack: defer to timeout batching (not full yet).
    assert policy.select_batch_size(queue, 1.0) == 0
    queue = [_request(rid, arrival_ms=0.0, slo_ms=100.0) for rid in range(4)]
    assert policy.select_batch_size(queue, 0.0) == 4  # full batch, no shrink


def test_slo_policy_does_not_shed_when_deadline_is_hopeless():
    """A missed deadline must not trigger a batch-of-one death spiral."""
    policy = SLOAwarePolicy(max_batch_size=8, batch_timeout_ms=5.0, slo_ms=20.0)
    policy.observe(batch_size=1, service_ms=4.0)
    # The oldest request is already past its deadline: even a batch of one
    # cannot make it, so the policy batches for throughput instead.
    queue = [_request(rid, arrival_ms=0.0, slo_ms=20.0) for rid in range(8)]
    assert policy.select_batch_size(queue, 25.0) == 8


def test_slo_policy_deadline_tracks_pressure_start():
    policy = SLOAwarePolicy(max_batch_size=4, batch_timeout_ms=50.0, slo_ms=30.0)
    policy.observe(batch_size=2, service_ms=4.0)  # 2 ms per request
    queue = [_request(0, arrival_ms=0.0, slo_ms=30.0)]
    # Pressure starts when slack equals est(1) = 2 * SAFETY_FACTOR ms; the
    # timeout deadline (t = 50) is later, so the policy wants waking then.
    assert policy.next_deadline_ms(queue, 0.0) == pytest.approx(30.0 - 2.0 * SAFETY_FACTOR)


def test_service_time_estimator_smooths_observations():
    estimator = ServiceTimeEstimator()
    assert estimator.estimate(4) == 0.0
    estimator.observe(batch_size=2, service_ms=8.0)   # 4 ms/request
    assert estimator.per_request_ms == pytest.approx(4.0)
    estimator.observe(batch_size=4, service_ms=8.0)   # 2 ms/request sample
    smoothed = 4.0 + ESTIMATOR_ALPHA * (2.0 - 4.0)
    assert estimator.per_request_ms == pytest.approx(smoothed)
    assert estimator.estimate(4) == pytest.approx(4 * smoothed)


# -- force drain -------------------------------------------------------------------


def test_force_pops_up_to_the_policy_cap():
    batcher = DynamicBatcher(TimeoutBatchingPolicy(max_batch_size=3, batch_timeout_ms=1e9))
    for rid in range(5):
        batcher.enqueue(_request(rid, arrival_ms=0.0))
    assert [r.request_id for r in batcher.force(0.0)] == [0, 1, 2]
    assert [r.request_id for r in batcher.force(0.0)] == [3, 4]
    assert batcher.force(0.0) == []


# -- wake-up / dispatch consistency (PR 8 regressions) ------------------------------


@pytest.mark.parametrize("per_request_ms,queued", [(0.001, 3), (0.001, 4), (0.002, 2)])
def test_slo_wakeup_dispatches_the_batch_it_was_scheduled_for(per_request_ms, queued):
    """The wake-up must not strand queue tail via a float-floor artifact.

    ``next_deadline_ms`` schedules the wake-up at the pressure point of the
    batch it expects to dispatch.  Before the fix, ``slack // cost`` at that
    exact instant could floor to ``n - 1`` (float rounding), dispatching a
    smaller batch and leaving the tail with zero slack -- a guaranteed SLO
    miss the policy itself caused.
    """
    policy = SLOAwarePolicy(max_batch_size=8, batch_timeout_ms=50.0, slo_ms=30.0)
    policy.observe(1, per_request_ms)
    queue = [_request(rid, arrival_ms=0.0, slo_ms=30.0) for rid in range(queued)]
    assert policy.select_batch_size(queue, 0.0) == 0  # comfortable: waits
    wake = policy.next_deadline_ms(queue, 0.0)
    assert wake is not None and wake > 0.0
    selected = policy.select_batch_size(queue, wake)
    assert selected == queued
    estimated_done = wake + policy.estimator.estimate(selected) * SAFETY_FACTOR
    assert estimated_done <= 30.0 + 1e-6


@pytest.mark.parametrize("per_request_ms,queued", [(0.001, 2), (0.001, 5), (0.002, 3)])
def test_slo_wakeup_does_not_oscillate_at_the_pressure_boundary(per_request_ms, queued):
    """Waking at the scheduled instant must trigger a dispatch, not a no-op.

    Before the fix, float error could leave ``slack`` marginally above the
    pressure threshold at the scheduled wake-up, so ``select_batch_size``
    returned 0 and the server spun in epsilon-sized clock advances around
    the boundary (dispatching nothing each time) until the slack decayed.
    """
    policy = SLOAwarePolicy(max_batch_size=8, batch_timeout_ms=50.0, slo_ms=30.0)
    policy.observe(1, per_request_ms)
    queue = [_request(rid, arrival_ms=0.0, slo_ms=30.0) for rid in range(queued)]
    assert policy.select_batch_size(queue, 0.0) == 0
    wake = policy.next_deadline_ms(queue, 0.0)
    assert wake is not None and wake > 0.0
    assert policy.select_batch_size(queue, wake) >= 1


def test_make_policy_rejects_inapplicable_overrides():
    with pytest.raises(ValueError, match="batch_timeout_ms"):
        make_policy("fifo", batch_timeout_ms=20.0)
    with pytest.raises(ValueError, match="slo_ms"):
        make_policy("fifo", slo_ms=50.0)
    with pytest.raises(ValueError, match="slo_ms"):
        make_policy("timeout", batch_timeout_ms=4.0, slo_ms=50.0)
    with pytest.raises(KeyError):
        make_policy("nope")


def test_make_policy_applies_defaults_when_overrides_are_omitted():
    fifo = make_policy("fifo", max_batch_size=3)
    assert fifo.max_batch_size == 3
    timeout = make_policy("timeout")
    assert timeout.batch_timeout_ms == pytest.approx(5.0)
    slo = make_policy("slo", batch_timeout_ms=2.0)
    assert slo.batch_timeout_ms == pytest.approx(2.0)
    assert slo.slo_ms == pytest.approx(50.0)


def test_applicable_policy_overrides_filters_per_policy():
    from repro.serve import applicable_policy_overrides

    assert applicable_policy_overrides("fifo", batch_timeout_ms=4.0, slo_ms=50.0) == {}
    assert applicable_policy_overrides("timeout", batch_timeout_ms=4.0, slo_ms=50.0) == {
        "batch_timeout_ms": 4.0
    }
    assert applicable_policy_overrides("slo", batch_timeout_ms=4.0, slo_ms=50.0) == {
        "batch_timeout_ms": 4.0,
        "slo_ms": 50.0,
    }
