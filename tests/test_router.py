"""Router coverage: dispatch invariants of RR / JSQ / least-latency."""

import pytest

from repro.serve.router import (
    JoinShortestQueueRouter,
    LeastLatencyRouter,
    RoundRobinRouter,
    available_routers,
    make_router,
)


class TestRoundRobin:
    def test_cycles_through_replicas(self):
        router = RoundRobinRouter(3)
        picks = [router.route(4, now_ms=i) for i in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_ignores_load(self):
        router = RoundRobinRouter(2)
        router.notify_dispatch(1, 100)  # replica 1 deeply backlogged
        assert router.route(4, 0.0) == 0
        assert router.route(4, 0.0) == 1  # still gets its turn


class TestJoinShortestQueue:
    def test_prefers_emptiest_replica(self):
        router = JoinShortestQueueRouter(3)
        router.notify_dispatch(0, 8)
        router.notify_dispatch(1, 4)
        assert router.route(4, 0.0) == 2

    def test_ties_break_to_lowest_index(self):
        router = JoinShortestQueueRouter(4)
        assert router.route(4, 0.0) == 0

    def test_completions_release_queue_depth(self):
        router = JoinShortestQueueRouter(2)
        router.notify_dispatch(0, 8)
        router.notify_dispatch(1, 4)
        router.notify_complete(0, 8, service_ms=5.0)
        assert router.route(4, 0.0) == 0
        assert router.queue_depths() == [0, 4]

    def test_queue_depth_spread_bounded_under_feedback(self):
        """With uniform batches and immediate accounting, JSQ keeps the
        max/min in-flight spread within one batch."""
        router = JoinShortestQueueRouter(4)
        batch = 4
        for _ in range(40):
            index = router.route(batch, 0.0)
            router.notify_dispatch(index, batch)
        depths = router.queue_depths()
        assert max(depths) - min(depths) <= batch

    def test_round_robin_can_skew_where_jsq_cannot(self):
        """A replica that never completes starves under RR but not JSQ."""
        rr, jsq = (RoundRobinRouter(2), JoinShortestQueueRouter(2))
        for router in (rr, jsq):
            for _ in range(10):
                index = router.route(1, 0.0)
                router.notify_dispatch(index, 1)
                if index == 1:
                    router.notify_complete(index, 1, 1.0)  # only r1 completes
        assert max(rr.queue_depths()) == 5
        assert max(jsq.queue_depths()) <= 2


class TestLeastLatency:
    def test_explores_unobserved_replicas_first(self):
        router = LeastLatencyRouter(2)
        router.notify_dispatch(0, 4)
        router.notify_complete(0, 4, service_ms=4.0)  # r0 has an estimate
        assert router.route(4, 0.0) == 1  # r1 unknown -> explored

    def test_picks_smallest_estimated_completion(self):
        router = LeastLatencyRouter(2)
        # r0: fast (1 ms/request) but backlogged; r1: slow (10 ms/request), idle.
        router.notify_dispatch(0, 4)
        router.notify_complete(0, 4, service_ms=4.0)
        router.notify_dispatch(1, 4)
        router.notify_complete(1, 4, service_ms=40.0)
        router.notify_dispatch(0, 6)  # r0 now has 6 in flight
        # r0 estimate: (6+4)*1 = 10; r1 estimate: (0+4)*10 = 40 -> r0 wins.
        assert router.route(4, 0.0) == 0
        router.notify_dispatch(0, 100)
        # r0 estimate now (106+4)*1 = 110 > 40 -> r1 wins.
        assert router.route(4, 0.0) == 1

    def test_estimator_tracks_per_replica_speeds(self):
        router = LeastLatencyRouter(2)
        router.notify_complete(0, 4, service_ms=4.0)
        router.notify_complete(1, 4, service_ms=40.0)
        assert router.replicas[0].per_request_ms == pytest.approx(1.0)
        assert router.replicas[1].per_request_ms == pytest.approx(10.0)


class TestRegistry:
    def test_available_routers(self):
        assert available_routers() == ["jsq", "least-latency", "round-robin"]

    def test_make_router(self):
        for name in available_routers():
            router = make_router(name, 3)
            assert router.num_replicas == 3
            assert name in router.describe()

    def test_make_router_unknown(self):
        with pytest.raises(KeyError):
            make_router("random", 2)

    def test_rejects_zero_replicas(self):
        with pytest.raises(ValueError):
            RoundRobinRouter(0)

    def test_completion_accounting_never_goes_negative(self):
        router = JoinShortestQueueRouter(1)
        router.notify_complete(0, 8, service_ms=1.0)  # spurious completion
        assert router.queue_depths() == [0]


class TestActiveSet:
    """Autoscaler-driven masking: inactive replicas receive no new batches."""

    def test_all_replicas_start_active(self):
        router = make_router("round-robin", 3)
        assert router.active_indices() == [0, 1, 2]

    def test_round_robin_skips_inactive_replicas(self):
        router = RoundRobinRouter(3)
        router.set_active([0, 2])
        picks = [router.route(4, 0.0) for _ in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_jsq_considers_only_the_active_set(self):
        router = JoinShortestQueueRouter(3)
        router.set_active([0, 1])
        router.notify_dispatch(0, 8)
        router.notify_dispatch(1, 4)
        # Replica 2 is empty but inactive; 1 is the shallowest active queue.
        assert router.route(4, 0.0) == 1

    def test_least_latency_considers_only_the_active_set(self):
        router = LeastLatencyRouter(3)
        router.notify_complete(0, 4, service_ms=4.0)
        router.notify_complete(1, 4, service_ms=40.0)
        router.set_active([1, 2])
        # Replica 0 is the fastest but inactive; 2 is unexplored (preferred).
        assert router.route(4, 0.0) == 2

    def test_reactivated_replica_keeps_its_warm_estimator(self):
        router = LeastLatencyRouter(2)
        router.notify_complete(1, 4, service_ms=8.0)
        router.set_active([0])
        router.set_active([0, 1])
        assert router.replicas[1].per_request_ms == pytest.approx(2.0)

    def test_set_active_validates_its_input(self):
        router = RoundRobinRouter(2)
        with pytest.raises(ValueError):
            router.set_active([])
        with pytest.raises(ValueError):
            router.set_active([0, 5])
