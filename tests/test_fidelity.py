"""Adaptive-fidelity serving: controller mechanics and end-to-end identity."""

import pytest

from repro.cache import backfill_embeddings, hot_nodes, make_model_cache
from repro.datasets import load
from repro.fuzz.program import signature
from repro.hw import Machine
from repro.models.tgat import TGAT, TGATConfig
from repro.serve import (
    FULL_FIDELITY,
    FidelityController,
    InferenceServer,
    PoissonProcess,
    applicable_policy_overrides,
    generate_requests,
    make_policy,
)
from repro.serve.fidelity import RECOVERY_BATCHES


@pytest.fixture(scope="module")
def tiny_wikipedia():
    return load("wikipedia", scale="tiny")


# -- controller unit behaviour ------------------------------------------------


class TestLeverOrdering:
    def test_levels_escalate_one_at_a_time_in_lever_order(self):
        controller = FidelityController()
        controller.set_cache_available(True)
        d1 = controller.on_dispatch(True, 4)
        assert d1.level == 1
        assert d1.fanout_scale < 1.0
        assert d1.staleness_scale == 1.0 and not d1.force_hits
        d2 = controller.on_dispatch(True, 4)
        assert d2.level == 2
        assert d2.staleness_scale > 1.0 and not d2.force_hits
        d3 = controller.on_dispatch(True, 4, lost_deadlines=2)
        assert d3.level == 3
        assert d3.force_hits
        # Cost scales strictly decrease as levers stack.
        assert 1.0 > d1.cost_scale > d2.cost_scale > d3.cost_scale > 0.0

    def test_without_cache_the_cache_levers_are_capped(self):
        controller = FidelityController()
        controller.set_cache_available(False)
        for _ in range(5):
            decision = controller.on_dispatch(True, 4, lost_deadlines=2)
        assert decision.level == 1
        assert decision.staleness_scale == 1.0
        assert not decision.force_hits
        snapshot = controller.snapshot()
        assert snapshot["stale_requests"] == 0
        assert snapshot["forced_requests"] == 0

    def test_force_hits_requires_lost_deadlines(self):
        controller = FidelityController()
        controller.set_cache_available(True)
        for _ in range(3):
            controller.on_dispatch(True, 4, lost_deadlines=1)
        decision = controller.on_dispatch(True, 4, lost_deadlines=0)
        # Level 3 without lost deadlines downgrades to the level-2 levers.
        assert not decision.force_hits
        assert decision.cost_scale == controller.cost_scale(2)


class TestRecoveryHysteresis:
    def test_recovery_needs_consecutive_clear_batches(self):
        controller = FidelityController()
        controller.set_cache_available(True)
        controller.on_dispatch(True, 4)
        controller.on_dispatch(True, 4)
        assert controller.level == 2
        # One clear short of a streak, then pressure again: the streak
        # resets, no decay yet.
        for _ in range(RECOVERY_BATCHES - 1):
            controller.on_dispatch(False, 4)
        assert controller.level == 2
        controller.on_dispatch(True, 4)
        assert controller.level == 3
        # Now a full clear run decays exactly one level per streak.
        for _ in range(RECOVERY_BATCHES):
            controller.on_dispatch(False, 4)
        assert controller.level == 2
        for _ in range(2 * RECOVERY_BATCHES):
            controller.on_dispatch(False, 4)
        assert controller.level == 0
        # Recovered: further clear dispatches are full fidelity.
        decision = controller.on_dispatch(False, 4)
        assert decision == FULL_FIDELITY


class TestDebtConservation:
    def test_debt_equals_weighted_lever_counters(self):
        controller = FidelityController()
        controller.set_cache_available(True)
        batches = [(True, 4, 0), (True, 8, 0), (True, 6, 3), (False, 2, 0)]
        for pressured, size, lost in batches:
            controller.on_dispatch(pressured, size, lost_deadlines=lost)
        snapshot = controller.snapshot()
        from repro.serve.fidelity import DEBT_WEIGHTS as weights
        expected = (
            weights["fanout"] * snapshot["fanout_requests"]
            + weights["stale"] * snapshot["stale_requests"]
            + weights["forced"] * snapshot["forced_requests"]
        )
        assert controller.debt_score == expected
        assert snapshot["debt_score"] == expected
        # Requests served degraded are bounded by total requests dispatched.
        total_requests = sum(size for _, size, _ in batches)
        assert snapshot["fanout_requests"] <= total_requests
        assert snapshot["degraded_batches"] <= snapshot["total_dispatches"]

    def test_zero_pressure_accrues_zero_debt(self):
        controller = FidelityController()
        controller.set_cache_available(True)
        for _ in range(20):
            assert controller.on_dispatch(False, 8) == FULL_FIDELITY
        assert controller.debt_score == 0.0
        assert controller.snapshot()["degraded_batches"] == 0


# -- end-to-end ---------------------------------------------------------------


def _serve(dataset, rate, fidelity, cached=False, duration_ms=60.0):
    machine = Machine.cpu_gpu()
    config = TGATConfig(num_neighbors=5, batch_size=8, seed=0)
    with machine.activate():
        model = TGAT(machine, dataset, config)
    if cached:
        make_model_cache(model, policy="lru", capacity_mb=8.0, staleness_ms=1e6)
    policy = make_policy(
        "slo",
        max_batch_size=8,
        **applicable_policy_overrides("slo", batch_timeout_ms=2.0, slo_ms=20.0),
    )
    requests = generate_requests(
        dataset.stream, PoissonProcess(rate, seed=7),
        duration_ms=duration_ms, events_per_request=1, slo_ms=20.0,
    )
    controller = FidelityController() if fidelity else None
    server = InferenceServer(model, policy, fidelity=controller)
    report = server.serve(requests, label="fidelity-test", arrival_name="poisson")
    return machine, report


class TestServingIntegration:
    def test_fidelity_off_is_event_for_event_identical(self, tiny_wikipedia):
        """An attached-but-idle controller must not perturb the timeline."""
        machine_off, report_off = _serve(tiny_wikipedia, 250.0, fidelity=False)
        machine_on, report_on = _serve(tiny_wikipedia, 250.0, fidelity=True)
        assert report_on.fidelity is not None
        assert report_on.fidelity["debt_score"] == 0.0
        assert signature(machine_off) == signature(machine_on)
        assert [r.completed_ms for r in report_off.requests] == [
            r.completed_ms for r in report_on.requests
        ]

    def test_overload_degrades_and_improves_the_tail(self, tiny_wikipedia):
        _, report_off = _serve(tiny_wikipedia, 6000.0, fidelity=False)
        _, report_on = _serve(tiny_wikipedia, 6000.0, fidelity=True)
        snapshot = report_on.fidelity
        assert snapshot["debt_score"] > 0.0
        assert snapshot["degraded_batches"] > 0
        assert snapshot["max_level_seen"] >= 1
        assert report_on.total_latency().p99_ms < report_off.total_latency().p99_ms
        assert "fidelity: debt" in report_on.format_table()

    def test_cache_unlocks_the_deeper_levers(self, tiny_wikipedia):
        _, report = _serve(tiny_wikipedia, 6000.0, fidelity=True, cached=True)
        snapshot = report.fidelity
        assert snapshot["max_level_seen"] >= 2
        assert snapshot["stale_requests"] > 0

    def test_fidelity_requires_the_slo_policy(self, tiny_wikipedia):
        machine = Machine.cpu_gpu()
        config = TGATConfig(num_neighbors=5, batch_size=8, seed=0)
        with machine.activate():
            model = TGAT(machine, tiny_wikipedia, config)
        policy = make_policy("fifo", max_batch_size=8)
        with pytest.raises(TypeError, match="slo"):
            InferenceServer(model, policy, fidelity=FidelityController())


# -- backfill -----------------------------------------------------------------


class TestBackfill:
    def test_hot_nodes_are_degree_ranked_and_deterministic(self, tiny_wikipedia):
        machine = Machine.cpu_gpu()
        config = TGATConfig(num_neighbors=5, batch_size=8, seed=0)
        with machine.activate():
            model = TGAT(machine, tiny_wikipedia, config)
        ranked = hot_nodes(model, top_k=8)
        assert ranked == hot_nodes(model, top_k=8)
        degrees = [model.sampler.total_degree(node) for node in ranked]
        assert degrees == sorted(degrees, reverse=True)
        assert all(degree > 0 for degree in degrees)

    def test_backfill_inserts_rows_at_simulated_cost(self, tiny_wikipedia):
        machine = Machine.cpu_gpu()
        config = TGATConfig(num_neighbors=5, batch_size=8, seed=0)
        with machine.activate():
            model = TGAT(machine, tiny_wikipedia, config)
        make_model_cache(model, policy="lru", capacity_mb=8.0, staleness_ms=1e6)
        before = machine.host_time_ms
        report = backfill_embeddings(model, top_k=16)
        assert report.computed == 16
        assert report.inserted > 0
        assert report.elapsed_ms > 0.0
        assert machine.host_time_ms > before
        assert model.cache.embeddings.stats.inserts >= report.inserted

    def test_backfill_without_cache_raises(self, tiny_wikipedia):
        machine = Machine.cpu_gpu()
        config = TGATConfig(num_neighbors=5, batch_size=8, seed=0)
        with machine.activate():
            model = TGAT(machine, tiny_wikipedia, config)
        with pytest.raises(TypeError, match="cache"):
            backfill_embeddings(model, top_k=4)
