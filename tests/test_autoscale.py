"""Autoscaler policy: pure decision logic, tested without a simulator."""

import pytest

from repro.serve import AutoscaleConfig, Autoscaler
from repro.serve.autoscale import LOW_WATERMARK, P99_WINDOW
from repro.serve.router import RoundRobinRouter


def make_autoscaler(cold_start_ms=5.0, num_replicas=None, **config_kwargs):
    """An autoscaler bound to a real router and recording spin callbacks."""
    config = AutoscaleConfig(**config_kwargs)
    size = num_replicas if num_replicas is not None else config.max_replicas
    router = RoundRobinRouter(size)
    ups, downs = [], []

    def spin_up(index, now_ms):
        ups.append((index, now_ms))
        return now_ms + cold_start_ms

    def spin_down(index, now_ms):
        downs.append((index, now_ms))

    scaler = Autoscaler(config)
    scaler.bind(router, size, spin_up=spin_up, spin_down=spin_down, now_ms=0.0)
    return scaler, router, ups, downs


def seed_estimator(router, per_request_ms=10.0, index=0):
    router.notify_complete(index, 1, per_request_ms)


def offer_rate(scaler, per_ms=1.0, count=20, start=0.0):
    """Feed ``count`` arrivals spaced ``per_ms`` apart (rate = 1000/per_ms)."""
    for i in range(count):
        scaler.observe_arrival(start + i * per_ms)
    return start + (count - 1) * per_ms


class TestConfigValidation:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(min_replicas=0)
        with pytest.raises(ValueError):
            AutoscaleConfig(min_replicas=3, max_replicas=2)

    def test_start_replicas_defaults_to_the_floor(self):
        scaler, router, _, _ = make_autoscaler(min_replicas=2, max_replicas=4)
        assert router.active_indices() == [0, 1]
        assert scaler.stats(0.0)["initial_replicas"] == 2

    def test_bind_requires_enough_built_replicas(self):
        scaler = Autoscaler(AutoscaleConfig(max_replicas=4))
        with pytest.raises(ValueError):
            scaler.bind(RoundRobinRouter(2), 2, spin_up=lambda i, t: t,
                        spin_down=lambda i, t: None)

    def test_bind_activates_the_initial_fleet_only(self):
        scaler, router, _, _ = make_autoscaler(min_replicas=2, max_replicas=4)
        assert scaler.fleet_size == 2
        assert router.active_indices() == [0, 1]


class TestSignals:
    def test_arrival_rate_decays_toward_now(self):
        scaler, _, _, _ = make_autoscaler()
        offer_rate(scaler, per_ms=1.0, count=10)  # 10 arrivals over 9 ms
        busy = scaler.arrival_rate_per_s(10.0)
        idle = scaler.arrival_rate_per_s(1000.0)
        assert busy == pytest.approx(1000.0, rel=0.2)
        assert idle < busy / 50  # the estimate falls off in a lull

    def test_utilization_is_none_until_an_estimate_exists(self):
        scaler, router, _, _ = make_autoscaler()
        offer_rate(scaler)
        assert scaler.utilization(20.0) is None
        seed_estimator(router)
        assert scaler.utilization(20.0) is not None

    def test_window_p99_tracks_recent_completions(self):
        scaler, _, _, _ = make_autoscaler()
        scaler.observe_completion(0.0, 100.0)
        for _ in range(P99_WINDOW - 1):
            scaler.observe_completion(0.0, 5.0)
        assert scaler.window_p99_ms() > 10.0
        scaler.observe_completion(0.0, 5.0)
        # The 100 ms outlier slid out of the window.
        assert scaler.window_p99_ms() < 10.0


class TestScaleUp:
    def test_utilization_breach_spins_up_one_pending_replica(self):
        scaler, router, ups, _ = make_autoscaler(
            min_replicas=1, max_replicas=3, up_cooldown_ms=10.0
        )
        seed_estimator(router, 10.0)
        offer_rate(scaler, per_ms=1.0, count=20)  # ~1000 req/s x 10 ms each
        scaler.step(20.0)
        assert ups == [(1, 20.0)]
        assert scaler.fleet_size == 2  # paid for while warming
        assert router.active_indices() == [0]  # not serving yet
        assert scaler.next_ready_ms() == pytest.approx(25.0)
        assert scaler.cold_start_ms == pytest.approx(5.0)

    def test_warmed_replica_is_promoted_into_the_active_set(self):
        scaler, router, _, _ = make_autoscaler(
            min_replicas=1, max_replicas=3, up_cooldown_ms=100.0
        )
        seed_estimator(router, 10.0)
        offer_rate(scaler, per_ms=1.0, count=20)
        scaler.step(20.0)
        scaler.step(25.0)
        assert router.active_indices() == [0, 1]
        assert scaler.next_ready_ms() is None

    def test_up_cooldown_blocks_back_to_back_scale_ups(self):
        scaler, router, ups, _ = make_autoscaler(
            min_replicas=1, max_replicas=4, up_cooldown_ms=50.0
        )
        seed_estimator(router, 10.0)
        offer_rate(scaler, per_ms=1.0, count=20)
        scaler.step(20.0)
        scaler.step(30.0)  # 10 ms later: still cooling down
        assert len(ups) == 1
        scaler.step(75.0)  # past the cooldown, load still high
        assert len(ups) == 2

    def test_slo_breach_scales_up_without_a_utilization_estimate(self):
        scaler, _, ups, _ = make_autoscaler(min_replicas=1, max_replicas=2, slo_ms=50.0)
        for _ in range(8):
            scaler.observe_completion(10.0, 200.0)
        scaler.step(10.0)
        assert ups and "SLO" in scaler.events[0].reason

    def test_never_scales_past_the_ceiling(self):
        scaler, router, ups, _ = make_autoscaler(
            min_replicas=2, max_replicas=2, slo_ms=50.0
        )
        for _ in range(8):
            scaler.observe_completion(10.0, 200.0)
        scaler.step(10.0)
        assert ups == []
        assert scaler.fleet_size == 2


class TestScaleDown:
    def make_idle_two_replica_fleet(self, **kwargs):
        """Two active replicas, then silence: a utilization breach at t=20
        grows a floor-1 fleet with an instant cold start."""
        kwargs.setdefault("min_replicas", 1)
        kwargs.setdefault("max_replicas", 2)
        kwargs.setdefault("down_cooldown_ms", 40.0)
        scaler, router, ups, downs = make_autoscaler(cold_start_ms=0.0, **kwargs)
        seed_estimator(router, 10.0)
        offer_rate(scaler, per_ms=1.0, count=20)
        scaler.step(20.0)
        assert router.active_indices() == [0, 1]
        return scaler, router, ups, downs

    def test_idle_fleet_releases_the_newest_drained_replica(self):
        scaler, router, _, downs = self.make_idle_two_replica_fleet()
        scaler.step(1000.0)  # rate ~2 req/s: utilization way below the low mark
        assert downs == [(1, 1000.0)]
        assert router.active_indices() == [0]
        assert scaler.fleet_size == 1

    def test_busy_replicas_are_not_released(self):
        scaler, router, _, downs = self.make_idle_two_replica_fleet()
        router.notify_dispatch(0, 4)
        router.notify_dispatch(1, 4)
        scaler.step(1000.0)
        assert downs == []

    def test_slo_breach_blocks_scale_down(self):
        scaler, _, _, downs = self.make_idle_two_replica_fleet(slo_ms=50.0)
        for _ in range(8):
            scaler.observe_completion(500.0, 200.0)
        scaler.step(1000.0)
        assert downs == []

    def test_never_scales_below_the_floor(self):
        scaler, _, _, downs = self.make_idle_two_replica_fleet(min_replicas=2, max_replicas=2)
        scaler.step(1000.0)
        assert downs == []
        assert scaler.fleet_size == 2

    def test_down_cooldown_applies_after_any_scale_event(self):
        scaler, router, ups, downs = make_autoscaler(
            min_replicas=1, max_replicas=2, up_cooldown_ms=10.0,
            down_cooldown_ms=200.0,
        )
        seed_estimator(router, 10.0)
        offer_rate(scaler, per_ms=1.0, count=4)
        scaler.step(20.0)  # scale up at t=20
        assert ups
        # Rate has decayed below the low watermark by t=100, but only 80 ms
        # have passed since the up event: the cooldown is the only blocker.
        assert scaler.utilization(100.0) < LOW_WATERMARK
        scaler.step(100.0)
        assert downs == []
        scaler.step(250.0)  # past the cooldown
        assert downs


class TestAccounting:
    def test_gpu_time_integral_spans_ownership_windows(self):
        scaler, router, _, _ = make_autoscaler(
            min_replicas=1, max_replicas=2, up_cooldown_ms=10.0,
            down_cooldown_ms=40.0, cold_start_ms=5.0,
        )
        seed_estimator(router, 10.0)
        offer_rate(scaler, per_ms=1.0, count=20)
        scaler.step(20.0)  # replica 1 owned from t=20 (paid while warming)
        assert scaler.gpu_time_ms(100.0) == pytest.approx(100.0 + 80.0)
        scaler.step(500.0)  # idle: replica 1 released at t=500
        assert scaler.gpu_time_ms(1000.0) == pytest.approx(1000.0 + 480.0)

    def test_stats_payload_summarises_the_run(self):
        scaler, router, _, _ = make_autoscaler(
            min_replicas=1, max_replicas=3, up_cooldown_ms=10.0
        )
        seed_estimator(router, 10.0)
        offer_rate(scaler, per_ms=1.0, count=20)
        scaler.step(20.0)
        stats = scaler.stats(100.0)
        assert stats["min_replicas"] == 1
        assert stats["max_replicas"] == 3
        assert stats["scale_ups"] == 1
        assert stats["scale_downs"] == 0
        assert stats["final_fleet"] == 2
        assert stats["cold_start_ms"] == pytest.approx(5.0)
        (event,) = stats["events"]
        assert event["action"] == "up"
        assert event["cold_start_ms"] == pytest.approx(5.0)


class TestAutoscalingExperiment:
    def test_elastic_beats_every_static_fleet_on_some_axis(self):
        """The acceptance criterion: under a flash crowd the elastic fleet
        dominates each static size on p99 or on the GPU-time integral."""
        from repro.experiments import run_experiment

        result = run_experiment("autoscaling", scale="tiny", seed=0)
        rows = {row["fleet"]: row for row in result.rows}
        elastic = rows["elastic"]
        assert elastic["scale_ups"] >= 1
        assert elastic["cold_start_ms"] > 0
        for name, row in rows.items():
            if name == "elastic":
                continue
            size = row["replicas"]
            assert elastic[f"beats_static_{size}"] in ("p99", "gpu_time", "p99+gpu_time")
