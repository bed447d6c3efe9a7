"""Autoscaler policy unit tests — pure functions, virtual time, no sleeps.

Every test here drives :func:`repro.cluster.decide` with hand-built
:class:`LoadSnapshot`s whose ``now`` comes from a virtual timeline.
There is not a single ``time.sleep`` (or real clock read) in this file:
cooldowns, hysteresis streaks and step bounds are all exercised by
choosing timestamps, which is the point of building the controller as
``(snapshot, state, config) -> (decision, state)``.
"""

import pytest

from repro.clock import VirtualClock, wait_until
from repro.cluster import (
    HOLD,
    SCALE_DOWN,
    SCALE_UP,
    AutoscalerConfig,
    ControllerState,
    LoadSnapshot,
    decide,
)


def snap(now=0.0, replicas=2, outstanding=0, **kwargs):
    return LoadSnapshot(
        now=now, replicas=replicas, outstanding=outstanding, **kwargs
    )


class TestConfigValidation:
    def test_rejects_inverted_fleet_bounds(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=4, max_replicas=2)

    def test_rejects_zero_min(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=0)

    def test_rejects_inverted_ratio_band(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(scale_up_ratio=0.5, scale_down_ratio=0.6)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(target_outstanding_per_replica=0.0)

    def test_rejects_negative_prewarm(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(prewarm_pool_size=-1)

    def test_rejects_nonpositive_idle_ttl(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(idle_model_ttl_s=0.0)


class TestTargetUtilization:
    def test_holds_within_band(self):
        config = AutoscalerConfig(target_outstanding_per_replica=4.0)
        decision, _ = decide(snap(replicas=2, outstanding=4), ControllerState(), config)
        assert decision.action == HOLD
        assert decision.utilization == 2.0

    def test_scales_up_on_sustained_pressure(self):
        config = AutoscalerConfig(
            target_outstanding_per_replica=2.0,
            hysteresis_up=2,
            up_cooldown_s=0.0,
        )
        state = ControllerState()
        decision, state = decide(snap(now=0.0, outstanding=10), state, config)
        assert decision.action == HOLD  # streak 1/2
        decision, state = decide(snap(now=1.0, outstanding=10), state, config)
        assert decision.action == SCALE_UP
        assert decision.amount >= 1

    def test_one_quiet_observation_resets_the_streak(self):
        config = AutoscalerConfig(
            target_outstanding_per_replica=2.0, hysteresis_up=2
        )
        state = ControllerState()
        _, state = decide(snap(now=0.0, outstanding=10), state, config)
        _, state = decide(snap(now=1.0, outstanding=4), state, config)
        decision, state = decide(snap(now=2.0, outstanding=10), state, config)
        assert decision.action == HOLD  # streak restarted at 1/2

    def test_scales_down_after_long_quiet(self):
        config = AutoscalerConfig(
            target_outstanding_per_replica=4.0,
            hysteresis_down=3,
            down_cooldown_s=0.0,
        )
        state = ControllerState()
        for t in (0.0, 1.0):
            decision, state = decide(
                snap(now=t, replicas=3, outstanding=0), state, config
            )
            assert decision.action == HOLD
        decision, state = decide(
            snap(now=2.0, replicas=3, outstanding=0), state, config
        )
        assert decision.action == SCALE_DOWN
        assert decision.amount == 1

    def test_never_exceeds_max_replicas(self):
        config = AutoscalerConfig(
            max_replicas=3, hysteresis_up=1, up_cooldown_s=0.0
        )
        decision, _ = decide(
            snap(replicas=3, outstanding=100), ControllerState(), config
        )
        assert decision.action == HOLD
        assert "max_replicas" in decision.reason

    def test_draining_replicas_count_against_max(self):
        config = AutoscalerConfig(
            max_replicas=3, hysteresis_up=1, up_cooldown_s=0.0
        )
        decision, _ = decide(
            snap(replicas=2, outstanding=100, draining=1),
            ControllerState(),
            config,
        )
        assert decision.action == HOLD

    def test_never_drops_below_min_replicas(self):
        config = AutoscalerConfig(
            min_replicas=2, hysteresis_down=1, down_cooldown_s=0.0
        )
        decision, _ = decide(
            snap(replicas=2, outstanding=0), ControllerState(), config
        )
        assert decision.action == HOLD
        assert "min_replicas" in decision.reason

    def test_step_bounds_cap_the_jump(self):
        config = AutoscalerConfig(
            target_outstanding_per_replica=1.0,
            max_replicas=10,
            max_step_up=2,
            hysteresis_up=1,
            up_cooldown_s=0.0,
        )
        decision, _ = decide(
            snap(replicas=1, outstanding=50), ControllerState(), config
        )
        assert decision.action == SCALE_UP
        assert decision.amount == 2

    def test_step_sized_to_demand_not_always_max(self):
        config = AutoscalerConfig(
            target_outstanding_per_replica=4.0,
            max_replicas=10,
            max_step_up=4,
            hysteresis_up=1,
            up_cooldown_s=0.0,
        )
        # 2 replicas, 9 outstanding -> ceil(9/4)=3 wanted -> +1.
        decision, _ = decide(
            snap(replicas=2, outstanding=9), ControllerState(), config
        )
        assert decision.action == SCALE_UP
        assert decision.amount == 1


class TestCooldowns:
    def test_up_cooldown_blocks_consecutive_ups(self):
        config = AutoscalerConfig(
            target_outstanding_per_replica=1.0,
            hysteresis_up=1,
            up_cooldown_s=10.0,
            max_replicas=8,
        )
        state = ControllerState()
        decision, state = decide(snap(now=0.0, outstanding=20), state, config)
        assert decision.action == SCALE_UP
        decision, state = decide(snap(now=5.0, outstanding=20), state, config)
        assert decision.action == HOLD
        assert "cooldown" in decision.reason
        decision, state = decide(snap(now=10.0, outstanding=20), state, config)
        assert decision.action == SCALE_UP

    def test_down_cooldown_counts_from_any_action(self):
        """A scale-up resets the down cooldown too — the controller never
        adds capacity and immediately takes it away."""
        config = AutoscalerConfig(
            target_outstanding_per_replica=2.0,
            hysteresis_up=1,
            hysteresis_down=1,
            up_cooldown_s=0.0,
            down_cooldown_s=20.0,
            max_replicas=8,
        )
        state = ControllerState()
        decision, state = decide(
            snap(now=0.0, replicas=2, outstanding=20), state, config
        )
        assert decision.action == SCALE_UP
        # Immediately quiet: down must wait out the cooldown since the up.
        decision, state = decide(
            snap(now=5.0, replicas=4, outstanding=0), state, config
        )
        assert decision.action == HOLD
        assert "cooldown" in decision.reason
        decision, state = decide(
            snap(now=21.0, replicas=4, outstanding=0), state, config
        )
        assert decision.action == SCALE_DOWN

    def test_flapping_load_produces_no_action(self):
        """Alternating hot/cold observations never satisfy either
        hysteresis streak: the controller holds throughout."""
        config = AutoscalerConfig(
            target_outstanding_per_replica=2.0,
            hysteresis_up=2,
            hysteresis_down=2,
            up_cooldown_s=0.0,
            down_cooldown_s=0.0,
        )
        state = ControllerState()
        for i in range(20):
            outstanding = 20 if i % 2 == 0 else 0
            decision, state = decide(
                snap(now=float(i), replicas=2, outstanding=outstanding),
                state,
                config,
            )
            assert decision.action == HOLD, (i, decision)


class TestTriggers:
    def test_shed_fraction_triggers_scale_up_at_low_utilization(self):
        config = AutoscalerConfig(
            shed_fraction_trigger=0.05,
            hysteresis_up=1,
            up_cooldown_s=0.0,
        )
        decision, _ = decide(
            snap(replicas=2, outstanding=0, shed_fraction=0.5),
            ControllerState(),
            config,
        )
        assert decision.action == SCALE_UP
        assert "shed" in decision.reason

    def test_p99_trigger_disabled_by_default(self):
        config = AutoscalerConfig(hysteresis_up=1, up_cooldown_s=0.0)
        decision, _ = decide(
            snap(replicas=2, outstanding=0, p99_latency_ms=1e9),
            ControllerState(),
            config,
        )
        assert decision.action == HOLD

    def test_p99_trigger_fires_when_configured(self):
        config = AutoscalerConfig(
            p99_trigger_ms=100.0, hysteresis_up=1, up_cooldown_s=0.0
        )
        decision, _ = decide(
            snap(replicas=2, outstanding=0, p99_latency_ms=250.0),
            ControllerState(),
            config,
        )
        assert decision.action == SCALE_UP
        assert "p99" in decision.reason

    def test_shed_pressure_blocks_scale_down(self):
        """Shedding means the fleet is too small even if queues look
        empty (rejected work never queued)."""
        config = AutoscalerConfig(
            hysteresis_down=1, down_cooldown_s=0.0, max_replicas=8
        )
        decision, _ = decide(
            snap(replicas=4, outstanding=0, shed_fraction=0.5),
            ControllerState(),
            # at max: pressure can't scale up, but quiet must not win
            AutoscalerConfig(
                hysteresis_down=1, down_cooldown_s=0.0, max_replicas=4
            ),
        )
        assert decision.action == HOLD


class TestDeterminism:
    def test_same_inputs_same_decisions(self):
        """The whole point: the policy is a pure function."""
        config = AutoscalerConfig(hysteresis_up=1, up_cooldown_s=0.0)
        s = snap(now=42.0, replicas=2, outstanding=30)
        a = decide(s, ControllerState(), config)
        b = decide(s, ControllerState(), config)
        assert a == b

    def test_virtual_timeline_replays_exactly(self, virtual_clock):
        """Driving the policy off a VirtualClock timeline is replayable:
        two identical runs produce identical decision sequences."""
        config = AutoscalerConfig(
            target_outstanding_per_replica=2.0,
            hysteresis_up=2,
            hysteresis_down=2,
            up_cooldown_s=3.0,
            down_cooldown_s=6.0,
            max_replicas=6,
        )
        loads = [0, 10, 12, 14, 3, 0, 0, 0, 9, 11, 0, 0, 0, 0]

        def run():
            clock = VirtualClock()
            state = ControllerState()
            replicas = 2
            out = []
            for load in loads:
                decision, state = decide(
                    LoadSnapshot(
                        now=clock.now(), replicas=replicas, outstanding=load
                    ),
                    state,
                    config,
                )
                if decision.action == SCALE_UP:
                    replicas += decision.amount
                elif decision.action == SCALE_DOWN:
                    replicas -= decision.amount
                out.append((decision.action, decision.amount, replicas))
                clock.advance(2.0)
            return out

        first, second = run(), run()
        assert first == second
        assert any(action == SCALE_UP for action, _, _ in first)
        assert any(action == SCALE_DOWN for action, _, _ in first)


class TestVirtualClock:
    def test_sleep_advances_instead_of_blocking(self, virtual_clock):
        virtual_clock.sleep(3600.0)  # an hour, instantly
        assert virtual_clock.now() == 3600.0

    def test_rejects_backwards_time(self, virtual_clock):
        with pytest.raises(ValueError):
            virtual_clock.advance(-1.0)

    def test_wait_until_on_virtual_clock_needs_no_real_time(
        self, virtual_clock
    ):
        seen = []

        def predicate():
            seen.append(virtual_clock.now())
            return virtual_clock.now() >= 1.0

        assert wait_until(
            predicate, timeout=5.0, interval=0.25, clock=virtual_clock
        )
        # Polling advanced virtual time in interval steps, never slept.
        assert seen[0] == 0.0 and seen[-1] >= 1.0
