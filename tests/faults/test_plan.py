"""The fault plan: spec validation, determinism, logging, the session."""

import threading

import numpy as np
import pytest

from repro import faults, telemetry
from repro.faults import FaultDecision, FaultPlan, FaultSpec


@pytest.fixture(autouse=True)
def clean_sessions():
    faults.uninstall()
    telemetry.disable()
    yield
    faults.uninstall()
    telemetry.disable()


class TestFaultSpecValidation:
    def test_needs_site(self):
        with pytest.raises(ValueError):
            FaultSpec("", faults.ERROR, probability=0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec("s", "meltdown", probability=0.5)

    def test_probability_range(self):
        with pytest.raises(ValueError):
            FaultSpec("s", faults.ERROR, probability=1.5)

    def test_must_ever_fire(self):
        with pytest.raises(ValueError):
            FaultSpec("s", faults.ERROR)  # probability 0, no schedule

    def test_negative_schedule_index(self):
        with pytest.raises(ValueError):
            FaultSpec("s", faults.ERROR, at=(-1,))

    def test_negative_latency(self):
        with pytest.raises(ValueError):
            FaultSpec("s", faults.LATENCY, at=(0,), latency_s=-0.1)

    def test_zero_max_injections(self):
        with pytest.raises(ValueError):
            FaultSpec("s", faults.ERROR, probability=0.5, max_injections=0)

    def test_schedule_sorted_and_deduped(self):
        spec = FaultSpec("s", faults.ERROR, at=(3, 1, 3, 2))
        assert spec.at == (1, 2, 3)


class TestDeterminism:
    def _drive(self, plan, n=200):
        decisions = []
        for _ in range(n):
            decisions.append(plan.decide("site.a"))
        return decisions

    def test_identical_seeds_identical_fault_sequences(self):
        make = lambda: FaultPlan(
            seed=42, specs=[FaultSpec("site.a", faults.ERROR, probability=0.3)]
        )
        assert self._drive(make()) == self._drive(make())

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, specs=[FaultSpec("site.a", faults.ERROR, probability=0.3)])
        b = FaultPlan(seed=2, specs=[FaultSpec("site.a", faults.ERROR, probability=0.3)])
        assert self._drive(a) != self._drive(b)

    def test_decision_is_pure_function_of_site_and_index(self):
        """Interleaving with another site must not change site.a's stream."""
        spec_a = FaultSpec("site.a", faults.ERROR, probability=0.3)
        spec_b = FaultSpec("site.b", faults.ERROR, probability=0.7)
        solo = FaultPlan(seed=7, specs=[spec_a, spec_b])
        solo_decisions = self._drive(solo, 50)
        interleaved = FaultPlan(seed=7, specs=[spec_a, spec_b])
        decisions = []
        for _ in range(50):
            interleaved.decide("site.b")  # interleave invocations
            decisions.append(interleaved.decide("site.a"))
        assert decisions == solo_decisions

    def test_threaded_decisions_match_sequential(self):
        """Thread interleaving cannot change which invocations fault."""
        specs = [FaultSpec("site.a", faults.CRASH, probability=0.25)]
        sequential = FaultPlan(seed=9, specs=specs)
        for _ in range(120):
            sequential.decide("site.a")
        threaded = FaultPlan(seed=9, specs=specs)
        workers = [
            threading.Thread(
                target=lambda: [threaded.decide("site.a") for _ in range(30)]
            )
            for _ in range(4)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert threaded.log.export_text() == sequential.log.export_text()

    def test_empirical_rate_tracks_probability(self):
        plan = FaultPlan(
            seed=0, specs=[FaultSpec("site.a", faults.ERROR, probability=0.2)]
        )
        fired = sum(plan.decide("site.a") is not None for _ in range(2000))
        assert 0.15 < fired / 2000 < 0.25


class TestScheduleAndCaps:
    def test_scheduled_indices_fire_exactly(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec("s", faults.CRASH, at=(0, 3))])
        fired = [plan.decide("s") is not None for _ in range(6)]
        assert fired == [True, False, False, True, False, False]

    def test_first_matching_spec_wins(self):
        plan = FaultPlan(
            seed=0,
            specs=[
                FaultSpec("s", faults.DROP, at=(1,)),
                FaultSpec("s", faults.ERROR, at=(1, 2)),
            ],
        )
        assert plan.decide("s") is None
        assert plan.decide("s").kind == faults.DROP
        assert plan.decide("s").kind == faults.ERROR

    def test_max_injections_caps_firing(self):
        plan = FaultPlan(
            seed=0,
            specs=[FaultSpec("s", faults.ERROR, probability=1.0, max_injections=2)],
        )
        fired = [plan.decide("s") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_duplicate_specs_count_independently(self):
        spec = FaultSpec("s", faults.ERROR, probability=1.0, max_injections=1)
        plan = FaultPlan(seed=0, specs=[spec, spec])
        fired = [plan.decide("s") is not None for _ in range(3)]
        assert fired == [True, True, False]

    def test_unknown_site_is_noop(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec("s", faults.ERROR, at=(0,))])
        assert plan.decide("elsewhere") is None
        assert plan.invocations("elsewhere") == 0

    def test_latency_carried_only_for_stall_kinds(self):
        plan = FaultPlan(
            seed=0,
            specs=[
                FaultSpec("a", faults.LATENCY, at=(0,), latency_s=0.5),
                FaultSpec("b", faults.ERROR, at=(0,), latency_s=0.5),
            ],
        )
        assert plan.decide("a").latency_s == 0.5
        assert plan.decide("b").latency_s == 0.0


class TestFaultLog:
    def test_export_sorted_by_site_then_index(self):
        plan = FaultPlan(
            seed=0,
            specs=[
                FaultSpec("zz", faults.ERROR, at=(0,)),
                FaultSpec("aa", faults.DROP, at=(1,)),
            ],
        )
        plan.decide("zz")
        plan.decide("aa")
        plan.decide("aa")
        lines = plan.log.export_text().splitlines()
        assert lines == ["aa\t1\tdrop\t0.000000", "zz\t0\terror\t0.000000"]

    def test_counts_and_len(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec("s", faults.ERROR, at=(0, 1))])
        plan.decide("s")
        plan.decide("s")
        plan.decide("s")
        assert plan.log.counts() == {"s": 2}
        assert len(plan.log) == 2

    def test_reset_clears_counters_and_log(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec("s", faults.ERROR, at=(0,))])
        plan.decide("s")
        plan.reset()
        assert len(plan.log) == 0
        assert plan.invocations("s") == 0
        assert plan.decide("s") is not None  # index 0 again


class TestSessionLifecycle:
    def test_disarmed_by_default(self):
        assert faults.active() is None
        assert not faults.armed()
        assert faults.inject("anything") is None

    def test_install_uninstall(self):
        plan = faults.install(FaultPlan(seed=0, specs=[]))
        assert faults.active() is plan
        faults.uninstall()
        assert faults.active() is None

    def test_plan_session_restores_previous(self):
        outer = faults.install(FaultPlan(seed=1, specs=[]))
        with faults.plan_session(FaultPlan(seed=2, specs=[])) as inner:
            assert faults.active() is inner
        assert faults.active() is outer

    def test_inject_consults_installed_plan(self):
        with faults.plan_session(
            FaultPlan(seed=0, specs=[FaultSpec("s", faults.DROP, at=(0,))])
        ):
            assert faults.inject("s").kind == faults.DROP
        assert faults.inject("s") is None


class TestPerform:
    def test_none_passthrough(self):
        assert faults.perform(None) is None

    def test_latency_sleeps_then_clears(self):
        import time

        d = FaultDecision("s", 0, faults.LATENCY, latency_s=0.02)
        start = time.perf_counter()
        assert faults.perform(d) is None
        assert time.perf_counter() - start >= 0.015

    def test_error_raises_transient(self):
        with pytest.raises(faults.TransientServiceError):
            faults.perform(FaultDecision("s", 3, faults.ERROR))

    def test_crash_raises_worker_crash(self):
        with pytest.raises(faults.WorkerCrash):
            faults.perform(FaultDecision("s", 0, faults.CRASH))

    def test_drop_and_corrupt_returned_for_site_handling(self):
        for kind in (faults.DROP, faults.CORRUPT):
            d = FaultDecision("s", 0, kind)
            assert faults.perform(d) is d


class TestTelemetryIntegration:
    def test_decisions_recorded_as_counters_and_trace(self):
        plan = FaultPlan(
            seed=0, specs=[FaultSpec("site.x", faults.CRASH, at=(0, 1))]
        )
        with telemetry.session() as tel:
            plan.decide("site.x")
            plan.decide("site.x")
            plan.decide("site.x")  # index 2: no fault
            counters = tel.registry.counters()
            assert counters["faults.injected.site.x"] == 2
            assert counters["faults.injected.kind.crash"] == 2
            events = tel.trace.events(telemetry.FAULT_INJECT)
            assert len(events) == 2
            assert events[0].label == "site.x:crash"
            assert events[0].detail["invocation"] == 0.0

    def test_fault_events_stamped_from_the_session_clock(self):
        # A plan outlives any one episode, so a fired fault carries the
        # telemetry session's time, not a placeholder 0.0.
        plan = FaultPlan(
            seed=0, specs=[FaultSpec("site.x", faults.LATENCY, at=(0, 1),
                                     latency_s=0.0)]
        )
        with telemetry.session() as tel:
            before = tel.now()
            plan.decide("site.x")
            plan.decide("site.x")
            after = tel.now()
            stamps = [e.t for e in tel.trace.events(telemetry.FAULT_INJECT)]
        assert 0.0 < before <= stamps[0] <= stamps[1] <= after
        tel.reset()
        assert tel.now() < after

    def test_no_telemetry_no_error(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec("s", faults.ERROR, at=(0,))])
        assert plan.decide("s") is not None  # must not blow up untelemetered


class TestEndpointDecorator:
    def test_disarmed_passthrough(self):
        @faults.endpoint("service.thing")
        def thing():
            return 42

        assert thing() == 42

    def test_armed_error_raises_and_counts_in_service_errors(self):
        @telemetry.timed("thing")
        @faults.endpoint("service.thing")
        def thing():
            return 42

        plan = FaultPlan(
            seed=0, specs=[FaultSpec("service.thing", faults.ERROR, at=(0,))]
        )
        with telemetry.session() as tel, faults.plan_session(plan):
            with pytest.raises(faults.TransientServiceError):
                thing()
            assert thing() == 42  # invocation 1: clean
            counters = tel.registry.counters()
            assert counters["service.errors.thing"] == 1
            assert counters["service.requests.thing"] == 2
