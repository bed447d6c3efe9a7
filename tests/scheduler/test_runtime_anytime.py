"""The anytime contract on the live thread-based runtime.

With ``RuntimeConfig.anytime`` a deadline-constrained run never wastes
computed work: a task holding at least one stage result at its deadline is
served best-so-far (``anytime_served``, degraded, stamped at or before the
deadline) instead of being evicted.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.nn.resnet import StagedResNet, StagedResNetConfig
from repro.scheduler.policies import RoundRobinPolicy
from repro.scheduler.runtime import RuntimeConfig, StagedInferenceRuntime
from repro.telemetry.trace import DEGRADED

from .stage_clock import on_virtual_clock
from .trace_invariants import check_lifecycle

#: Virtual seconds per stage batch: 20 stages fit in the 20 ms constraint
#: below, so most of the 96 tasks are still waiting when it expires.
STAGE_COST_S = 0.001


@pytest.fixture(scope="module")
def small_model():
    model = StagedResNet(
        StagedResNetConfig(
            num_classes=5, image_size=16, stage_channels=(8, 16), blocks_per_stage=1
        )
    )
    model.eval()
    model.predict_proba(np.zeros((2, 3, 16, 16)))
    return model


class TestRuntimeAnytime:
    def test_partial_work_is_served_not_evicted(self, small_model):
        # Round-robin breadth-first: many tasks hold exactly
        # one of two stages when the constraint expires.
        inputs = np.random.default_rng(1).normal(size=(96, 3, 16, 16))
        constraint = 0.02
        model, clock = on_virtual_clock(small_model, STAGE_COST_S)
        with telemetry.session() as t:
            runtime = StagedInferenceRuntime(
                model,
                RoundRobinPolicy(),
                RuntimeConfig(latency_constraint=constraint, anytime=True),
                clock=clock,
            )
            runtime.submit(inputs)
            results = runtime.run_until_complete()

            # The workload overruns the constraint by far, so the contract
            # actually fired.
            assert any(r.anytime_served for r in results)
            for r in results:
                # Computed work is never thrown away: eviction only happens
                # with an empty hand.
                if r.evicted:
                    assert r.outcomes == []
                if r.anytime_served:
                    assert r.outcomes, "anytime serving requires a result"
                    assert not r.evicted
                    assert r.degraded
                    assert r.served_stage == r.outcomes[-1].stage
                    # Never late: the response is stamped at the deadline.
                    assert r.elapsed <= constraint + 1e-9
            served = t.trace.events(DEGRADED)
            assert {e.task_id for e in served} >= {
                r.task_id for r in results if r.anytime_served
            }
            terminal = check_lifecycle(t.trace, num_stages=small_model.num_stages)
            assert sorted(terminal) == [r.task_id for r in results]
            counters = t.registry.counters()
            assert counters["runtime.anytime_served"] == sum(
                1 for r in results if r.anytime_served
            )
            # Anytime serves are not deadline misses.
            assert counters["runtime.deadline_misses"] == sum(
                1 for r in results if r.evicted
            )

    def test_anytime_off_preserves_legacy_eviction(self, small_model):
        inputs = np.random.default_rng(2).normal(size=(96, 3, 16, 16))
        model, clock = on_virtual_clock(small_model, STAGE_COST_S)
        runtime = StagedInferenceRuntime(
            model,
            RoundRobinPolicy(),
            RuntimeConfig(latency_constraint=0.02, anytime=False),
            clock=clock,
        )
        runtime.submit(inputs)
        results = runtime.run_until_complete()
        assert any(r.evicted for r in results)
        assert all(not r.anytime_served for r in results)

    def test_comfortable_deadline_untouched(self, small_model):
        inputs = np.random.default_rng(3).normal(size=(4, 3, 16, 16))
        runtime = StagedInferenceRuntime(
            small_model,
            RoundRobinPolicy(),
            RuntimeConfig(latency_constraint=60.0, anytime=True),
        )
        runtime.submit(inputs)
        results = runtime.run_until_complete()
        assert all(r.completed for r in results)
        assert all(not r.anytime_served for r in results)
