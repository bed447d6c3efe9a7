"""Property-based invariants of the worker-pool simulator."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler import (
    FIFOPolicy,
    PoolSimulator,
    RoundRobinPolicy,
    SimulationConfig,
    TaskOracle,
)


def random_oracles(rng, n):
    oracles = []
    for _ in range(n):
        confs = np.sort(rng.uniform(0.1, 1.0, 3))
        oracles.append(
            TaskOracle(
                confidences=tuple(float(c) for c in confs),
                predictions=(0, 1, 2),
                correct=tuple(bool(rng.random() < c) for c in confs),
            )
        )
    return oracles


POLICIES = [FIFOPolicy, RoundRobinPolicy]


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 25),
    workers=st.integers(1, 4),
    concurrency=st.integers(1, 8),
    deadline=st.floats(0.5, 12.0),
    policy_idx=st.integers(0, len(POLICIES) - 1),
)
@settings(max_examples=60, deadline=None)
def test_simulator_invariants(seed, n, workers, concurrency, deadline, policy_idx):
    rng = np.random.default_rng(seed)
    oracles = random_oracles(rng, n)
    config = SimulationConfig(
        num_workers=workers,
        concurrency=concurrency,
        stage_times=(1.0, 1.0, 1.0),
        latency_constraint=deadline,
    )
    result = PoolSimulator(oracles, POLICIES[policy_idx](), config).run()

    # Every submitted task is accounted for exactly once.
    assert result.num_tasks == n
    assert sorted(r.task_id for r in result.records) == list(range(n))

    for record in result.records:
        # Terminal state reached.
        assert record.done
        # Stage outcomes are the consecutive prefix 0..k-1.
        assert [o.stage for o in record.outcomes] == list(range(record.stages_done))
        assert record.stages_done <= 3
        # Nothing finishes before it arrives.
        if record.finish_time is not None:
            assert record.finish_time >= record.arrival_time - 1e-9
            # Evicted tasks leave exactly at their deadline; completed ones
            # never after it (stages that can't fit aren't started).
            assert record.finish_time <= record.deadline + 1e-9

    # Resource accounting: busy time never exceeds workers x makespan, and
    # equals the time of all started stages.
    assert result.busy_time <= result.num_workers * result.makespan + 1e-9
    assert 0.0 <= result.utilization <= 1.0 + 1e-9

    # Work conservation: completed stages cost exactly their stage times.
    executed_time = float(result.stages_executed.sum())  # stage time 1.0 each
    assert result.busy_time >= executed_time - 1e-9

    # Accuracy is a proper frequency.
    assert 0.0 <= result.accuracy <= 1.0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_generous_deadline_completes_everything(seed):
    rng = np.random.default_rng(seed)
    oracles = random_oracles(rng, 8)
    config = SimulationConfig(
        num_workers=2, concurrency=8, stage_times=(1.0, 1.0, 1.0),
        latency_constraint=1000.0,
    )
    result = PoolSimulator(oracles, RoundRobinPolicy(), config).run()
    assert result.num_fully_completed == 8
    assert result.num_evicted == 0
    # Final answers equal each oracle's last stage.
    for record, oracle in zip(result.records, oracles):
        assert record.latest_confidence == oracle.confidences[-1]
