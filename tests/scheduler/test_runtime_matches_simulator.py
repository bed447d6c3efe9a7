"""Differential test: the live runtime and the simulator agree on every task.

The runtime runs on a :class:`VirtualClock`, and its model is a stub
whose every stage call advances that clock by 1.0 s and answers from a
:class:`TaskOracle` table.  The same tasks then run
through the discrete-event simulator with one worker, every task admitted
at once and no doomed-stage skipping — the runtime's own rules — so both
drivers see the same clock, the same stage costs and the same policy.

Over a grid of policies x deadlines x anytime on/off, both drivers must
give every task the same outcome (evicted, anytime-served, stage sequence,
predictions) and the same single terminal trace event.

Out of the grid, on purpose:

- **gen-2**: ``replan``'s ``contended`` differs by design — the simulator
  caps only while its ingress queue is non-empty, the runtime on the
  plan's own capacity deficit — so the two may preempt differently;
- **max_batch > 1**: the simulator runs one stage per worker and never
  batches.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.clock import VirtualClock
from repro.scheduler import (
    EDFPolicy,
    FIFOPolicy,
    GPConfidencePredictor,
    PoolSimulator,
    RoundRobinPolicy,
    RTDeepIoTPolicy,
    SimulationConfig,
    TaskOracle,
)
from repro.scheduler.runtime import RuntimeConfig, StagedInferenceRuntime

from .trace_invariants import check_lifecycle

NUM_TASKS, NUM_STAGES, NUM_CLASSES = 14, 3, 10


def make_oracles():
    rng = np.random.default_rng(0)
    oracles = []
    for _ in range(NUM_TASKS):
        confs = np.sort(rng.uniform(0.3, 0.99, size=NUM_STAGES))
        oracles.append(
            TaskOracle(
                confidences=tuple(float(c) for c in confs),
                predictions=tuple(int(p) for p in rng.integers(0, NUM_CLASSES, NUM_STAGES)),
                correct=(True,) * NUM_STAGES,
            )
        )
    return oracles


ORACLES = make_oracles()
PREDICTOR = GPConfidencePredictor(num_classes=NUM_CLASSES, seed=0).fit(
    np.array([o.confidences for o in ORACLES]).T
)
POLICIES = {
    "fifo": FIFOPolicy,
    "edf": EDFPolicy,
    "round-robin": RoundRobinPolicy,
    "rtdeepiot-1": lambda: RTDeepIoTPolicy(PREDICTOR, k=1),
    "rtdeepiot-2": lambda: RTDeepIoTPolicy(PREDICTOR, k=2),
}


class OracleModel:
    """Stands in for a ``StagedResNet``: the stem passes the task id on as
    the feature, and each stage call costs 1.0 virtual second and answers
    with the oracle's prediction at exactly the oracle's confidence."""

    num_stages = NUM_STAGES

    def __init__(self, clock):
        self.clock = clock

    def eval(self):
        return self

    def infer_stem(self, x):
        return x.reshape(len(x), -1)[:, :1]

    def infer_stage(self, feats, stage):
        self.clock.advance(1.0)
        logits = np.empty((len(feats), NUM_CLASSES))
        for row, tid in enumerate(feats[:, 0].astype(int)):
            oracle = ORACLES[tid]
            conf = oracle.confidences[stage]
            probs = np.full(NUM_CLASSES, (1.0 - conf) / (NUM_CLASSES - 1))
            probs[oracle.predictions[stage]] = conf
            logits[row] = np.log(probs)
        return feats, logits


def run_runtime(policy, deadline, anytime):
    clock = VirtualClock()
    runtime = StagedInferenceRuntime(
        OracleModel(clock),
        policy,
        RuntimeConfig(latency_constraint=deadline, anytime=anytime),
        clock=clock,
    )
    runtime.submit(np.arange(NUM_TASKS, dtype=float).reshape(NUM_TASKS, 1, 1, 1))
    with telemetry.session() as tel:
        results = runtime.run_until_complete()
        terminal = check_lifecycle(tel.trace, num_stages=NUM_STAGES)
    return {r.task_id: outcome(r) for r in results}, terminal


def run_simulator(policy, deadline, anytime):
    config = SimulationConfig(
        num_workers=1,
        concurrency=NUM_TASKS,
        stage_times=(1.0,) * NUM_STAGES,
        latency_constraint=deadline,
        skip_doomed_stages=False,
        anytime=anytime,
    )
    with telemetry.session() as tel:
        result = PoolSimulator(ORACLES, policy, config).run()
        terminal = check_lifecycle(tel.trace, num_stages=NUM_STAGES)
    return {r.task_id: outcome(r) for r in result.records}, terminal


def outcome(task):
    return (
        task.evicted,
        task.anytime_served,
        [o.stage for o in task.outcomes],
        [o.prediction for o in task.outcomes],
    )


@pytest.mark.parametrize("anytime", [False, True], ids=["evict", "anytime"])
@pytest.mark.parametrize("deadline", [8.0, 20.0, 100.0])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_runtime_matches_simulator(policy, deadline, anytime):
    live, live_terminal = run_runtime(POLICIES[policy](), deadline, anytime)
    simulated, simulated_terminal = run_simulator(
        POLICIES[policy](), deadline, anytime
    )
    assert sorted(live) == sorted(simulated) == list(range(NUM_TASKS))
    if deadline < NUM_TASKS * NUM_STAGES:
        # The deadline binds: the grid exercises expiry, not only completion.
        assert any(evicted or served for evicted, served, _, _ in live.values())
    for tid in range(NUM_TASKS):
        assert live[tid] == simulated[tid], f"task {tid}"
    # Exactly one terminal event per task, and the same one on both sides.
    assert live_terminal == simulated_terminal
    assert sorted(live_terminal) == list(range(NUM_TASKS))
