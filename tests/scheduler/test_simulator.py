"""Tests for the discrete-event worker-pool simulator."""

import numpy as np
import pytest

from repro.scheduler import (
    FIFOPolicy,
    GPConfidencePredictor,
    PoolSimulator,
    RoundRobinPolicy,
    RTDeepIoTPolicy,
    SimulationConfig,
    TaskOracle,
)
from repro.scheduler.simulator import run_episodes


def simple_oracle(confs=(0.4, 0.6, 0.9), correct=(False, True, True)):
    return TaskOracle(
        confidences=tuple(confs),
        predictions=tuple(1 for _ in confs),
        correct=tuple(correct),
    )


def make_oracles(n, seed=0):
    """Synthetic population with concave confidence curves: each stage closes
    half of the remaining gap to 0.97 (easy samples saturate early, hard ones
    keep gaining — the shape real staged classifiers produce).  Correctness
    is sampled from the (calibrated) confidence."""
    rng = np.random.default_rng(seed)
    oracles = []
    for _ in range(n):
        c1 = rng.uniform(0.12, 0.92)
        c2 = c1 + 0.5 * (0.97 - c1)
        c3 = c2 + 0.5 * (0.97 - c2)
        confs = np.clip([c1, c2, c3], 0.0, 1.0)
        correct = tuple(bool(rng.random() < c) for c in confs)
        oracles.append(
            TaskOracle(
                confidences=tuple(float(c) for c in confs),
                predictions=(0, 0, 0),
                correct=correct,
            )
        )
    return oracles


def fitted_predictor(oracles):
    mat = np.array([o.confidences for o in oracles]).T
    return GPConfidencePredictor(num_classes=10, seed=0).fit(mat)


class TestTaskOracle:
    def test_validation(self):
        with pytest.raises(ValueError):
            TaskOracle(confidences=(0.5,), predictions=(1, 2), correct=(True,))
        with pytest.raises(ValueError):
            TaskOracle(confidences=(), predictions=(), correct=())

    def test_table_from_outputs(self):
        outputs = {
            "confidences": np.array([[0.3, 0.4], [0.6, 0.7]]),
            "predictions": np.array([[1, 2], [1, 3]]),
            "correct": np.array([[True, False], [True, True]]),
        }
        table = TaskOracle.table_from_outputs(outputs)
        assert len(table) == 2
        assert table[0].confidences == (0.3, 0.6)
        assert table[1].predictions == (2, 3)


class TestSimulationConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_workers": 0},
            {"concurrency": 0},
            {"latency_constraint": 0.0},
            {"stage_times": (1.0, -1.0, 1.0)},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)


class TestPoolSimulator:
    def test_plenty_of_capacity_runs_everything(self):
        oracles = [simple_oracle() for _ in range(4)]
        cfg = SimulationConfig(
            num_workers=4, concurrency=4, stage_times=(1, 1, 1), latency_constraint=100.0
        )
        result = PoolSimulator(oracles, FIFOPolicy(), cfg).run()
        assert result.num_fully_completed == 4
        assert result.accuracy == 1.0
        assert (result.stages_executed == 3).all()
        assert result.num_evicted == 0

    def test_tight_deadline_evicts(self):
        oracles = [simple_oracle() for _ in range(4)]
        cfg = SimulationConfig(
            num_workers=1, concurrency=4, stage_times=(1, 1, 1), latency_constraint=3.0
        )
        result = PoolSimulator(oracles, FIFOPolicy(), cfg).run()
        # One worker, 3s deadline: only the first task completes.
        assert result.num_fully_completed == 1
        assert result.num_evicted == 3

    def test_stage_oracle_outcomes_recorded(self):
        oracle = simple_oracle(confs=(0.2, 0.5, 0.8), correct=(False, False, True))
        cfg = SimulationConfig(num_workers=1, concurrency=1,
                               stage_times=(1, 1, 1), latency_constraint=10.0)
        result = PoolSimulator([oracle], FIFOPolicy(), cfg).run()
        record = result.records[0]
        assert [o.confidence for o in record.outcomes] == [0.2, 0.5, 0.8]
        assert record.final_correct is True

    def test_zero_stage_task_counts_wrong(self):
        """With an impossible deadline no stage runs and accuracy is 0."""
        oracle = simple_oracle()
        cfg = SimulationConfig(num_workers=1, concurrency=1,
                               stage_times=(5.0, 5.0, 5.0), latency_constraint=1.0)
        result = PoolSimulator([oracle], FIFOPolicy(), cfg).run()
        assert result.accuracy == 0.0
        assert result.records[0].stages_done == 0

    def test_skip_doomed_stages_saves_capacity(self):
        """When a stage cannot meet its deadline the worker moves on."""
        oracles = [simple_oracle() for _ in range(3)]
        cfg = SimulationConfig(num_workers=1, concurrency=3,
                               stage_times=(1, 1, 1), latency_constraint=2.0)
        result = PoolSimulator(oracles, RoundRobinPolicy(), cfg).run()
        # Deadline of 2 with 1 worker: 2 stage-slots exist before eviction
        # begins freeing slots for newly... all tasks admitted at t=0, so only
        # 2 stages total can run before t=2.
        assert result.stages_executed.sum() == 2

    def test_makespan_and_utilization(self):
        oracles = [simple_oracle() for _ in range(2)]
        cfg = SimulationConfig(num_workers=2, concurrency=2,
                               stage_times=(1, 1, 1), latency_constraint=50.0)
        result = PoolSimulator(oracles, RoundRobinPolicy(), cfg).run()
        assert result.makespan == pytest.approx(3.0)
        assert result.utilization == pytest.approx(1.0)

    def test_mismatched_stage_times_raise(self):
        with pytest.raises(ValueError):
            PoolSimulator(
                [simple_oracle()],
                FIFOPolicy(),
                SimulationConfig(stage_times=(1.0,)),
            )

    def test_empty_oracles_raise(self):
        with pytest.raises(ValueError):
            PoolSimulator([], FIFOPolicy())

    def test_deterministic_given_same_inputs(self):
        oracles = make_oracles(30)
        cfg = SimulationConfig(num_workers=2, concurrency=10,
                               stage_times=(1, 1, 1), latency_constraint=5.0)
        predictor = fitted_predictor(oracles)
        a = PoolSimulator(oracles, RTDeepIoTPolicy(predictor, k=1), cfg).run()
        b = PoolSimulator(oracles, RTDeepIoTPolicy(predictor, k=1), cfg).run()
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(a.stages_executed, b.stages_executed)


class TestSchedulingQuality:
    """The headline behavioural claims of Fig. 4, at test scale."""

    @pytest.fixture(scope="class")
    def setup(self):
        oracles = make_oracles(240, seed=1)
        predictor = fitted_predictor(oracles)
        cfg = SimulationConfig(num_workers=2, concurrency=12,
                               stage_times=(1, 1, 1), latency_constraint=9.0)
        return oracles, predictor, cfg

    def run_policy(self, oracles, cfg, policy_factory):
        results = run_episodes(oracles, policy_factory, cfg,
                               episodes=4, tasks_per_episode=60, seed=7)
        return float(np.mean([r.accuracy for r in results]))

    def test_rtdeepiot_beats_fifo_under_load(self, setup):
        oracles, predictor, cfg = setup
        smart = self.run_policy(oracles, cfg, lambda: RTDeepIoTPolicy(predictor, k=1))
        fifo = self.run_policy(oracles, cfg, lambda: FIFOPolicy())
        assert smart > fifo

    def test_rtdeepiot_beats_round_robin_under_load(self, setup):
        oracles, predictor, cfg = setup
        smart = self.run_policy(oracles, cfg, lambda: RTDeepIoTPolicy(predictor, k=1))
        rr = self.run_policy(oracles, cfg, lambda: RoundRobinPolicy())
        assert smart >= rr

    def test_fairness_lower_stage_variance_than_fifo(self, setup):
        """The greedy policy spreads stages across tasks more evenly than FIFO."""
        oracles, predictor, cfg = setup
        smart = PoolSimulator(oracles[:60], RTDeepIoTPolicy(predictor, k=1), cfg).run()
        fifo = PoolSimulator(oracles[:60], FIFOPolicy(), cfg).run()
        assert smart.stages_executed.std() < fifo.stages_executed.std()
