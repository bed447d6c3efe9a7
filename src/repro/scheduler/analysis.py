"""Scheduler optimality analysis (Sec. III-B's closing claim).

"Under certain conditions (submodular utility curves and equal stage
execution times), the scheduler optimizes global utility of the service."

This module makes that claim checkable:

- :func:`submodularity_violations` — measures how far a population of
  confidence curves is from submodular (diminishing per-stage gains);
- :func:`greedy_utility` / :func:`optimal_offline_utility` — total utility
  (sum of final confidences) achieved by the greedy stage-picking rule vs
  the true optimum found by exhaustive search over stage allocations, for
  small instances with a fixed stage budget and equal stage times;
- :func:`greedy_optimality_gap` — their ratio, which must be 1.0 on
  submodular curves and can drop below 1.0 when curves are non-submodular
  (confidence jumps late), demonstrating both halves of the claim.

The model here is the clean abstraction of the paper's setting: ``B`` stage
executions fit in the schedule (workers x deadline / stage time), stages of
a task must run in order, and the utility of a task is the confidence after
its last executed stage (chance-level baseline if none ran).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def _validate_curves(curves: np.ndarray, baseline: float) -> np.ndarray:
    curves = np.asarray(curves, dtype=np.float64)
    if curves.ndim != 2:
        raise ValueError("curves must be (num_tasks, num_stages)")
    if not 0.0 <= baseline <= 1.0:
        raise ValueError("baseline must be in [0, 1]")
    return curves


def marginal_gains(curves: np.ndarray, baseline: float = 0.1) -> np.ndarray:
    """Per-stage confidence increments, including the baseline->stage-1 step."""
    curves = _validate_curves(curves, baseline)
    padded = np.concatenate(
        [np.full((curves.shape[0], 1), baseline), curves], axis=1
    )
    return np.diff(padded, axis=1)


def submodularity_violations(
    curves: np.ndarray, baseline: float = 0.1, tolerance: float = 1e-9
) -> float:
    """Fraction of tasks whose confidence curve is NOT submodular.

    A curve is submodular (diminishing returns) when its marginal gains are
    non-increasing across stages.
    """
    gains = marginal_gains(curves, baseline)
    increasing = (np.diff(gains, axis=1) > tolerance).any(axis=1)
    return float(increasing.mean())


def _allocation_utility(
    curves: np.ndarray, allocation: Sequence[int], baseline: float
) -> float:
    total = 0.0
    for task, stages in enumerate(allocation):
        total += baseline if stages == 0 else float(curves[task, stages - 1])
    return total


def greedy_allocation(
    curves: np.ndarray, budget: int, baseline: float = 0.1
) -> List[int]:
    """Stages-per-task chosen by the paper's greedy rule with perfect
    confidence prediction: repeatedly run the next stage with the maximum
    differential utility."""
    curves = _validate_curves(curves, baseline)
    if budget < 0:
        raise ValueError("budget must be non-negative")
    num_tasks, num_stages = curves.shape
    allocation = [0] * num_tasks
    current = [baseline] * num_tasks
    for _ in range(min(budget, num_tasks * num_stages)):
        best_gain, best_task = -np.inf, -1
        for task in range(num_tasks):
            if allocation[task] >= num_stages:
                continue
            gain = curves[task, allocation[task]] - current[task]
            if gain > best_gain:
                best_gain, best_task = gain, task
        if best_task < 0:
            break
        current[best_task] = float(curves[best_task, allocation[best_task]])
        allocation[best_task] += 1
    return allocation


def greedy_utility(curves: np.ndarray, budget: int, baseline: float = 0.1) -> float:
    return _allocation_utility(
        _validate_curves(curves, baseline),
        greedy_allocation(curves, budget, baseline),
        baseline,
    )


def optimal_offline_utility(
    curves: np.ndarray, budget: int, baseline: float = 0.1
) -> float:
    """Exact optimum by dynamic programming over (task, remaining budget).

    Feasible because stages of one task are consumed in order: each task
    contributes a choice of 0..num_stages executions.
    """
    curves = _validate_curves(curves, baseline)
    if budget < 0:
        raise ValueError("budget must be non-negative")
    num_tasks, num_stages = curves.shape
    neg = -np.inf
    dp = np.full(budget + 1, neg)
    dp[0] = 0.0
    for task in range(num_tasks):
        new = np.full(budget + 1, neg)
        options = [(0, baseline)] + [
            (s + 1, float(curves[task, s])) for s in range(num_stages)
        ]
        for spent in range(budget + 1):
            if dp[spent] == neg:
                continue
            for cost, value in options:
                if spent + cost <= budget:
                    candidate = dp[spent] + value
                    if candidate > new[spent + cost]:
                        new[spent + cost] = candidate
        dp = new
    return float(dp.max())


def greedy_optimality_gap(
    curves: np.ndarray, budget: int, baseline: float = 0.1
) -> float:
    """greedy utility / optimal utility (1.0 = greedy is optimal)."""
    optimal = optimal_offline_utility(curves, budget, baseline)
    if optimal <= 0:
        return 1.0
    return greedy_utility(curves, budget, baseline) / optimal
