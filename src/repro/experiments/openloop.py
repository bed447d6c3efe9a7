"""Extension experiment: open-loop serving under Poisson and bursty arrivals.

The paper evaluates at fixed concurrency (closed loop).  A deployed Eugene
server faces open-loop traffic, so we sweep the offered arrival rate and
measure service accuracy and eviction rates per policy, for both smooth
(Poisson) and bursty (Markov-modulated) arrivals.  Expected shapes:

- accuracy falls as offered load approaches/exceeds capacity;
- the utility scheduler degrades more gracefully than FIFO;
- at equal average rate, bursty traffic hurts more than smooth traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..admission import AdmissionConfig
from ..scheduler.arrivals import bursty_arrivals, poisson_arrivals
from ..scheduler.confidence import GPConfidencePredictor
from ..scheduler.policies import FIFOPolicy, RoundRobinPolicy, RTDeepIoTPolicy
from ..scheduler.simulator import PoolSimulator, SimulationConfig, TaskOracle
from .common import BenchmarkArtifacts, get_benchmark_artifacts
from .experiment import JSON, SEED, SYNTHETIC_SMOKE, Experiment, failed, flag


@dataclass
class OpenLoopConfig:
    num_workers: int = 2
    latency_constraint: float = 6.0
    num_tasks: int = 150
    #: offered load as a multiple of capacity (workers / 3 stage-times).
    load_factors: Sequence[float] = (0.5, 0.9, 1.3)
    seed: int = 0


def run_openloop(
    artifacts: BenchmarkArtifacts = None, config: OpenLoopConfig = None
) -> Dict[str, List[Dict[str, float]]]:
    """Returns, per policy, one row per (traffic kind, load factor)."""
    artifacts = artifacts or get_benchmark_artifacts()
    config = config or OpenLoopConfig()
    oracles = TaskOracle.table_from_outputs(artifacts.test_outputs)[: config.num_tasks]
    predictor = artifacts.confidence_predictor()
    capacity = config.num_workers / 3.0  # tasks/second at 3 unit stages each

    policies: Dict[str, Callable] = {
        "RTDeepIoT-1": lambda: RTDeepIoTPolicy(predictor, k=1),
        "RR": RoundRobinPolicy,
        "FIFO": FIFOPolicy,
    }
    sim_config = SimulationConfig(
        num_workers=config.num_workers,
        concurrency=10_000,  # open loop: no admission cap
        stage_times=(1.0, 1.0, 1.0),
        latency_constraint=config.latency_constraint,
    )

    results: Dict[str, List[Dict[str, float]]] = {name: [] for name in policies}
    for kind in ("poisson", "bursty"):
        for load in config.load_factors:
            rate = load * capacity
            if kind == "poisson":
                arrivals = poisson_arrivals(config.num_tasks, rate=rate,
                                            seed=config.seed)
            else:
                arrivals = bursty_arrivals(
                    config.num_tasks,
                    quiet_rate=rate / 3.0,
                    burst_rate=rate * 3.0,
                    seed=config.seed,
                )
            for name, factory in policies.items():
                sim = PoolSimulator(oracles, factory(), sim_config,
                                    arrival_times=arrivals)
                episode = sim.run()
                results[name].append(
                    {
                        "traffic": kind,
                        "load_factor": load,
                        "accuracy": episode.accuracy,
                        "eviction_rate": episode.num_evicted / episode.num_tasks,
                        "mean_stages": float(episode.stages_executed.mean()),
                    }
                )
    return results


@dataclass
class OverloadConfig:
    """Parameters of the admission-control overload sweep."""

    num_workers: int = 2
    concurrency: int = 4
    latency_constraint: float = 6.0
    num_tasks: int = 150
    #: offered load as a multiple of capacity; deliberately extends well
    #: past 1.0 — graceful degradation under overload is the point.
    load_factors: Sequence[float] = (0.5, 1.0, 2.0, 3.0)
    #: admission bounds applied by the managed setup.
    max_queue_depth: int = 8
    degrade_queue_depth: int = 4
    degrade_stage_cap: int = 1
    seed: int = 0


def synthetic_overload_inputs(
    num_tasks: int, num_stages: int = 3, seed: int = 0
) -> Tuple[List[TaskOracle], GPConfidencePredictor]:
    """Oracles + fitted predictor without trained artifacts.

    The CI smoke path: overload dynamics depend on arrival statistics and
    the shape of the confidence curves, not on a particular trained model,
    so synthetic monotone curves (confidence rising with stage, correctness
    sampled at the stated confidence) exercise the full admission pipeline
    in seconds.
    """
    rng = np.random.default_rng(seed)
    final = rng.uniform(0.45, 0.98, size=num_tasks)
    confs = np.empty((num_stages, num_tasks))
    for s in range(num_stages):
        frac = (s + 1) / num_stages
        confs[s] = np.clip(
            final * (0.45 + 0.55 * frac) + rng.normal(0.0, 0.02, num_tasks),
            0.05,
            0.995,
        )
    oracles = [
        TaskOracle(
            confidences=tuple(confs[:, i]),
            predictions=tuple(1 for _ in range(num_stages)),
            correct=tuple(
                bool(rng.random() < confs[s, i]) for s in range(num_stages)
            ),
        )
        for i in range(num_tasks)
    ]
    predictor = GPConfidencePredictor(
        num_classes=10, max_fit_points=120, seed=seed
    ).fit(confs)
    return oracles, predictor


def overload_inputs(
    num_tasks: int, seed: int, synthetic: bool, artifacts: BenchmarkArtifacts = None
) -> Tuple[List[TaskOracle], GPConfidencePredictor]:
    """Synthetic oracles (the smoke path) or the benchmark model's."""
    if synthetic:
        return synthetic_overload_inputs(num_tasks, seed=seed)
    artifacts = artifacts or get_benchmark_artifacts()
    oracles = TaskOracle.table_from_outputs(artifacts.test_outputs)[:num_tasks]
    return oracles, artifacts.confidence_predictor()


def run_overload(
    artifacts: BenchmarkArtifacts = None,
    config: OverloadConfig = None,
    synthetic: bool = False,
) -> Dict[str, List[Dict[str, float]]]:
    """Sweep offered load past capacity, with and without admission control.

    Two setups over identical Poisson workloads:

    - ``fifo-baseline`` — FIFO scheduling, no admission control: the
      ingress queue grows without bound and queued tasks expire unserved;
    - ``admission`` — the utility scheduler plus :class:`AdmissionConfig`
      bounds: the queue is capped, the lowest-expected-utility tasks are
      shed at ingress, and tasks admitted into a congested system are
      capped at an early exit (degrade-before-drop).

    Rows report goodput, p99 latency of served tasks, shed/eviction
    fractions, accrued utility, and the peak ingress-queue depth — the
    acceptance metrics of docs/OVERLOAD.md.
    """
    config = config or OverloadConfig()
    oracles, predictor = overload_inputs(
        config.num_tasks, config.seed, synthetic, artifacts
    )
    num_stages = oracles[0].num_stages
    capacity = config.num_workers / float(num_stages)  # tasks/s, unit stages

    admission = AdmissionConfig(
        max_queue_depth=config.max_queue_depth,
        degrade_queue_depth=config.degrade_queue_depth,
        degrade_stage_cap=config.degrade_stage_cap,
    )
    setups: Dict[str, Tuple[Callable, Optional[AdmissionConfig]]] = {
        "fifo-baseline": (FIFOPolicy, None),
        "admission": (lambda: RTDeepIoTPolicy(predictor, k=1), admission),
    }

    results: Dict[str, List[Dict[str, float]]] = {name: [] for name in setups}
    for load in config.load_factors:
        arrivals = poisson_arrivals(
            config.num_tasks, rate=load * capacity, seed=config.seed
        )
        for name, (factory, adm) in setups.items():
            sim_config = SimulationConfig(
                num_workers=config.num_workers,
                concurrency=config.concurrency,
                stage_times=tuple(1.0 for _ in range(num_stages)),
                latency_constraint=config.latency_constraint,
                admission=adm,
            )
            episode = PoolSimulator(
                oracles, factory(), sim_config, arrival_times=arrivals
            ).run()
            results[name].append(
                {
                    "load_factor": load,
                    "goodput": episode.goodput,
                    "p99_latency": episode.served_latency_percentile(99),
                    "shed_fraction": episode.shed_fraction,
                    "eviction_rate": episode.num_evicted / episode.num_tasks,
                    "utility": episode.accrued_utility,
                    "peak_queue_depth": float(episode.peak_queue_depth),
                    "num_served": float(episode.num_served),
                    "num_degraded": float(episode.num_degraded),
                }
            )
    return results


def format_overload(results: Dict[str, List[Dict[str, float]]]) -> str:
    header = (
        f"{'setup':16} {'load':>6} {'goodput':>8} {'p99':>7} {'shed':>6} "
        f"{'evicted':>8} {'utility':>8} {'peakq':>6} {'served':>7} {'degr':>5}"
    )
    lines = [header, "-" * len(header)]
    for name, rows in results.items():
        for r in rows:
            p99 = r["p99_latency"]
            lines.append(
                f"{name:16} {r['load_factor']:>6.2f} {r['goodput']:>8.3f} "
                f"{p99:>7.2f} {100 * r['shed_fraction']:>5.1f}% "
                f"{100 * r['eviction_rate']:>7.1f}% {r['utility']:>8.2f} "
                f"{r['peak_queue_depth']:>6.0f} {r['num_served']:>7.0f} "
                f"{r['num_degraded']:>5.0f}"
            )
    return "\n".join(lines)


def format_openloop(results: Dict[str, List[Dict[str, float]]]) -> str:
    header = f"{'policy':14} {'traffic':>8} {'load':>6} {'accuracy':>9} {'evicted':>8} {'stages':>7}"
    lines = [header, "-" * len(header)]
    for name, policy_rows in results.items():
        for r in policy_rows:
            lines.append(
                f"{name:14} {r['traffic']:>8} {r['load_factor']:>6.2f} "
                f"{100 * r['accuracy']:>8.1f}% {100 * r['eviction_rate']:>7.1f}% "
                f"{r['mean_stages']:>7.2f}"
            )
    return "\n".join(lines)


def check_openloop(results: Dict[str, List[Dict[str, float]]]) -> List[str]:
    def row(policy: str, traffic: str, load: float) -> Dict[str, float]:
        return next(
            r for r in results[policy]
            if r["traffic"] == traffic and r["load_factor"] == load
        )

    checks = {}
    for traffic in ("poisson", "bursty"):
        checks[f"RTDeepIoT-1 beats FIFO accuracy by > 5 points at 1.3x {traffic}"] = (
            row("RTDeepIoT-1", traffic, 1.3)["accuracy"]
            > row("FIFO", traffic, 1.3)["accuracy"] + 0.05
        )
    for policy in results:
        checks[f"{policy}: bursts hurt at least as much as Poisson at 1.3x"] = (
            row(policy, "bursty", 1.3)["accuracy"]
            <= row(policy, "poisson", 1.3)["accuracy"] + 0.02
        )
        for traffic in ("poisson", "bursty"):
            stages = [row(policy, traffic, load)["mean_stages"] for load in (0.5, 0.9, 1.3)]
            checks[f"{policy}: stages per task fall with {traffic} load"] = (
                stages == sorted(stages, reverse=True)
            )
    checks["under 10% evicted at 0.5x Poisson"] = (
        row("RTDeepIoT-1", "poisson", 0.5)["eviction_rate"] < 0.10
    )
    return failed(checks)


OPENLOOP = Experiment(
    name="openloop",
    summary="Extension: accuracy and evictions under Poisson and bursty open-loop load",
    run=lambda args: run_openloop(),
    format=format_openloop,
    check=check_openloop,
    record="openloop_serving",
)


def check_overload(
    results: Dict[str, List[Dict[str, float]]],
    max_queue_depth: int = OverloadConfig.max_queue_depth,
) -> List[str]:
    """Graceful degradation: past 2x capacity, the managed setup accrues at
    least the baseline's utility and keeps its queue bounded."""
    failures = []
    base = {r["load_factor"]: r for r in results["fifo-baseline"]}
    for row in results["admission"]:
        load = row["load_factor"]
        if load < 2.0:
            continue
        if row["utility"] < base[load]["utility"]:
            failures.append(f"utility below baseline at load {load:g}")
        if row["peak_queue_depth"] > max_queue_depth:
            failures.append(f"queue bound exceeded at load {load:g}")
    return failures


OVERLOAD = Experiment(
    name="overload",
    summary="Load swept past capacity: admission control must beat FIFO from 2x on",
    flags=(
        JSON, SYNTHETIC_SMOKE, SEED,
        flag("--tasks", type=int, default=OverloadConfig.num_tasks),
    ),
    run=lambda args: run_overload(
        config=OverloadConfig(seed=args.seed, num_tasks=args.tasks), synthetic=args.smoke
    ),
    format=format_overload,
    check=check_overload,
)
