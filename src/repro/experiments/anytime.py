"""Gen-2 anytime-serving benchmark: the `make anytime` gate.

Compares the gen-2 imprecise-computation scheduler (joint stage budgets +
optional-stage preemption + the anytime contract, :mod:`repro.scheduler.gen2`)
against the **current** generation-1 policies exactly as they serve today —
EDF and the RTDeepIoT-1 utility greedy, where a task that misses its deadline
is evicted and delivers nothing.  Identical Poisson workloads at 2-3x the
pool's capacity; the gate (:func:`check_anytime`) demands, at every overload
point:

- gen-2 accrues strictly more utility than both gen-1 policies;
- gen-2 serves **zero** responses after their deadline (the anytime
  contract: best-so-far *at* the deadline, never late);
- every gen-2 response carries at least the mandatory prefix
  (``served_stage`` >= 1 executed stage).

The mechanism, not a tuning artifact: under overload the gen-1 policies hold
admission slots until the eviction daemon fires and then deliver nothing for
the worker time already spent, while gen-2 caps refinement under contention,
turns slots over at worker speed, and converts every executed mandatory
prefix into a served (possibly degraded) response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..scheduler.arrivals import poisson_arrivals
from ..scheduler.confidence import GPConfidencePredictor
from ..scheduler.gen2 import Gen2Policy
from ..scheduler.policies import EDFPolicy, RTDeepIoTPolicy
from ..scheduler.simulator import PoolSimulator, SimulationConfig
from .common import BenchmarkArtifacts
from .experiment import JSON, SEED, SYNTHETIC_SMOKE, Experiment, flag
from .openloop import overload_inputs


@dataclass
class AnytimeConfig:
    """Workload shape for the anytime gate (mirrors the overload sweep)."""

    num_tasks: int = 120
    num_workers: int = 2
    #: admission-slot bound — how many tasks may hold a TaskRecord at once.
    concurrency: int = 8
    latency_constraint: float = 6.0
    #: offered load as a multiple of capacity; the gate applies to every
    #: point at or past 2x.
    load_factors: Sequence[float] = (2.0, 3.0)
    seed: int = 0


def _policy_setups(
    predictor: GPConfidencePredictor, config: AnytimeConfig
) -> Dict[str, Tuple[Callable, bool]]:
    """name -> (policy factory, anytime contract on?).

    The gen-1 baselines run under their existing contract (deadline miss =
    eviction, nothing served); gen-2 is the whole system under test —
    planner, preemption *and* the anytime contract together.
    """
    return {
        "EDF": (EDFPolicy, False),
        "utility": (lambda: RTDeepIoTPolicy(predictor, k=1), False),
        "gen2": (
            lambda: Gen2Policy(
                predictor=predictor,
                num_workers=config.num_workers,
                stage_time_s=1.0,
            ),
            True,
        ),
    }


def run_anytime(
    artifacts: BenchmarkArtifacts = None,
    config: AnytimeConfig = None,
    synthetic: bool = False,
) -> Dict[str, List[Dict[str, float]]]:
    """Returns, per setup, one row of serving metrics per load factor."""
    config = config or AnytimeConfig()
    oracles, predictor = overload_inputs(
        config.num_tasks, config.seed, synthetic, artifacts
    )
    num_stages = oracles[0].num_stages
    capacity = config.num_workers / float(num_stages)  # tasks/s, unit stages

    setups = _policy_setups(predictor, config)
    results: Dict[str, List[Dict[str, float]]] = {name: [] for name in setups}
    for load in config.load_factors:
        arrivals = poisson_arrivals(
            config.num_tasks, rate=load * capacity, seed=config.seed
        )
        for name, (factory, anytime) in setups.items():
            sim_config = SimulationConfig(
                num_workers=config.num_workers,
                concurrency=config.concurrency,
                stage_times=tuple(1.0 for _ in range(num_stages)),
                latency_constraint=config.latency_constraint,
                anytime=anytime,
            )
            episode = PoolSimulator(
                oracles, factory(), sim_config, arrival_times=arrivals
            ).run()
            served = [
                r
                for r in episode.records
                if r.outcomes and not r.evicted and not r.shed
            ]
            min_stage = min((r.stages_done for r in served), default=0)
            results[name].append(
                {
                    "load_factor": load,
                    "utility": episode.accrued_utility,
                    "num_served": float(episode.num_served),
                    "num_late": float(episode.num_late),
                    "num_anytime": float(episode.num_anytime_served),
                    "num_evicted": float(episode.num_evicted),
                    "mean_served_stage": episode.mean_served_stage,
                    "min_served_stages": float(min_stage),
                    "p99_latency": episode.served_latency_percentile(99),
                }
            )
    return results


def format_anytime(results: Dict[str, List[Dict[str, float]]]) -> str:
    header = (
        f"{'setup':10} {'load':>6} {'utility':>8} {'served':>7} {'late':>5} "
        f"{'anytime':>8} {'evicted':>8} {'mstage':>7} {'p99':>7}"
    )
    lines = [header, "-" * len(header)]
    for name, rows in results.items():
        for row in rows:
            p99 = row["p99_latency"]
            lines.append(
                f"{name:10} {row['load_factor']:>6.1f} {row['utility']:>8.2f} "
                f"{row['num_served']:>7.0f} {row['num_late']:>5.0f} "
                f"{row['num_anytime']:>8.0f} {row['num_evicted']:>8.0f} "
                f"{row['mean_served_stage']:>7.2f} "
                f"{p99 if np.isfinite(p99) else float('nan'):>7.2f}"
            )
    return "\n".join(lines)


def check_anytime(
    results: Dict[str, List[Dict[str, float]]]
) -> List[str]:
    """The `make anytime` acceptance gate; returns human-readable failures."""
    failures: List[str] = []
    by_load = {
        name: {row["load_factor"]: row for row in rows}
        for name, rows in results.items()
    }
    for load, gen2 in by_load["gen2"].items():
        if load < 2.0:
            continue
        for baseline in ("EDF", "utility"):
            other = by_load[baseline][load]
            if not gen2["utility"] > other["utility"]:
                failures.append(
                    f"gen2 utility {gen2['utility']:.2f} does not beat "
                    f"{baseline} {other['utility']:.2f} at load {load:g}"
                )
        if gen2["num_late"] != 0:
            failures.append(
                f"{gen2['num_late']:.0f} late responses at load {load:g} "
                "(anytime contract violated)"
            )
        if gen2["num_served"] and gen2["min_served_stages"] < 1:
            failures.append(
                f"a response with no executed mandatory prefix at load {load:g}"
            )
    return failures


ANYTIME = Experiment(
    name="anytime",
    summary="Gen-2 must beat EDF and utility at 2-3x overload with zero late responses",
    flags=(
        JSON, SYNTHETIC_SMOKE, SEED,
        flag("--tasks", type=int, default=AnytimeConfig.num_tasks),
    ),
    run=lambda args: run_anytime(
        config=AnytimeConfig(seed=args.seed, num_tasks=args.tasks), synthetic=args.smoke
    ),
    format=format_anytime,
    check=check_anytime,
)
