"""RTDeepIoT — the utility-maximizing scheduler of Section III.

This package is the paper's core contribution: a user-space scheduler that
decides, per inference task, how many stages of a staged deep network to
execute so total service utility (predicted confidence gain) is maximized.

Components
----------
- :mod:`repro.scheduler.task` — tasks, stage outcomes, scheduling views
- :mod:`repro.scheduler.confidence` — dynamic confidence-curve predictors
  (GP-based, Sec. III-B) and the constant-slope DC variant
- :mod:`repro.scheduler.policies` — RTDeepIoT-k greedy, RR and FIFO baselines
- :mod:`repro.scheduler.simulator` — deterministic discrete-event worker-pool
  simulator used by the Fig. 4 experiments
- :mod:`repro.scheduler.runtime` — real-time executor whose one scheduler
  loop runs the stage batches and enforces the latency constraint (the
  paper's process pool is the process-replica tier, :mod:`repro.cluster`)
- :mod:`repro.scheduler.gen2` — the gen-2 imprecise-computation scheduler:
  joint per-task stage budgets by marginal utility per cost, preemption of
  optional stages via tightening-only caps, and the anytime contract
  (best-so-far at the deadline, never late) — see docs/SCHEDULER.md
"""

from .arrivals import bursty_arrivals, constant_arrivals, poisson_arrivals
from .analysis import (
    greedy_allocation,
    greedy_optimality_gap,
    greedy_utility,
    marginal_gains,
    optimal_offline_utility,
    submodularity_violations,
)
from .confidence import (
    ConfidencePredictor,
    ConstantSlopePredictor,
    GPConfidencePredictor,
)
from .gen2 import (
    BudgetPlan,
    Gen2Policy,
    StageBid,
    StageBudgetPlanner,
    apply_stage_budgets,
)
from .policies import (
    EDFPolicy,
    FIFOPolicy,
    RoundRobinPolicy,
    RTDeepIoTPolicy,
    SchedulingPolicy,
)
from .simulator import EpisodeResult, PoolSimulator, SimulationConfig, TaskOracle
from .task import StageOutcome, TaskRecord, TaskView
from .runtime import RuntimeConfig, StagedInferenceRuntime, RuntimeTaskResult
from .service_classes import (
    BATCH,
    INTERACTIVE,
    ClassAwareRTDeepIoTPolicy,
    ClassBill,
    PricingModel,
    ServiceClass,
    assign_classes,
)

__all__ = [
    "ConfidencePredictor",
    "GPConfidencePredictor",
    "ConstantSlopePredictor",
    "SchedulingPolicy",
    "RTDeepIoTPolicy",
    "RoundRobinPolicy",
    "FIFOPolicy",
    "EDFPolicy",
    "Gen2Policy",
    "StageBudgetPlanner",
    "StageBid",
    "BudgetPlan",
    "apply_stage_budgets",
    "PoolSimulator",
    "SimulationConfig",
    "EpisodeResult",
    "TaskOracle",
    "StageOutcome",
    "TaskRecord",
    "TaskView",
    "StagedInferenceRuntime",
    "RuntimeConfig",
    "RuntimeTaskResult",
    "ServiceClass",
    "ClassAwareRTDeepIoTPolicy",
    "PricingModel",
    "ClassBill",
    "assign_classes",
    "INTERACTIVE",
    "BATCH",
    "marginal_gains",
    "submodularity_violations",
    "greedy_allocation",
    "greedy_utility",
    "optimal_offline_utility",
    "greedy_optimality_gap",
    "constant_arrivals",
    "poisson_arrivals",
    "bursty_arrivals",
]
