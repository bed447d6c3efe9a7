"""Extension experiments: the paper's future-work items, quantified.

- :func:`run_service_classes` — Sec. V: class-aware scheduling vs the
  class-blind scheduler on a mixed interactive/batch workload, with the
  pricing model's per-class revenue;
- :func:`run_partitioning` — Sec. IV-A: client/server partitioning of the
  benchmark staged model across a bandwidth sweep, with early exits from
  the model's real confidence curves.
"""

from __future__ import annotations

from typing import Dict, List


from ..collaborative.partitioning import (
    LinkSpec,
    PartitionPlanner,
    exit_probabilities,
)
from ..profiling.cost_model import MobileDeviceCostModel
from ..profiling.stage_costs import stage_execution_times
from ..scheduler.policies import RTDeepIoTPolicy
from ..scheduler.service_classes import (
    BATCH,
    INTERACTIVE,
    ClassAwareRTDeepIoTPolicy,
    PricingModel,
    assign_classes,
)
from ..scheduler.simulator import PoolSimulator, SimulationConfig, TaskOracle
from .common import BenchmarkArtifacts, get_benchmark_artifacts
from .experiment import Experiment, failed


def run_service_classes(
    artifacts: BenchmarkArtifacts = None,
    num_tasks: int = 120,
    interactive_fraction: float = 0.5,
    seed: int = 0,
) -> Dict[str, Dict]:
    """Compare class-aware vs class-blind scheduling on a mixed workload."""
    artifacts = artifacts or get_benchmark_artifacts()
    oracles = TaskOracle.table_from_outputs(artifacts.test_outputs)[:num_tasks]
    predictor = artifacts.confidence_predictor()
    class_list = assign_classes(
        len(oracles), [INTERACTIVE, BATCH],
        [interactive_fraction, 1 - interactive_fraction], seed=seed,
    )
    class_map = {i: c for i, c in enumerate(class_list)}
    constraints = [c.latency_constraint for c in class_list]
    config = SimulationConfig(
        num_workers=2, concurrency=14, stage_times=(1.0, 1.0, 1.0),
        latency_constraint=BATCH.latency_constraint,
    )
    pricing = PricingModel(class_map)

    def evaluate(policy) -> Dict:
        sim = PoolSimulator(oracles, policy, config,
                            task_latency_constraints=constraints)
        result = sim.run()
        interactive_served = sum(
            1 for r in result.records
            if class_map[r.task_id] is INTERACTIVE and r.stages_done > 0
        )
        interactive_total = sum(1 for c in class_list if c is INTERACTIVE)
        bills = pricing.bill(result.records)
        return {
            "accuracy": result.accuracy,
            "interactive_service_rate": interactive_served / max(interactive_total, 1),
            "revenue": sum(b.revenue for b in bills.values()),
            "bills": {name: vars(b) for name, b in bills.items()},
        }

    return {
        "class-aware": evaluate(
            ClassAwareRTDeepIoTPolicy(predictor, class_map, k=1, urgency=2.0)
        ),
        "class-blind": evaluate(RTDeepIoTPolicy(predictor, k=1)),
    }


def format_service_classes(result: Dict[str, Dict]) -> str:
    lines = []
    for name, row in result.items():
        lines.append(
            f"{name:12} accuracy={row['accuracy']:.3f} "
            f"interactive-served={row['interactive_service_rate']:.3f} "
            f"revenue={row['revenue']:.0f}"
        )
        for cls, bill in row["bills"].items():
            lines.append(f"    {cls:12} {bill}")
    return "\n".join(lines)


def check_service_classes(result: Dict[str, Dict]) -> List[str]:
    aware, blind = result["class-aware"], result["class-blind"]
    return failed({
        "class-aware serves at least as many interactive tasks in time":
            aware["interactive_service_rate"] >= blind["interactive_service_rate"],
        "class-aware accuracy within 10 points of class-blind":
            aware["accuracy"] > blind["accuracy"] - 0.1,
    })


SERVICE_CLASSES = Experiment(
    name="service-classes",
    summary="Sec. V: class-aware vs class-blind scheduling, with per-class bills",
    run=lambda args: run_service_classes(),
    format=format_service_classes,
    check=check_service_classes,
    record="service_classes",
)


def run_partitioning(
    artifacts: BenchmarkArtifacts = None,
    bandwidths_kbps: tuple = (50.0, 500.0, 5000.0, 50000.0),
    confidence_threshold: float = 0.85,
    client_slowdown: float = 8.0,
) -> List[Dict[str, float]]:
    """Optimal cut point of the benchmark staged model vs uplink bandwidth.

    The client is ``client_slowdown`` x slower than the server per stage;
    early-exit probabilities come from the calibrated model's test-set
    confidence curves.
    """
    artifacts = artifacts or get_benchmark_artifacts()
    device = MobileDeviceCostModel()
    server_costs = [t / 1000.0 for t in stage_execution_times(artifacts.model, device)]
    client_costs = [t * client_slowdown for t in server_costs]
    # Feature-map bytes at each stage boundary (float32), from the model
    # config: channels x spatial^2 after each stage's downsampling.
    cfg = artifacts.model.config
    size = cfg.image_size
    boundary_bytes = []
    for stage_idx, channels in enumerate(cfg.stage_channels):
        if stage_idx > 0:
            size //= 2
        boundary_bytes.append(4.0 * channels * size * size)
    input_bytes = 4.0 * cfg.in_channels * cfg.image_size**2

    exits = exit_probabilities(
        artifacts.test_outputs["confidences"], confidence_threshold
    )
    rows = []
    for kbps in bandwidths_kbps:
        link = LinkSpec(bandwidth_bytes_per_s=kbps * 125.0, rtt_s=0.02)
        planner = PartitionPlanner(
            client_stage_costs_s=client_costs,
            server_stage_costs_s=server_costs,
            boundary_feature_bytes=boundary_bytes,
            input_bytes=input_bytes,
            link=link,
            exit_probs=exits,
        )
        plan = planner.plan()
        rows.append(
            {
                "bandwidth_kbps": kbps,
                "cut": plan.cut,
                "expected_latency_ms": plan.expected_latency_s * 1000.0,
                "offload_probability": plan.offload_probability,
            }
        )
    return rows


def format_partitioning(rows: List[Dict[str, float]]) -> str:
    header = f"{'bandwidth (kbps)':>17} {'cut':>4} {'E[latency] ms':>14} {'P(offload)':>11}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['bandwidth_kbps']:>17.0f} {r['cut']:>4} "
            f"{r['expected_latency_ms']:>14.1f} {r['offload_probability']:>11.2f}"
        )
    return "\n".join(lines)


def check_partitioning(rows: List[Dict[str, float]]) -> List[str]:
    latencies = [r["expected_latency_ms"] for r in rows]
    return failed({
        "more bandwidth never raises expected latency":
            latencies == sorted(latencies, reverse=True),
        # Starved uplinks push work toward the client, fat pipes toward
        # the server.
        "the cut moves toward the server as bandwidth grows":
            rows[0]["cut"] >= rows[-1]["cut"],
    })


PARTITIONING = Experiment(
    name="partitioning",
    summary="Sec. IV-A: client/server cut point of the staged model vs bandwidth",
    run=lambda args: run_partitioning(),
    format=format_partitioning,
    check=check_partitioning,
    record="partitioning",
)
