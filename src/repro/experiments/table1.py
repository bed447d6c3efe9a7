"""E1 — Table I: conv-layer execution time vs FLOPs non-linearity."""

from __future__ import annotations

from typing import Dict, List

from ..profiling.cost_model import (
    MobileDeviceCostModel,
    TABLE1_CONFIGS,
    TABLE1_TIMES_MS,
)
from ..profiling.profiler import PiecewiseLinearProfiler, generate_profiling_samples
from .experiment import Experiment, failed


def run_table1() -> List[Dict[str, float]]:
    """Reproduce Table I on the synthetic device, with profiler predictions.

    Returns one row per CNN1..CNN4 with the paper's published time, our cost
    model's time, and the learned profiler's prediction.
    """
    device = MobileDeviceCostModel()
    profiler = PiecewiseLinearProfiler().fit(
        generate_profiling_samples(MobileDeviceCostModel(noise=0.02, seed=1), 400, seed=0)
    )
    rows = []
    for name, spec in TABLE1_CONFIGS.items():
        rows.append(
            {
                "layer": name,
                "in_channels": spec.in_channels,
                "out_channels": spec.out_channels,
                "flops_m": spec.flops / 1e6,
                "paper_time_ms": TABLE1_TIMES_MS[name],
                "model_time_ms": device.execution_time_ms(spec),
                "profiler_time_ms": profiler.predict_one(spec),
            }
        )
    return rows


def format_table1(rows: List[Dict[str, float]]) -> str:
    header = (
        f"{'layer':6} {'in':>4} {'out':>4} {'FLOPs (M)':>10} "
        f"{'paper (ms)':>11} {'model (ms)':>11} {'profiler (ms)':>14}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['layer']:6} {r['in_channels']:>4} {r['out_channels']:>4} "
            f"{r['flops_m']:>10.1f} {r['paper_time_ms']:>11.1f} "
            f"{r['model_time_ms']:>11.1f} {r['profiler_time_ms']:>14.1f}"
        )
    return "\n".join(lines)


def check_table1(rows: List[Dict[str, float]]) -> List[str]:
    by = {r["layer"]: r for r in rows}
    checks = {
        # Anomaly 1: identical FLOPs, very different time.
        "CNN1 and CNN2 have equal FLOPs": by["CNN1"]["flops_m"] == by["CNN2"]["flops_m"],
        "CNN2 takes over 2x CNN1's time":
            by["CNN2"]["model_time_ms"] > 2 * by["CNN1"]["model_time_ms"],
        # Anomaly 2: more FLOPs yet faster.
        "CNN4 has more FLOPs than CNN3": by["CNN4"]["flops_m"] > by["CNN3"]["flops_m"],
        "CNN4 runs faster than CNN3":
            by["CNN4"]["model_time_ms"] < by["CNN3"]["model_time_ms"],
        # The learned profiler reproduces both orderings.
        "profiler ranks CNN2 slower than CNN1":
            by["CNN2"]["profiler_time_ms"] > by["CNN1"]["profiler_time_ms"],
        "profiler ranks CNN4 faster than CNN3":
            by["CNN4"]["profiler_time_ms"] < by["CNN3"]["profiler_time_ms"],
    }
    for r in rows:
        checks[f"{r['layer']} time within 15% of the paper's"] = (
            abs(r["model_time_ms"] - r["paper_time_ms"]) <= 0.15 * r["paper_time_ms"]
        )
    return failed(checks)


TABLE1 = Experiment(
    name="table1",
    summary="E1 Table I: conv execution time vs FLOPs, device model and profiler",
    run=lambda args: run_table1(),
    format=format_table1,
    check=check_table1,
    record="table1_profiling",
)
