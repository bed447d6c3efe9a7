"""The million-request workload gate: ``repro workload`` / ``make workload``.

A seeded six-tenant trace (diurnal cycles, MMPP bursts, a correlated
flash crowd over all 11 endpoints) is pushed through the DES
:class:`~repro.workload.WorkloadEngine` and the real admission
controller with weighted-fair tenant quotas (docs/WORKLOAD.md).  The
gate: per-tenant accounting is exact, and the trace reaches 90% of the
target arrival count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Tuple

from ..admission import AdmissionController, TenantQuota
from ..clock import stopwatch
from ..workload import (
    EngineConfig,
    FlashCrowd,
    TenantSpec,
    Trace,
    WorkloadEngine,
    WorkloadReport,
    generate_trace,
)
from .experiment import JSON, SEED, Experiment, flag


def workload_trace(target: int, seed: int) -> Tuple[List[TenantSpec], Trace]:
    """The tenant specs and a trace of about ``target`` arrivals."""
    # Six tenants with distinct shapes; rates sum to 2,200/s, so the
    # duration follows from the target arrival count.
    specs = [
        TenantSpec(
            name=f"tenant-{i:02d}",
            rate_per_s=rate,
            weight=weight,
            diurnal_amplitude=0.2,
            diurnal_period_s=60.0,
            diurnal_phase=2.0 * math.pi * i / 6.0,
            burst_multiplier=1.5 if i % 2 else 1.0,
            burst_fraction=0.05 if i % 2 else 0.0,
            burst_mean_s=5.0,
            flash_group="crowd" if i < 3 else None,
        )
        for i, (rate, weight) in enumerate(
            [(600.0, 3.0), (400.0, 2.0), (400.0, 2.0),
             (300.0, 1.5), (300.0, 1.5), (200.0, 1.0)]
        )
    ]
    duration = target / sum(s.rate_per_s for s in specs)
    trace = generate_trace(
        specs,
        duration_s=duration,
        seed=seed,
        flash_crowds=(
            FlashCrowd(
                group="crowd",
                start_s=0.4 * duration,
                duration_s=0.1 * duration,
                multiplier=1.4,
            ),
        ),
    )
    return specs, trace


@dataclass
class WorkloadRun:
    report: WorkloadReport
    target: int
    wall_s: float


def run_workload(target: int, seed: int = 0) -> WorkloadRun:
    specs, trace = workload_trace(target, seed)
    total_rate = sum(s.rate_per_s for s in specs)
    admission = AdmissionController(
        per_tenant={s.name: TenantQuota(weight=s.weight) for s in specs},
        tenant_capacity_per_s=1.5 * total_rate,
        tenant_capacity_burst=max(1.0, 0.075 * total_rate),
    )
    engine = WorkloadEngine(
        config=EngineConfig(servers=96),
        admission=admission,
        weights={s.name: s.weight for s in specs},
        seed=seed,
    )
    run_time = stopwatch()
    report = engine.run(trace)
    return WorkloadRun(report, target, run_time())


def format_workload(run: WorkloadRun) -> str:
    report, elapsed = run.report, run.wall_s
    rate = report.total_arrivals / elapsed if elapsed else 0.0
    lines = [
        f"workload: {report.total_arrivals:,} arrivals over "
        f"{report.duration_s:.0f}s of trace time -> "
        f"{report.total_admitted:,} admitted, "
        f"{report.total_rejected:,} rejected "
        f"({elapsed:.1f}s wall, {rate:,.0f} req/s through the engine)",
        f"{'tenant':<12} {'arrivals':>9} {'admitted':>9} "
        f"{'rejected':>9} {'borrowed':>9} {'p99':>9} {'goodput':>9}",
    ]
    for name, row in report.tenants.items():
        lines.append(
            f"{name:<12} {row.arrivals:>9,} {row.admitted:>9,} "
            f"{row.rejected:>9,} {row.borrowed:>9,} "
            f"{row.p99_ms:>7.1f}ms {row.goodput_per_s:>7.1f}/s"
        )
    lines.append("accounting: " + ("exact" if report.accounting_exact else "INEXACT"))
    return "\n".join(lines)


def check_workload(run: WorkloadRun) -> List[str]:
    failures = []
    if not run.report.accounting_exact:
        failures.append(f"inexact accounting: {run.report.accounting_detail}")
    if run.report.total_arrivals < 0.9 * run.target:
        failures.append(
            f"trace produced only {run.report.total_arrivals} arrivals "
            f"(target {run.target})"
        )
    return failures


def _workload_json(run: WorkloadRun) -> str:
    return json.dumps({**run.report.as_dict(), "engine_wall_s": run.wall_s}, indent=2)


WORKLOAD = Experiment(
    name="workload",
    summary="A million-request multi-tenant trace through admission, exactly accounted",
    flags=(
        JSON, SEED,
        flag("--smoke", action="store_true", help="~50k requests instead of 1M"),
        flag("--requests", type=int, default=None,
             help="target arrival count (default 1,000,000; smoke 50,000)"),
    ),
    run=lambda args: run_workload(
        args.requests or (50_000 if args.smoke else 1_000_000), seed=args.seed
    ),
    format=format_workload,
    check=check_workload,
    to_json=_workload_json,
)
