"""Command-line driver: regenerate any of the paper's tables/figures.

Usage::

    python -m repro.cli list
    python -m repro.cli table1
    python -m repro.cli table2 table3 fig2
    python -m repro.cli all
    python -m repro.cli metrics [--json] [--events]
    python -m repro.cli chaos [--json] [--seed N]
    python -m repro.cli overload [--json] [--smoke] [--seed N]
    python -m repro.cli cluster [--json] [--seed N] [--requests N]
    python -m repro.cli autoscale [--json] [--smoke] [--seed N]
    python -m repro.cli workload [--json] [--smoke] [--seed N] [--requests N]
    python -m repro.cli isolation [--json] [--smoke] [--seed N]

The first run of the model-backed experiments trains the benchmark model
(~4 minutes) and caches it under ``.bench_cache/``.

``metrics`` is not an experiment: it runs a small scripted serving
workload (train → profile → classify → infer, including one
deadline-constrained episode) with :mod:`repro.telemetry` enabled and
prints the telemetry export — per-stage latency p50/p95/p99, batch
occupancy, deadline misses, per-endpoint request counts and the scheduler
trace tally.

``chaos`` drives the same serving stack under a seeded
:class:`repro.faults.FaultPlan` (stage latency spikes, corrupt stage
results, transient stage and endpoint errors) and prints the fault log,
the recovery counters (retries, re-run batches, degraded responses) and
the invariant checks the chaos test suite asserts.  The same seed
always produces the same fault sequence.

``overload`` runs the open-loop overload sweep (docs/OVERLOAD.md):
offered load swept past capacity, a FIFO/no-admission baseline against
the utility scheduler under :class:`repro.admission.AdmissionConfig`
bounds; exits non-zero if graceful degradation fails (utility below the
baseline or queue bound exceeded past 2x capacity).  ``--smoke`` swaps
the trained benchmark artifacts for synthetic oracles so CI can run the
sweep in seconds.

``cluster`` runs the replicated-serving scaling sweep (docs/CLUSTER.md):
the same closed-loop classify workload against 1/2/4 router-fronted
replicas, then a kill-one-replica failover episode at the largest
cluster; exits non-zero unless N=4 throughput reaches 2.5x N=1 and the
kill episode loses zero requests while keeping >= 80%% of the no-kill
episode's utility.

``autoscale`` runs the elastic-serving gate (docs/CLUSTER.md): the same
seeded diurnal + flash-crowd trace against static-small, static-large
and an autoscaled fleet; exits non-zero unless autoscaling reaches >=
95%% of static-large goodput at <= 70%% of its replica-seconds, strictly
beats static-small goodput, and loses zero requests — including a
drain episode whose victim is SIGKILLed mid-drain.  ``--smoke`` shortens
the trace and keeps the chaos episode on the thread backend for CI.

``workload`` pushes a million-request seeded multi-tenant trace (diurnal
cycles, MMPP bursts, a correlated flash crowd over all 11 endpoints)
through the DES workload engine and the real admission controller with
weighted-fair tenant quotas (docs/WORKLOAD.md); exits non-zero unless
per-tenant accounting is exact.

``isolation`` runs the tenant-isolation gate (docs/WORKLOAD.md): >= 1M
DES requests plus >= 100k replayed against a real cluster, per-tenant
accounting exact everywhere; exits non-zero unless an abuser at 10x its
quota leaves every compliant tenant's p99 within 1.25x and goodput
within 5%% of running alone — and unless the same contention *without*
quotas demonstrably violates those bounds (the non-vacuity check).
``--smoke`` scales the volume floors down for CI.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict


def _table1() -> str:
    from .experiments.table1 import format_table1, run_table1

    return format_table1(run_table1())


def _fig2() -> str:
    from .experiments.fig2 import format_fig2, run_fig2

    return format_fig2(run_fig2())


def _table2() -> str:
    from .experiments.table2 import format_table2, run_table2

    return format_table2(run_table2())


def _table3() -> str:
    from .experiments.table3 import format_table3, run_table3

    return format_table3(run_table3())


def _fig4() -> str:
    from .experiments.fig4 import format_fig4, run_fig4

    return format_fig4(run_fig4())


def _table4() -> str:
    from .experiments.table4 import format_table4, run_table4

    return format_table4(run_table4())


def _resilience() -> str:
    from .experiments.ablations import run_resilience

    result = run_resilience()
    return "\n".join(f"{k:24} {v:.3f}" for k, v in result.items())


def _service_classes() -> str:
    from .experiments.extensions import run_service_classes

    result = run_service_classes()
    lines = []
    for name, row in result.items():
        lines.append(
            f"{name:12} accuracy={row['accuracy']:.3f} "
            f"interactive-served={row['interactive_service_rate']:.3f} "
            f"revenue={row['revenue']:.0f}"
        )
    return "\n".join(lines)


def _partitioning() -> str:
    from .experiments.extensions import run_partitioning

    rows = run_partitioning()
    lines = [f"{'kbps':>8} {'cut':>4} {'E[latency] ms':>14} {'P(offload)':>11}"]
    for r in rows:
        lines.append(
            f"{r['bandwidth_kbps']:>8.0f} {r['cut']:>4} "
            f"{r['expected_latency_ms']:>14.1f} {r['offload_probability']:>11.2f}"
        )
    return "\n".join(lines)


def run_metrics_workload(seed: int = 0):
    """Scripted serving workload under an enabled telemetry session.

    Returns the :class:`repro.telemetry.Telemetry` session after training a
    tiny staged model and serving it through every hot endpoint: profile,
    micro-batched classify, a comfortably-deadlined batched infer, and a
    deliberately tight-deadlined infer so deadline-miss accounting shows up.
    The caller owns the session (``telemetry.disable()`` when done).
    """
    import numpy as np

    from . import telemetry
    from .datasets import SyntheticImageConfig, make_image_dataset
    from .nn.resnet import StagedResNetConfig
    from .service import (
        ClassifyRequest,
        EugeneService,
        InferRequest,
        ProfileRequest,
        TrainRequest,
    )

    session = telemetry.enable()
    data = make_image_dataset(
        240, SyntheticImageConfig(num_classes=4, image_size=8, seed=3), seed=seed
    )
    service = EugeneService(seed=seed)
    trained = service.train(
        TrainRequest(
            inputs=data.inputs,
            labels=data.labels,
            model_config=StagedResNetConfig(
                num_classes=4, image_size=8, stage_channels=(4, 8),
                blocks_per_stage=1, seed=seed,
            ),
            epochs=3,
            name="metrics-demo",
        )
    )
    service.profile(ProfileRequest(model_id=trained.model_id))
    service.classify(
        ClassifyRequest(
            model_id=trained.model_id, inputs=data.inputs[:32], micro_batch=8
        )
    )
    service.infer(
        InferRequest(
            model_id=trained.model_id,
            inputs=data.inputs[:12],
            latency_constraint_s=30.0,
            max_batch=4,
        )
    )
    # A deadline nobody can meet for 12 tasks: exercises the scheduler
    # loop's expiry sweep (evict, never dispatch).
    service.infer(
        InferRequest(
            model_id=trained.model_id,
            inputs=data.inputs[:12],
            latency_constraint_s=0.004,
        )
    )
    return session


def _metrics_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="Run a scripted serving workload and print its telemetry.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument(
        "--events", action="store_true", help="include raw trace events (JSON only)"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from . import telemetry

    try:
        session = run_metrics_workload(seed=args.seed)
        if args.json:
            print(telemetry.to_json(session, trace_events=args.events))
        else:
            print(telemetry.render_text(session))
    finally:
        telemetry.disable()
    return 0


def run_chaos_workload(seed: int = 0, episodes: int = 4):
    """Scripted chaos workload: serving traffic under a seeded fault plan.

    Trains a tiny staged model, arms a :class:`repro.faults.FaultPlan`
    derived from ``seed`` (latency, corrupt results and transient errors
    at the runtime stage site, transient errors at the service and
    client infer/classify sites), then drives ``episodes`` rounds of
    client→service→runtime traffic.  Every failure surfaced to the caller
    must be one of the typed resilience errors — anything else is an
    invariant violation.

    Returns ``(session, plan, report)``: the telemetry session, the armed
    plan (with its fault log), and a summary dict of workload outcomes.
    The caller owns the session (``telemetry.disable()`` when done).
    """
    from . import faults, telemetry
    from .datasets import SyntheticImageConfig, make_image_dataset
    from .nn.resnet import StagedResNetConfig
    from .service import EugeneService
    from .service.client import EugeneClient

    session = telemetry.enable()
    data = make_image_dataset(
        120, SyntheticImageConfig(num_classes=3, image_size=8, seed=3), seed=seed
    )
    service = EugeneService(seed=seed)
    client = EugeneClient(
        service,
        retry_policy=faults.RetryPolicy(
            max_attempts=4, base_delay_s=0.002, timeout_s=30.0
        ),
    )
    trained = client.train(
        data.inputs,
        data.labels,
        model_config=StagedResNetConfig(
            num_classes=3, image_size=8, stage_channels=(4, 8),
            blocks_per_stage=1, seed=seed,
        ),
        epochs=2,
        name="chaos-demo",
    )
    plan = faults.FaultPlan(
        seed=seed,
        specs=[
            faults.FaultSpec("runtime.stage", faults.CORRUPT, probability=0.05),
            faults.FaultSpec("runtime.stage", faults.ERROR, probability=0.1),
            faults.FaultSpec(
                "runtime.stage", faults.LATENCY, probability=0.15, latency_s=0.003
            ),
            faults.FaultSpec("service.infer", faults.ERROR, probability=0.25),
            faults.FaultSpec("client.classify", faults.ERROR, probability=0.25),
        ],
    )
    report = {
        "episodes": episodes,
        "served": 0,
        "degraded": 0,
        "evicted": 0,
        "typed_failures": 0,
        "invariant_violations": 0,
    }
    with faults.plan_session(plan):
        for _ in range(episodes):
            try:
                response = client.infer(
                    trained.model_id,
                    data.inputs[:8],
                    latency_constraint_s=2.0,
                    max_batch=4,
                )
            except faults.ResilienceError:
                # Bounded, typed failure — the allowed outcome.
                report["typed_failures"] += 1
            except Exception:  # noqa: BLE001 — the invariant being checked
                report["invariant_violations"] += 1
            else:
                report["served"] += len(response.predictions)
                report["degraded"] += sum(response.degraded)
                report["evicted"] += sum(response.evicted)
                for flagged, stage in zip(response.degraded, response.served_stage):
                    if flagged and stage is None:
                        report["invariant_violations"] += 1
            try:
                client.classify(trained.model_id, data.inputs[:16])
            except faults.ResilienceError:
                report["typed_failures"] += 1
            except Exception:  # noqa: BLE001
                report["invariant_violations"] += 1
    return session, plan, report


def _chaos_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Drive the serving stack under a seeded fault plan.",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--episodes", type=int, default=4)
    args = parser.parse_args(argv)

    from . import telemetry

    try:
        session, plan, report = run_chaos_workload(
            seed=args.seed, episodes=args.episodes
        )
        if args.json:
            import json

            print(
                json.dumps(
                    {
                        "seed": args.seed,
                        "report": report,
                        "faults": plan.log.counts(),
                        "fault_log": plan.log.export_text().splitlines(),
                        "counters": session.registry.counters(),
                        "trace": session.trace.counts(),
                    },
                    indent=2,
                )
            )
        else:
            print(f"chaos workload (seed={args.seed})")
            print(f"\nfault log ({len(plan.log)} injections):")
            print(plan.log.export_text() or "  (none fired)")
            print("\nreport:")
            for key, value in report.items():
                print(f"  {key:22} {value}")
            print("\nrecovery counters:")
            for name, value in session.registry.counters().items():
                if name.startswith(("client.", "runtime.", "service.degraded")):
                    print(f"  {name:40} {value:g}")
        return 1 if report["invariant_violations"] else 0
    finally:
        telemetry.disable()


def _overload_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro overload",
        description=(
            "Open-loop overload sweep: offered load past capacity, with "
            "and without admission control (see docs/OVERLOAD.md)."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="use synthetic oracles instead of the trained benchmark "
        "artifacts (seconds instead of minutes; the CI smoke path)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tasks", type=int, default=None, help="override the task count"
    )
    args = parser.parse_args(argv)

    from .experiments.openloop import OverloadConfig, format_overload, run_overload

    config = OverloadConfig(seed=args.seed)
    if args.tasks is not None:
        config.num_tasks = args.tasks
    results = run_overload(config=config, synthetic=args.smoke)
    if args.json:
        import json

        print(json.dumps(results, indent=2))
    else:
        print(format_overload(results))

    # Graceful-degradation sanity: past capacity, the managed setup must
    # accrue at least the baseline's utility and keep the queue bounded.
    failures = []
    base = {r["load_factor"]: r for r in results["fifo-baseline"]}
    for row in results["admission"]:
        load = row["load_factor"]
        if load < 2.0:
            continue
        if row["utility"] < base[load]["utility"]:
            failures.append(f"utility below baseline at load {load:g}")
        if row["peak_queue_depth"] > config.max_queue_depth:
            failures.append(f"queue bound exceeded at load {load:g}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def _cluster_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cluster",
        description=(
            "Replicated-serving scaling sweep plus a kill-one-replica "
            "failover episode (see docs/CLUSTER.md)."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--requests", type=int, default=None, help="override the request count"
    )
    parser.add_argument(
        "--replicas",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help=(
            "replica counts to sweep (default: 1 2 4); the largest also "
            "hosts the kill-one-replica failover episode"
        ),
    )
    parser.add_argument(
        "--backend",
        choices=("thread", "process"),
        default="thread",
        help=(
            "replica execution backend: in-process worker threads or "
            "real multiprocessing children with shm tensor transport"
        ),
    )
    parser.add_argument(
        "--work",
        choices=("sleep", "spin"),
        default=None,
        help=(
            "synthetic service-time model (default: sleep for the thread "
            "backend, spin — compute-bound — for the process backend)"
        ),
    )
    parser.add_argument(
        "--record",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the human-readable report to PATH",
    )
    args = parser.parse_args(argv)

    from .experiments.cluster_scaling import (
        ClusterScalingConfig,
        check_cluster_scaling,
        format_cluster_scaling,
        run_cluster_scaling,
        skip_reason,
    )

    work = args.work
    if work is None:
        work = "spin" if args.backend == "process" else "sleep"
    config = ClusterScalingConfig(
        seed=args.seed, backend=args.backend, work_kind=work
    )
    if args.requests is not None:
        config.num_requests = args.requests
    if args.replicas is not None:
        config.replica_counts = tuple(sorted(set(args.replicas)))
    reason = skip_reason(config)
    if reason is not None:
        # No verdict at all, not a pass: nothing is run or recorded.
        print(f"skipped: {reason}")
        return 0
    results = run_cluster_scaling(config)
    report = format_cluster_scaling(results)
    if args.json:
        import json

        print(json.dumps(results, indent=2))
    else:
        print(report)

    failures = check_cluster_scaling(results)
    if args.record:
        from pathlib import Path

        record = Path(args.record)
        record.parent.mkdir(parents=True, exist_ok=True)
        lines = [report]
        lines.extend(f"FAIL: {failure}" for failure in failures)
        record.write_text("\n".join(lines) + "\n")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def _anytime_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro anytime",
        description=(
            "Gen-2 anytime-serving gate: joint stage budgets + optional-"
            "stage preemption + the anytime contract vs the current EDF "
            "and utility policies at 2-3x overload (see docs/SCHEDULER.md)."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="use synthetic oracles instead of the trained benchmark "
        "artifacts (seconds instead of minutes; the CI smoke path)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tasks", type=int, default=None, help="override the task count"
    )
    parser.add_argument(
        "--record",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the human-readable report to PATH",
    )
    args = parser.parse_args(argv)

    from .experiments.anytime import (
        AnytimeConfig,
        check_anytime,
        format_anytime,
        run_anytime,
    )

    config = AnytimeConfig(seed=args.seed)
    if args.tasks is not None:
        config.num_tasks = args.tasks
    results = run_anytime(config=config, synthetic=args.smoke)
    report = format_anytime(results)
    if args.json:
        import json

        print(json.dumps(results, indent=2))
    else:
        print(report)

    failures = check_anytime(results)
    if args.record:
        from pathlib import Path

        record = Path(args.record)
        record.parent.mkdir(parents=True, exist_ok=True)
        lines = [report]
        lines.extend(f"FAIL: {failure}" for failure in failures)
        record.write_text("\n".join(lines) + "\n")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def _autoscale_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro autoscale",
        description=(
            "Elastic-serving gate: autoscaled fleet vs static-small and "
            "static-large on a seeded diurnal + flash-crowd trace "
            "(see docs/CLUSTER.md)."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "shorter trace and thread-backend chaos/cold-start only, "
            "for CI"
        ),
    )
    parser.add_argument(
        "--steps", type=int, default=None, help="override the trace length"
    )
    parser.add_argument(
        "--max-replicas",
        type=int,
        default=None,
        help="fleet ceiling (and static-large size)",
    )
    parser.add_argument(
        "--record",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the human-readable report to PATH",
    )
    args = parser.parse_args(argv)

    from .experiments.autoscale import (
        AutoscaleExperimentConfig,
        check_autoscale,
        format_autoscale,
        run_autoscale,
    )

    config = AutoscaleExperimentConfig(seed=args.seed, smoke=args.smoke)
    if args.steps is not None:
        config.steps = args.steps
    if args.max_replicas is not None:
        config.max_replicas = args.max_replicas
    results = run_autoscale(config)
    report = format_autoscale(results)
    if args.json:
        import json

        print(json.dumps(results, indent=2))
    else:
        print(report)

    failures = check_autoscale(results)
    if args.record:
        from pathlib import Path

        record = Path(args.record)
        record.parent.mkdir(parents=True, exist_ok=True)
        lines = [report]
        lines.extend(f"FAIL: {failure}" for failure in failures)
        record.write_text("\n".join(lines) + "\n")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def _workload_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro workload",
        description=(
            "Million-request DES workload: a seeded multi-tenant trace "
            "(diurnal + bursts + flash crowd) pushed through the real "
            "admission controller with weighted-fair tenant quotas "
            "(see docs/WORKLOAD.md)."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="~50k requests instead of 1M"
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="target arrival count (default 1,000,000; smoke 50,000)",
    )
    args = parser.parse_args(argv)

    import math as _math

    from .admission import AdmissionController, TenantQuota
    from .workload import (
        EngineConfig,
        TenantSpec,
        WorkloadEngine,
        generate_trace,
    )
    from .workload.trace import FlashCrowd

    target = args.requests or (50_000 if args.smoke else 1_000_000)
    # Six tenants with distinct shapes; rates sum to 2,200/s, so the
    # duration follows from the target arrival count.
    specs = [
        TenantSpec(
            name=f"tenant-{i:02d}",
            rate_per_s=rate,
            weight=weight,
            diurnal_amplitude=0.2,
            diurnal_period_s=60.0,
            diurnal_phase=2.0 * _math.pi * i / 6.0,
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
    total_rate = sum(s.rate_per_s for s in specs)
    duration = target / total_rate
    trace = generate_trace(
        specs,
        duration_s=duration,
        seed=args.seed,
        flash_crowds=(
            FlashCrowd(
                group="crowd",
                start_s=0.4 * duration,
                duration_s=0.1 * duration,
                multiplier=1.4,
            ),
        ),
    )
    admission = AdmissionController(
        per_tenant={s.name: TenantQuota(weight=s.weight) for s in specs},
        tenant_capacity_per_s=1.5 * total_rate,
        tenant_capacity_burst=max(1.0, 0.075 * total_rate),
    )
    engine = WorkloadEngine(
        config=EngineConfig(servers=96),
        admission=admission,
        weights={s.name: s.weight for s in specs},
        seed=args.seed,
    )
    from .clock import stopwatch

    run_time = stopwatch()
    report = engine.run(trace)
    elapsed = run_time()

    failures = []
    if not report.accounting_exact:
        failures.append(
            f"inexact accounting: {report.accounting_detail}"
        )
    if report.total_arrivals < 0.9 * target:
        failures.append(
            f"trace produced only {report.total_arrivals} arrivals "
            f"(target {target})"
        )
    if args.json:
        import json

        out = report.as_dict()
        out["engine_wall_s"] = elapsed
        print(json.dumps(out, indent=2))
    else:
        rate = report.total_arrivals / elapsed if elapsed else 0.0
        print(
            f"workload: {report.total_arrivals:,} arrivals over "
            f"{report.duration_s:.0f}s of trace time -> "
            f"{report.total_admitted:,} admitted, "
            f"{report.total_rejected:,} rejected "
            f"({elapsed:.1f}s wall, {rate:,.0f} req/s through the engine)"
        )
        print(
            f"{'tenant':<12} {'arrivals':>9} {'admitted':>9} "
            f"{'rejected':>9} {'borrowed':>9} {'p99':>9} {'goodput':>9}"
        )
        for name, row in report.tenants.items():
            print(
                f"{name:<12} {row.arrivals:>9,} {row.admitted:>9,} "
                f"{row.rejected:>9,} {row.borrowed:>9,} "
                f"{row.p99_ms:>7.1f}ms {row.goodput_per_s:>7.1f}/s"
            )
        print(
            "accounting: "
            + ("exact" if report.accounting_exact else "INEXACT")
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def _isolation_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro isolation",
        description=(
            "Tenant-isolation gate: >= 1M DES + >= 100k live requests "
            "with exact per-tenant accounting; an abuser at 10x its "
            "quota must not degrade a compliant tenant's p99 by > 25% "
            "nor its goodput by > 5% (see docs/WORKLOAD.md)."
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="scaled-down volume floors (same phases and gates), for CI",
    )
    parser.add_argument(
        "--record",
        type=str,
        default=None,
        metavar="PATH",
        help="also write the human-readable report to PATH",
    )
    args = parser.parse_args(argv)

    from .experiments.isolation import (
        IsolationExperimentConfig,
        check_isolation,
        format_isolation,
        run_isolation,
    )

    config = IsolationExperimentConfig(seed=args.seed, smoke=args.smoke)
    results = run_isolation(config)
    report = format_isolation(results)
    if args.json:
        import json

        print(json.dumps(results, indent=2))
    else:
        print(report)

    failures = check_isolation(results)
    if args.record:
        from pathlib import Path

        record = Path(args.record)
        record.parent.mkdir(parents=True, exist_ok=True)
        lines = [report]
        lines.extend(f"FAIL: {failure}" for failure in failures)
        record.write_text("\n".join(lines) + "\n")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "table1": _table1,
    "fig2": _fig2,
    "table2": _table2,
    "table3": _table3,
    "fig4": _fig4,
    "table4": _table4,
    "resilience": _resilience,
    "service-classes": _service_classes,
    "partitioning": _partitioning,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "metrics":
        return _metrics_main(argv[1:])
    if argv and argv[0] == "chaos":
        return _chaos_main(argv[1:])
    if argv and argv[0] == "overload":
        return _overload_main(argv[1:])
    if argv and argv[0] == "anytime":
        return _anytime_main(argv[1:])
    if argv and argv[0] == "cluster":
        return _cluster_main(argv[1:])
    if argv and argv[0] == "autoscale":
        return _autoscale_main(argv[1:])
    if argv and argv[0] == "workload":
        return _workload_main(argv[1:])
    if argv and argv[0] == "isolation":
        return _isolation_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the Eugene paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names (see 'list'), or 'all', or 'list', "
        "or the 'metrics' subcommand (see 'metrics --help')",
    )
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        for name in EXPERIMENTS:
            print(name)
        return 0

    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s) {unknown}; choose from {list(EXPERIMENTS)}"
        )
    for name in names:
        print(f"\n{'=' * 70}\n{name}\n{'=' * 70}")
        print(EXPERIMENTS[name]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
