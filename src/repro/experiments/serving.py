"""Scripted serving workloads: ``repro metrics`` and ``repro chaos``.

Both train a tiny staged model and drive it through the real serving
stack under an enabled :mod:`repro.telemetry` session.  ``metrics``
prints the telemetry export (per-stage latency p50/p95/p99, batch
occupancy, deadline misses, per-endpoint request counts, the scheduler
trace tally).  ``chaos`` arms a seeded :class:`repro.faults.FaultPlan`
and prints the fault log, the recovery counters and the resilience
invariant the chaos test suite asserts; the same seed always produces
the same fault sequence.
"""

from __future__ import annotations

from typing import Dict, List

from .. import faults, telemetry
from ..datasets import SyntheticImageConfig, make_image_dataset
from ..nn.resnet import StagedResNetConfig
from ..service import (
    ClassifyRequest,
    EugeneService,
    InferRequest,
    ProfileRequest,
    TrainRequest,
)
from ..service.client import EugeneClient
from .experiment import JSON, SEED, Experiment, flag


def run_metrics_workload(seed: int = 0):
    """Scripted serving workload under an enabled telemetry session.

    Returns the :class:`repro.telemetry.Telemetry` session after training a
    tiny staged model and serving it through every hot endpoint: profile,
    micro-batched classify, a comfortably-deadlined batched infer, and a
    deliberately tight-deadlined infer so deadline-miss accounting shows up.
    The caller owns the session (``telemetry.disable()`` when done).
    """
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


def _metrics(args):
    try:
        return run_metrics_workload(seed=args.seed), args.events
    finally:
        telemetry.disable()


METRICS = Experiment(
    name="metrics",
    summary="Telemetry of a scripted serving workload (train, profile, classify, infer)",
    flags=(
        JSON,
        flag("--events", action="store_true", help="include raw trace events (JSON only)"),
        SEED,
    ),
    run=_metrics,
    format=lambda result: telemetry.render_text(result[0]),
    to_json=lambda result: telemetry.to_json(result[0], trace_events=result[1]),
)


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


def _chaos(args) -> Dict[str, object]:
    try:
        session, plan, report = run_chaos_workload(
            seed=args.seed, episodes=args.episodes
        )
        return {
            "seed": args.seed,
            "report": report,
            "faults": plan.log.counts(),
            "fault_log": plan.log.export_text().splitlines(),
            "counters": session.registry.counters(),
            "trace": session.trace.counts(),
        }
    finally:
        telemetry.disable()


def format_chaos(result: Dict[str, object]) -> str:
    lines = [
        f"chaos workload (seed={result['seed']})",
        f"\nfault log ({len(result['fault_log'])} injections):",
        "\n".join(result["fault_log"]) or "  (none fired)",
        "\nreport:",
    ]
    lines += [f"  {key:22} {value}" for key, value in result["report"].items()]
    lines.append("\nrecovery counters:")
    lines += [
        f"  {name:40} {value:g}"
        for name, value in result["counters"].items()
        if name.startswith(("client.", "runtime.", "service.degraded"))
    ]
    return "\n".join(lines)


def check_chaos(result: Dict[str, object]) -> List[str]:
    violations = result["report"]["invariant_violations"]
    if not violations:
        return []
    return [f"{violations} resilience invariant violation(s)"]


CHAOS = Experiment(
    name="chaos",
    summary="The serving stack under a seeded fault plan: every failure stays typed",
    flags=(JSON, SEED, flag("--episodes", type=int, default=4)),
    run=_chaos,
    format=format_chaos,
    check=check_chaos,
)
