"""The tenant-isolation gate: one abuser cannot hurt a compliant tenant.

The experiment behind ``make isolation`` (docs/WORKLOAD.md).  It composes
the :mod:`repro.workload` stack into three DES phases plus a live phase:

- **Phase A (alone)** — the compliant tenant population runs by itself
  through the million-request engine with weighted-fair tenant quotas.
- **Phase B (contended)** — the *same* compliant traces (tenant-stable
  seeding guarantees identical arrivals) plus an abuser offering 10x its
  guaranteed share.  The gates: every compliant tenant's p99 grows by at
  most 25% and its goodput shrinks by at most 5% versus Phase A, while
  the abuser's overflow is shed at admission.
- **No-quota contrast** — the same contended population with tenant
  quotas disabled and a deliberately tight shared queue.  The gate here
  is *inverted*: compliant goodput must degrade past the bound, proving
  the isolation gates are non-vacuous (they fail without the mechanism).
- **Live phase** — a cheap-endpoint trace replayed against a real
  :func:`~repro.cluster.make_cluster` router through tenant-stamped
  clients, with exact per-tenant accounting cross-checked against
  ``cluster_snapshot()``.

Volume floors are part of the gate: >= 1M DES arrivals and >= 100k live
requests in the full run (scaled down by ``--smoke``), every phase with
exact integer accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..admission import AdmissionController, TenantQuota
from ..workload import (
    EngineConfig,
    TenantSpec,
    WorkloadEngine,
    WorkloadReport,
    generate_trace,
)
from ..workload.trace import FlashCrowd
from .experiment import JSON, SEED, Experiment, flag

#: Endpoint mix for the live phase: every endpoint exercised, but the
#: heavy training endpoints kept rare so the replay sustains ~1k req/s.
LIVE_MIX: Dict[str, float] = {
    "classify": 0.35,
    "estimate": 0.35,
    "profile": 0.20,
    "infer": 0.01,
    "calibrate": 0.01,
    "label": 0.005,
    "reduce": 0.02,
    "delete": 0.02,
    "train_estimator": 0.02,
    "train": 0.0025,
    "train_deepsense": 0.0025,
}


@dataclass
class IsolationExperimentConfig:
    """Knobs and acceptance bars of the isolation experiment."""

    seed: int = 0
    #: CI mode: same phases and invariants, scaled-down volume floors.
    smoke: bool = False

    # --- DES population ----------------------------------------------
    num_compliant: int = 4
    compliant_rate_per_s: float = 350.0
    #: how far past its guaranteed share the abuser offers load.
    abuse_factor: float = 10.0
    #: total tenant admission capacity; each of the (compliant + 1)
    #: equal-weight tenants is guaranteed capacity / (num_compliant + 1).
    tenant_capacity_per_s: float = 3500.0
    servers: int = 96
    des_duration_s: float = 110.0
    no_quota_duration_s: float = 30.0
    #: shared queue bound for the quota phases (sized to never bind) and
    #: for the no-quota contrast (sized to bind fast, so tenant-blind
    #: shedding shows up inside the phase).
    max_queue: int = 50_000
    no_quota_max_queue: int = 2_000

    # --- live phase ---------------------------------------------------
    live_tenants: int = 3
    live_duration_s: float = 50.0
    num_replicas: int = 2
    num_threads: int = 8
    #: per-tenant quota on the live controller (wall-clock rate); sized
    #: so the closed-loop replay sees some tenant-quota rejections.
    live_tenant_rate_per_s: float = 300.0

    # --- acceptance bars ---------------------------------------------
    min_des_requests: int = 1_000_000
    min_live_requests: int = 100_000
    max_p99_ratio: float = 1.25
    min_goodput_ratio: float = 0.95
    #: the abuser must be visibly shed at admission.
    min_abuser_shed: float = 0.5

    def __post_init__(self) -> None:
        if self.smoke:
            self.des_duration_s = 6.0
            self.no_quota_duration_s = 6.0
            self.live_duration_s = 10.0
            self.min_des_requests = 50_000
            self.min_live_requests = 4_000

    @property
    def fair_share_per_s(self) -> float:
        return self.tenant_capacity_per_s / (self.num_compliant + 1)

    def as_dict(self) -> Dict[str, object]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _compliant_specs(config: IsolationExperimentConfig) -> List[TenantSpec]:
    """The compliant population: diurnal + bursty, under fair share.

    Peak offered rate (diurnal crest x burst state) stays below the
    guaranteed share — that is what "compliant" means here; the quotas
    protect exactly the traffic a tenant was promised.
    """
    specs = []
    for i in range(config.num_compliant):
        specs.append(
            TenantSpec(
                name=f"tenant-{i:02d}",
                rate_per_s=config.compliant_rate_per_s,
                weight=1.0,
                diurnal_amplitude=0.2,
                diurnal_period_s=60.0,
                diurnal_phase=2.0 * math.pi * i / config.num_compliant,
                burst_multiplier=1.5,
                burst_fraction=0.05,
                burst_mean_s=5.0,
                flash_group="des" if i % 2 == 0 else None,
            )
        )
    return specs


def _abuser_spec(config: IsolationExperimentConfig) -> TenantSpec:
    return TenantSpec(
        name="abuser",
        rate_per_s=config.abuse_factor * config.fair_share_per_s,
        weight=1.0,
    )


def _quotas(
    config: IsolationExperimentConfig, names: List[str]
) -> Dict[str, TenantQuota]:
    return {name: TenantQuota(weight=1.0) for name in names}


def _engine_phase(
    config: IsolationExperimentConfig,
    specs: List[TenantSpec],
    with_quotas: bool,
    max_queue: int,
    duration_s: float,
) -> WorkloadReport:
    trace = generate_trace(
        specs,
        duration_s=duration_s,
        seed=config.seed,
        flash_crowds=(
            FlashCrowd(
                group="des",
                start_s=0.3 * duration_s,
                duration_s=0.1 * duration_s,
                multiplier=1.3,
            ),
        ),
    )
    # Quotas always cover all five population slots, whether or not the
    # abuser is present: a declared tenant's guaranteed share must not
    # depend on who else shows up.
    all_names = [s.name for s in _compliant_specs(config)] + ["abuser"]
    admission: Optional[AdmissionController] = None
    if with_quotas:
        admission = AdmissionController(
            per_tenant=_quotas(config, all_names),
            tenant_capacity_per_s=config.tenant_capacity_per_s,
            # ~50ms of link burst: enough to smooth arrivals, small
            # enough that the borrow pool's initial fill does not hand
            # the abuser a free opening spike in short (smoke) windows.
            tenant_capacity_burst=max(1.0, 0.05 * config.tenant_capacity_per_s),
        )
    engine = WorkloadEngine(
        config=EngineConfig(
            servers=config.servers,
            max_queue=max_queue,
            slo_s=1.0,
        ),
        admission=admission,
        weights={name: 1.0 for name in all_names},
        seed=config.seed,
    )
    return engine.run(trace)


def _live_phase(config: IsolationExperimentConfig) -> Dict[str, object]:
    from ..workload.driver import ClusterDriver

    # Rate sized so the Poisson total clears the floor with margin.
    rate = 1.06 * config.min_live_requests / (
        config.live_tenants * config.live_duration_s
    )
    specs = [
        TenantSpec(
            name=f"live-{i}",
            rate_per_s=rate,
            endpoint_mix=dict(LIVE_MIX),
        )
        for i in range(config.live_tenants)
    ]
    trace = generate_trace(
        specs, duration_s=config.live_duration_s, seed=config.seed + 1
    )
    admission = AdmissionController(
        per_tenant={
            s.name: TenantQuota(
                weight=1.0, rate_per_s=config.live_tenant_rate_per_s
            )
            for s in specs
        },
        tenant_capacity_per_s=config.live_tenant_rate_per_s
        * config.live_tenants,
    )
    driver = ClusterDriver(
        trace,
        num_replicas=config.num_replicas,
        num_threads=config.num_threads,
        backend="thread",
        admission=admission,
        seed=config.seed,
    )
    report = driver.run()
    out = report.as_dict()
    tenants = report.snapshot.get("tenants", {})
    out["snapshot_tenants"] = {
        name: row
        for name, row in tenants.items()
        if name.startswith("live-")
    }
    return out


def _tenant_comparison(
    alone: WorkloadReport, contended: WorkloadReport, names: List[str]
) -> Dict[str, Dict[str, float]]:
    rows: Dict[str, Dict[str, float]] = {}
    for name in names:
        a = alone.tenants[name]
        b = contended.tenants[name]
        rows[name] = {
            "arrivals": float(a.arrivals),
            "p99_ms_alone": a.p99_ms,
            "p99_ms_contended": b.p99_ms,
            "p99_ratio": b.p99_ms / a.p99_ms if a.p99_ms else float("inf"),
            "goodput_alone": a.goodput_per_s,
            "goodput_contended": b.goodput_per_s,
            "goodput_ratio": (
                b.goodput_per_s / a.goodput_per_s
                if a.goodput_per_s
                else 0.0
            ),
        }
    return rows


def run_isolation(config: IsolationExperimentConfig) -> Dict[str, object]:
    compliant = _compliant_specs(config)
    names = [s.name for s in compliant]
    population = compliant + [_abuser_spec(config)]

    phase_a = _engine_phase(
        config, compliant, True, config.max_queue, config.des_duration_s
    )
    phase_b = _engine_phase(
        config, population, True, config.max_queue, config.des_duration_s
    )
    no_quota = _engine_phase(
        config,
        population,
        False,
        config.no_quota_max_queue,
        config.no_quota_duration_s,
    )

    abuser = phase_b.tenants["abuser"]
    abuser_row = {
        "arrivals": abuser.arrivals,
        "admitted": abuser.admitted,
        "rejected": abuser.rejected,
        "borrowed": abuser.borrowed,
        "shed_fraction": (
            abuser.rejected / abuser.arrivals if abuser.arrivals else 0.0
        ),
    }
    live = _live_phase(config)

    return {
        "config": config.as_dict(),
        "des": {
            "phase_a": phase_a.as_dict(),
            "phase_b": phase_b.as_dict(),
            "no_quota": no_quota.as_dict(),
            "total_arrivals": (
                phase_a.total_arrivals
                + phase_b.total_arrivals
                + no_quota.total_arrivals
            ),
        },
        "isolation": _tenant_comparison(phase_a, phase_b, names),
        "no_quota_contrast": _tenant_comparison(phase_a, no_quota, names),
        "abuser": abuser_row,
        "live": live,
    }


def check_isolation(results: Dict[str, object]) -> List[str]:
    """The acceptance bars, as failure strings (empty = pass)."""
    failures: List[str] = []
    config = results["config"]
    des = results["des"]

    if des["total_arrivals"] < config["min_des_requests"]:
        failures.append(
            f"DES pushed only {des['total_arrivals']} requests "
            f"(need >= {config['min_des_requests']})"
        )
    for phase in ("phase_a", "phase_b", "no_quota"):
        row = des[phase]
        if not row["accounting_exact"]:
            failures.append(
                f"inexact accounting in {phase}: {row['accounting_detail']}"
            )

    for name, row in results["isolation"].items():
        if row["p99_ratio"] > config["max_p99_ratio"]:
            failures.append(
                f"{name} p99 degraded {row['p99_ratio']:.3f}x under the "
                f"abuser (allowed <= {config['max_p99_ratio']:g}x)"
            )
        if row["goodput_ratio"] < config["min_goodput_ratio"]:
            failures.append(
                f"{name} goodput fell to {row['goodput_ratio']:.3f} of "
                f"alone (need >= {config['min_goodput_ratio']:g})"
            )

    abuser = results["abuser"]
    if abuser["shed_fraction"] < config["min_abuser_shed"]:
        failures.append(
            f"abuser shed only {abuser['shed_fraction']:.3f} of its load "
            f"(need >= {config['min_abuser_shed']:g} — quotas not biting)"
        )

    # The inverted gate: without quotas the same contention MUST violate
    # at least one isolation bound, or the gates above prove nothing.
    contrast = results["no_quota_contrast"]
    degraded = any(
        row["goodput_ratio"] < config["min_goodput_ratio"]
        or row["p99_ratio"] > config["max_p99_ratio"]
        for row in contrast.values()
    )
    if not degraded:
        failures.append(
            "no-quota contrast shows no compliant degradation — the "
            "isolation gate is vacuous on this configuration"
        )

    live = results["live"]
    if live["requests"] < config["min_live_requests"]:
        failures.append(
            f"live phase replayed only {live['requests']} requests "
            f"(need >= {config['min_live_requests']})"
        )
    if not live["accounting_exact"]:
        failures.append(
            f"inexact live accounting: {live['accounting_detail']}"
        )
    return failures


def format_isolation(results: Dict[str, object]) -> str:
    config = results["config"]
    des = results["des"]
    lines = [
        "Tenant isolation gate "
        + ("(smoke)" if config["smoke"] else "(full)"),
        "=" * 44,
        f"DES arrivals: {des['total_arrivals']:,} "
        f"(floor {config['min_des_requests']:,})  |  "
        f"live requests: {results['live']['requests']:,} "
        f"(floor {config['min_live_requests']:,})",
        "",
        f"{'tenant':<12} {'p99 alone':>10} {'p99 contd':>10} "
        f"{'ratio':>6} {'goodput':>8} {'ratio':>6}",
    ]
    for name, row in results["isolation"].items():
        lines.append(
            f"{name:<12} {row['p99_ms_alone']:>8.1f}ms "
            f"{row['p99_ms_contended']:>8.1f}ms {row['p99_ratio']:>6.3f} "
            f"{row['goodput_contended']:>6.1f}/s "
            f"{row['goodput_ratio']:>6.3f}"
        )
    abuser = results["abuser"]
    lines += [
        "",
        f"abuser: offered {abuser['arrivals']:,}, admitted "
        f"{abuser['admitted']:,} ({abuser['borrowed']:,} borrowed), shed "
        f"{abuser['shed_fraction']:.1%}",
        "no-quota contrast (same load, quotas off, tight queue):",
    ]
    for name, row in results["no_quota_contrast"].items():
        lines.append(
            f"  {name:<12} goodput ratio {row['goodput_ratio']:.3f}, "
            f"p99 ratio {row['p99_ratio']:.3f}"
        )
    live = results["live"]
    lines += [
        "",
        f"live replay: {live['requests']:,} requests at "
        f"{live['throughput_per_s']:.0f}/s, accounting "
        + ("exact" if live["accounting_exact"] else "INEXACT"),
    ]
    return "\n".join(lines)


ISOLATION = Experiment(
    name="isolation",
    summary="An abuser at 10x its quota must not hurt compliant tenants' p99 or goodput",
    flags=(
        JSON, SEED,
        flag("--smoke", action="store_true",
             help="scaled-down volume floors (same phases and gates), for CI"),
    ),
    run=lambda args: run_isolation(
        IsolationExperimentConfig(seed=args.seed, smoke=args.smoke)
    ),
    format=format_isolation,
    check=check_isolation,
)
