"""Autoscaling experiment: elastic vs static fleets on a diurnal trace.

The elastic-tier pitch (DeepServe, IBM DLaaS in ``PAPERS.md``) is a
two-sided bet: an autoscaler should *serve* like a fleet provisioned for
the peak while *paying* like one provisioned for the average.  This
experiment makes the bet concrete and gates it:

The same seeded arrival trace — a diurnal hump (``sin²`` ramp between
``trough_rps`` and ``peak_rps``) with a flash crowd multiplied on top —
is driven open-loop against three setups:

- **static-small** — ``min_replicas``, the cheap fleet a cost-optimiser
  would buy for the average load;
- **static-large** — ``max_replicas``, the peak-provisioned fleet;
- **autoscale** — starts at ``min_replicas`` with an
  :class:`~repro.cluster.Autoscaler` stepping once per trace step.

*Goodput* is the fraction of scheduled requests answered within
``latency_budget_s`` of their scheduled send time (open-loop: a request
delayed by a saturated fleet is late even if it was sent late), and
*cost* is replica-seconds (for the autoscaler, the integral includes its
pre-warm pool — warm spares are not free).  The gate
(:func:`check_autoscale`): autoscaling keeps ≥ ``min_goodput_ratio`` of
static-large goodput at ≤ ``max_cost_ratio`` of its replica-seconds,
strictly beats static-small goodput, and loses zero requests anywhere —
including a drain episode where the draining replica is killed outright
mid-drain (SIGKILL for the process backend).

Cold start is measured, not assumed: one scale-up from the pre-warm pool
and one from a fresh spawn are timed per backend
(``autoscaler.cold_start_ms.{prewarmed|spawned}``), quantifying what the
pool actually buys.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..clock import MONOTONIC
from ..cluster import (
    PROCESS_BACKEND,
    THREAD_BACKEND,
    Autoscaler,
    AutoscalerConfig,
    RouterConfig,
    make_cluster,
)
from ..datasets import SyntheticImageConfig, make_image_dataset
from ..nn.resnet import StagedResNet, StagedResNetConfig
from ..nn.training import collect_stage_outputs
from ..scheduler.confidence import GPConfidencePredictor
from ..service import ClassifyRequest, RejectedResponse
from .cluster_scaling import _shm_leaked_blocks


@dataclass
class AutoscaleExperimentConfig:
    #: trace shape: ``steps`` steps of ``step_s`` seconds each.
    steps: int = 36
    step_s: float = 0.4
    trough_rps: float = 8.0
    peak_rps: float = 70.0
    #: flash crowd: multiply ``flash_steps`` steps by ``flash_factor``
    #: starting at ``flash_start_frac`` of the trace.
    flash_factor: float = 1.8
    flash_start_frac: float = 0.45
    flash_steps: int = 3
    #: per-call service time each replica burns (sleep: I/O-ish).
    synthetic_work_s: float = 0.03
    #: a request answered later than this after its *scheduled* send
    #: counts against goodput.
    latency_budget_s: float = 0.5
    batch_per_request: int = 1
    num_workers: int = 32
    min_replicas: int = 1
    max_replicas: int = 4
    seed: int = 0
    backend: str = THREAD_BACKEND
    #: the acceptance bars.
    min_goodput_ratio: float = 0.95
    max_cost_ratio: float = 0.70
    #: smoke mode: shorter trace, thread-backend chaos/cold-start only.
    smoke: bool = False
    #: pre-warm is off for the thread-backend trace — spawn there is
    #: ~1 ms, so a warm spare buys nothing and costs replica-seconds
    #: (its value for the process backend shows up in the cold-start
    #: measurement instead).
    autoscaler: AutoscalerConfig = field(
        default_factory=lambda: AutoscalerConfig(
            min_replicas=1,
            max_replicas=4,
            target_outstanding_per_replica=1.2,
            scale_up_ratio=1.0,
            scale_down_ratio=0.4,
            hysteresis_up=1,
            hysteresis_down=2,
            up_cooldown_s=0.3,
            down_cooldown_s=1.0,
            max_step_up=2,
            max_step_down=1,
            prewarm_pool_size=0,
        )
    )
    model_config: StagedResNetConfig = field(
        default_factory=lambda: StagedResNetConfig(
            num_classes=3,
            image_size=8,
            stage_channels=(4, 8),
            blocks_per_stage=1,
            seed=0,
        )
    )


def make_trace(config: AutoscaleExperimentConfig) -> List[float]:
    """The seeded arrival-rate trace (requests/s per step)."""
    rng = np.random.default_rng(config.seed)
    span = config.peak_rps - config.trough_rps
    rates = []
    for i in range(config.steps):
        phase = math.pi * i / max(1, config.steps - 1)
        base = config.trough_rps + span * math.sin(phase) ** 2
        rates.append(
            float(max(1.0, base * (1.0 + 0.05 * rng.standard_normal())))
        )
    start = int(config.flash_start_frac * config.steps)
    for i in range(start, min(config.steps, start + config.flash_steps)):
        rates[i] *= config.flash_factor
    return rates


def _build_model(config: AutoscaleExperimentConfig):
    dataset = make_image_dataset(
        48,
        SyntheticImageConfig(
            num_classes=config.model_config.num_classes,
            image_size=config.model_config.image_size,
            seed=3,
        ),
        seed=config.seed,
    )
    model = StagedResNet(config.model_config)
    predictor = GPConfidencePredictor(
        num_classes=config.model_config.num_classes, seed=config.seed
    ).fit(collect_stage_outputs(model, dataset)["confidences"])
    return model, dataset, predictor


def _drive_trace(
    router,
    gid: str,
    inputs: np.ndarray,
    config: AutoscaleExperimentConfig,
    rates: List[float],
    autoscaler: Optional[Autoscaler] = None,
) -> Dict[str, object]:
    """Open-loop drive of the trace; optionally steps an autoscaler.

    Requests are scheduled at absolute offsets; a worker pool sends each
    at its scheduled time (or as soon as a worker frees up — the slip
    then shows up as latency, which is exactly what saturation looks
    like to an open-loop client).
    """
    sends: List[float] = []
    for i, rate in enumerate(rates):
        n = max(1, int(round(rate * config.step_s)))
        for k in range(n):
            sends.append((i + (k + 0.5) / n) * config.step_s)
    sends.sort()

    lock = threading.Lock()
    next_index = [0]
    latencies: List[float] = []
    shed = [0]
    errors: List[str] = []
    go = threading.Event()
    t0 = [0.0]

    def worker():
        go.wait()
        while True:
            with lock:
                idx = next_index[0]
                if idx >= len(sends):
                    return
                next_index[0] += 1
            scheduled = t0[0] + sends[idx]
            MONOTONIC.sleep(scheduled - MONOTONIC.now())
            request = ClassifyRequest(
                model_id=gid, inputs=inputs[: config.batch_per_request]
            )
            try:
                response = router.classify(request)
            except BaseException as error:
                with lock:
                    errors.append(repr(error))
                continue
            latency = MONOTONIC.now() - scheduled
            with lock:
                if isinstance(response, RejectedResponse):
                    shed[0] += 1
                else:
                    latencies.append(latency)

    threads = [
        threading.Thread(target=worker) for _ in range(config.num_workers)
    ]
    for t in threads:
        t.start()
    t0[0] = MONOTONIC.now()
    go.set()

    fleet_track: List[int] = []
    if autoscaler is not None:
        for i in range(config.steps):
            target = t0[0] + (i + 1) * config.step_s
            MONOTONIC.sleep(target - MONOTONIC.now())
            autoscaler.step()
            fleet_track.append(
                len(
                    [
                        rid
                        for rid in router.active_replica_ids()
                        if rid not in set(router.draining())
                    ]
                )
            )
    for t in threads:
        t.join(180.0)
    wall_s = MONOTONIC.now() - t0[0]

    within = sum(1 for lat in latencies if lat <= config.latency_budget_s)
    total = len(sends)
    row: Dict[str, object] = {
        "requests": total,
        "served": len(latencies),
        "shed": shed[0],
        "lost": len(errors),
        "errors": errors[:5],
        "within_budget": within,
        "goodput": within / total if total else 0.0,
        "p99_latency_s": (
            float(np.percentile(latencies, 99)) if latencies else 0.0
        ),
        "wall_s": wall_s,
    }
    if fleet_track:
        row["fleet"] = fleet_track
    return row


def _run_setup(
    label: str,
    n_start: int,
    config: AutoscaleExperimentConfig,
    model,
    dataset,
    predictor,
    rates: List[float],
    elastic: bool,
) -> Dict[str, object]:
    router_config = RouterConfig(replication_factor=config.max_replicas)
    with make_cluster(
        n_start,
        backend=config.backend,
        seed=config.seed,
        synthetic_work_s=config.synthetic_work_s,
        config=router_config,
    ) as router:
        gid = router.register_model(
            "autoscale", model, train_set=dataset, predictor=predictor
        )
        autoscaler = None
        if elastic:
            asc_config = AutoscalerConfig(
                **{
                    **config.autoscaler.__dict__,
                    "min_replicas": config.min_replicas,
                    "max_replicas": config.max_replicas,
                }
            )
            autoscaler = Autoscaler(router, asc_config)
        row = _drive_trace(
            router, gid, dataset.inputs, config, rates, autoscaler
        )
        row["setup"] = label
        if autoscaler is not None:
            row["replica_seconds"] = autoscaler.finalize()
            log = autoscaler.decision_log()
            row["scale_ups"] = sum(
                1 for d in log if d["action"] == "scale_up"
            )
            row["scale_downs"] = sum(
                1 for d in log if d["action"] == "scale_down"
            )
            row["decisions"] = log
        else:
            row["replica_seconds"] = n_start * row["wall_s"]
    row["shm_leaked_blocks"] = _shm_leaked_blocks(router)
    return row


def _measure_cold_start(
    backend: str, config: AutoscaleExperimentConfig, model, dataset, predictor
) -> Dict[str, object]:
    """Time one pre-warmed and one fresh-spawn scale-up on ``backend``."""
    try:
        with make_cluster(
            1,
            backend=backend,
            seed=config.seed,
            config=RouterConfig(replication_factor=3),
        ) as router:
            router.register_model(
                "coldstart", model, train_set=dataset, predictor=predictor
            )
            asc = Autoscaler(
                router,
                AutoscalerConfig(
                    min_replicas=1, max_replicas=4, prewarm_pool_size=1
                ),
            )
            asc.scale_up(2)  # first join is pre-warmed, second is spawned
            hists = router.metrics.histograms()
            asc.finalize()
        out: Dict[str, object] = {"backend": backend}
        for source in ("prewarmed", "spawned"):
            summary = hists.get(f"autoscaler.cold_start_ms.{source}", {})
            out[f"{source}_ms"] = float(summary.get("mean", 0.0) or 0.0)
        pool = hists.get("autoscaler.prewarm_spawn_ms", {})
        out["prewarm_spawn_ms"] = float(pool.get("mean", 0.0) or 0.0)
        return out
    except Exception as error:  # pragma: no cover - host-dependent
        return {"backend": backend, "error": repr(error)}


def run_drain_chaos(
    config: AutoscaleExperimentConfig, backend: str
) -> Dict[str, object]:
    """Kill a replica outright in the middle of draining it.

    The drain protocol's zero-lost claim has to survive its own worst
    case: the replica being decommissioned dies (real SIGKILL on the
    process backend) after evacuation started but before its queue ran
    dry.  Clients must see every request answered — in-flight work on
    the victim fails over to the survivors that evacuation already
    populated.
    """
    with make_cluster(
        3,
        backend=backend,
        seed=config.seed,
        synthetic_work_s=0.02,
        config=RouterConfig(replication_factor=2),
    ) as router:
        model, dataset, predictor = _build_model(config)
        gid = router.register_model(
            "chaos", model, train_set=dataset, predictor=predictor
        )
        stop = threading.Event()
        lock = threading.Lock()
        served = [0]
        errors: List[str] = []

        def client():
            while not stop.is_set():
                request = ClassifyRequest(
                    model_id=gid, inputs=dataset.inputs[:1]
                )
                try:
                    router.classify(request)
                except BaseException as error:
                    with lock:
                        errors.append(repr(error))
                    continue
                with lock:
                    served[0] += 1

        clients = [threading.Thread(target=client) for _ in range(6)]
        for t in clients:
            t.start()
        MONOTONIC.sleep(0.4)  # build up in-flight work everywhere

        victim = router.holders(gid)[0]
        victim_replica = router.replicas[victim]
        drain_result: Dict[str, object] = {}

        def drain():
            try:
                drain_result.update(router.drain_replica(victim))
            except (KeyError, ValueError) as error:
                # The kill won the race and the health plane already
                # ejected the victim — same invariant, different path.
                drain_result["error"] = repr(error)

        drainer = threading.Thread(target=drain)
        drainer.start()
        MONOTONIC.sleep(0.05)
        victim_replica.kill()  # SIGKILL (process) / hard stop (thread)
        drainer.join(60.0)
        MONOTONIC.sleep(0.3)  # keep traffic flowing on the survivors
        stop.set()
        for t in clients:
            t.join(30.0)
        counters = router.metrics.counters()
        row = {
            "backend": backend,
            "served": served[0],
            "lost": len(errors),
            "errors": errors[:5],
            "victim": victim,
            "drain": drain_result,
            "drains_died_midway": counters.get(
                "router.drains_died_midway", 0.0
            ),
            "failovers": counters.get("router.failovers", 0.0),
        }
    row["shm_leaked_blocks"] = _shm_leaked_blocks(router)
    return row


def run_autoscale(
    config: Optional[AutoscaleExperimentConfig] = None,
) -> Dict[str, object]:
    config = config or AutoscaleExperimentConfig()
    if config.smoke:
        config.steps = min(config.steps, 16)
    model, dataset, predictor = _build_model(config)
    rates = make_trace(config)

    setups: Dict[str, Dict[str, object]] = {}
    setups["static-small"] = _run_setup(
        "static-small", config.min_replicas, config, model, dataset,
        predictor, rates, elastic=False,
    )
    setups["static-large"] = _run_setup(
        "static-large", config.max_replicas, config, model, dataset,
        predictor, rates, elastic=False,
    )
    setups["autoscale"] = _run_setup(
        "autoscale", config.min_replicas, config, model, dataset,
        predictor, rates, elastic=True,
    )

    cold_backends = (
        (THREAD_BACKEND,)
        if config.smoke
        else (THREAD_BACKEND, PROCESS_BACKEND)
    )
    cold_start = [
        _measure_cold_start(b, config, model, dataset, predictor)
        for b in cold_backends
    ]

    chaos_backend = THREAD_BACKEND if config.smoke else PROCESS_BACKEND
    drain_chaos = run_drain_chaos(config, chaos_backend)

    large = setups["static-large"]
    auto = setups["autoscale"]
    small = setups["static-small"]
    goodput_ratio = (
        auto["goodput"] / large["goodput"] if large["goodput"] else 0.0
    )
    cost_ratio = (
        auto["replica_seconds"] / large["replica_seconds"]
        if large["replica_seconds"]
        else 1.0
    )
    return {
        "config": {
            "steps": config.steps,
            "step_s": config.step_s,
            "trough_rps": config.trough_rps,
            "peak_rps": config.peak_rps,
            "flash_factor": config.flash_factor,
            "synthetic_work_s": config.synthetic_work_s,
            "latency_budget_s": config.latency_budget_s,
            "min_replicas": config.min_replicas,
            "max_replicas": config.max_replicas,
            "backend": config.backend,
            "seed": config.seed,
            "smoke": config.smoke,
            "min_goodput_ratio": config.min_goodput_ratio,
            "max_cost_ratio": config.max_cost_ratio,
        },
        "trace": [round(r, 1) for r in rates],
        "setups": setups,
        "goodput_ratio_vs_large": goodput_ratio,
        "cost_ratio_vs_large": cost_ratio,
        "goodput_vs_small": (
            auto["goodput"] - small["goodput"]
        ),
        "cold_start": cold_start,
        "drain_chaos": drain_chaos,
    }


def check_autoscale(results: Dict[str, object]) -> List[str]:
    """The acceptance bars, as failure strings (empty = pass)."""
    failures: List[str] = []
    config = results["config"]
    setups = results["setups"]
    for label, row in setups.items():
        if row["lost"]:
            failures.append(
                f"{row['lost']} request(s) lost in {label} "
                f"(first: {row['errors'][:1]})"
            )
        if row.get("shm_leaked_blocks"):
            failures.append(
                f"{row['shm_leaked_blocks']} shm block(s) leaked in {label}"
            )
    ratio = results["goodput_ratio_vs_large"]
    if ratio < config["min_goodput_ratio"]:
        failures.append(
            f"autoscale goodput is {ratio:.3f} of static-large "
            f"(need >= {config['min_goodput_ratio']:g})"
        )
    cost = results["cost_ratio_vs_large"]
    if cost > config["max_cost_ratio"]:
        failures.append(
            f"autoscale burned {cost:.3f} of static-large replica-seconds "
            f"(need <= {config['max_cost_ratio']:g})"
        )
    if results["goodput_vs_small"] <= 0:
        failures.append(
            "autoscale goodput does not strictly beat static-small "
            f"({setups['autoscale']['goodput']:.3f} vs "
            f"{setups['static-small']['goodput']:.3f})"
        )
    auto = setups["autoscale"]
    if not auto.get("scale_ups"):
        failures.append("autoscaler never scaled up on the trace")
    if not auto.get("scale_downs"):
        failures.append("autoscaler never scaled down on the trace")
    chaos = results["drain_chaos"]
    if chaos["lost"]:
        failures.append(
            f"{chaos['lost']} request(s) lost in the mid-drain kill episode "
            f"(first: {chaos['errors'][:1]})"
        )
    if chaos.get("shm_leaked_blocks"):
        failures.append(
            f"{chaos['shm_leaked_blocks']} shm block(s) leaked in the "
            "mid-drain kill episode"
        )
    return failures


def format_autoscale(results: Dict[str, object]) -> str:
    config = results["config"]
    lines = [
        f"trace: {config['steps']} x {config['step_s']:g}s steps, "
        f"{config['trough_rps']:g}-{config['peak_rps']:g} rps diurnal, "
        f"{config['flash_factor']:g}x flash crowd; "
        f"budget {config['latency_budget_s'] * 1e3:g} ms; "
        f"fleet {config['min_replicas']}-{config['max_replicas']} "
        f"({config['backend']})",
        f"{'setup':>14} {'requests':>8} {'served':>7} {'lost':>5} "
        f"{'goodput':>8} {'p99 s':>7} {'rep-s':>8}",
    ]
    for label in ("static-small", "static-large", "autoscale"):
        row = results["setups"][label]
        lines.append(
            f"{label:>14} {row['requests']:>8} {row['served']:>7} "
            f"{row['lost']:>5} {row['goodput']:>8.3f} "
            f"{row['p99_latency_s']:>7.3f} {row['replica_seconds']:>8.1f}"
        )
    auto = results["setups"]["autoscale"]
    lines.append(
        f"autoscale: {auto.get('scale_ups', 0)} up / "
        f"{auto.get('scale_downs', 0)} down decisions; fleet track "
        f"{auto.get('fleet', [])}"
    )
    lines.append(
        f"vs static-large: goodput x{results['goodput_ratio_vs_large']:.3f} "
        f"(need >= {config['min_goodput_ratio']:g}), cost "
        f"x{results['cost_ratio_vs_large']:.3f} "
        f"(need <= {config['max_cost_ratio']:g})"
    )
    for row in results["cold_start"]:
        if "error" in row:
            lines.append(
                f"cold start [{row['backend']}]: unavailable ({row['error']})"
            )
        else:
            lines.append(
                f"cold start [{row['backend']}]: "
                f"prewarmed {row['prewarmed_ms']:.1f} ms, "
                f"spawned {row['spawned_ms']:.1f} ms "
                f"(pool spawn {row['prewarm_spawn_ms']:.1f} ms)"
            )
    chaos = results["drain_chaos"]
    lines.append(
        f"mid-drain kill [{chaos['backend']}]: served={chaos['served']} "
        f"lost={chaos['lost']} died_midway="
        f"{chaos['drains_died_midway']:.0f} "
        f"failovers={chaos['failovers']:.0f}"
    )
    return "\n".join(lines)
