"""Cluster scaling experiment: throughput vs replica count, plus failover.

Two questions, answered with the in-process cluster tier
(:mod:`repro.cluster`):

**Does the router scale serving out?**  The same closed-loop classify
workload is driven against clusters of 1, 2 and 4 replicas.  Each
replica models a backend with ``synthetic_work_s`` of device-independent
service time plus the real model's forward pass; with the model fully
replicated, throughput should grow near-linearly with N.  The service
time is either a ``sleep`` (I/O-ish; thread replicas overlap it even on
one core) or a ``spin`` (compute-bound, GIL-holding; only the
``process`` backend's real OS processes overlap it — the multi-core
claim this experiment gates, with the thread backend as the recorded
baseline and the bar scaled to the cores actually present via
:func:`required_speedup`; below two cores :func:`skip_reason` says why the
process gate cannot be measured at all).

**Does failover preserve utility?**  One episode at the largest N is run
twice — untouched, and with one replica killed mid-episode.  The router
must fail the victim's traffic over to the surviving holders: zero
requests lost, and episode utility (summed serving confidence) within
``min_utility_ratio`` of the no-kill run.

``check_cluster_scaling`` turns those acceptance bars into failure
strings; the ``repro cluster`` CLI (and ``make cluster``) exits non-zero
on any of them.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..clock import stopwatch
from ..cluster import (
    PROCESS_BACKEND,
    THREAD_BACKEND,
    WORK_SLEEP,
    WORK_SPIN,
    RouterConfig,
    make_cluster,
)
from ..datasets import SyntheticImageConfig, make_image_dataset
from ..nn.resnet import StagedResNet, StagedResNetConfig
from ..nn.training import collect_stage_outputs
from ..scheduler.confidence import GPConfidencePredictor
from ..service import ClassifyRequest


@dataclass
class ClusterScalingConfig:
    replica_counts: Tuple[int, ...] = (1, 2, 4)
    num_requests: int = 96
    num_clients: int = 8
    #: per-call service time each replica burns; the scaling signal.
    synthetic_work_s: float = 0.004
    batch_per_request: int = 2
    seed: int = 0
    min_speedup_at_max: float = 2.5
    min_utility_ratio: float = 0.8
    #: ``thread`` (PR-5 in-process replicas) or ``process`` (one
    #: multiprocessing child per replica, shm tensor transport).
    backend: str = THREAD_BACKEND
    #: ``sleep`` models an I/O-ish backend (threads overlap it);
    #: ``spin`` holds the GIL — compute-bound load that only the
    #: process backend can overlap across cores.
    work_kind: str = WORK_SLEEP
    start_method: Optional[str] = None
    model_config: StagedResNetConfig = field(
        default_factory=lambda: StagedResNetConfig(
            num_classes=3,
            image_size=8,
            stage_channels=(4, 8),
            blocks_per_stage=1,
            seed=0,
        )
    )


def skip_reason(config: ClusterScalingConfig) -> Optional[str]:
    """Why this host cannot gate the process backend's multi-core claim
    (``None`` when it can).

    Compute-bound ``spin`` work on process replicas can only overlap on
    cores that exist; on one core any "speedup" measures transport
    overhead, so a pass would show nothing.
    """
    cores = os.cpu_count() or 1
    compute_bound = config.backend == PROCESS_BACKEND and config.work_kind == WORK_SPIN
    if compute_bound and cores < 2:
        return (
            f"compute-bound process scaling needs >= 2 cores; this host "
            f"has {cores}"
        )
    return None


def required_speedup(config: ClusterScalingConfig) -> float:
    """The speedup bar this host can honestly be held to.

    ``sleep`` work overlaps regardless of cores, so the configured bar
    applies as-is.  ``spin`` work is compute: the process backend can
    only scale with *physical cores actually present* (the CI gate runs
    the full ``min_speedup_at_max`` on multi-core runners; below two
    cores the gate is skipped, see :func:`skip_reason`), and the thread
    backend cannot scale it at all — it is the recorded baseline, gated
    only on zero lost requests.
    """
    n_max = max(config.replica_counts)
    if config.work_kind == WORK_SPIN:
        if config.backend == PROCESS_BACKEND:
            cores = os.cpu_count() or 1
            return min(config.min_speedup_at_max, 0.75 * min(cores, n_max))
        return 0.0
    return config.min_speedup_at_max


def _build_model(config: ClusterScalingConfig):
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


def _drive(
    router,
    gid: str,
    inputs: np.ndarray,
    config: ClusterScalingConfig,
    kill_after: Optional[int] = None,
) -> Dict[str, float]:
    """Closed-loop drive of ``num_requests`` classifies from
    ``num_clients`` threads; optionally kill one holder mid-episode."""
    per_client = config.num_requests // config.num_clients
    total = per_client * config.num_clients
    utilities: List[float] = []
    errors: List[BaseException] = []
    lock = threading.Lock()
    started = threading.Barrier(config.num_clients + 1)
    request_counter = [0]
    victim = router.holders(gid)[0]

    def client():
        started.wait()
        for _ in range(per_client):
            request = ClassifyRequest(
                model_id=gid, inputs=inputs[: config.batch_per_request]
            )
            try:
                response = router.classify(request)
            except BaseException as error:  # lost request: the failure mode
                with lock:
                    errors.append(error)
                continue
            with lock:
                utilities.append(float(np.mean(response.confidences)))
                request_counter[0] += 1
                if (
                    kill_after is not None
                    and request_counter[0] == kill_after
                ):
                    router.replicas[victim].kill()

    threads = [
        threading.Thread(target=client) for _ in range(config.num_clients)
    ]
    for t in threads:
        t.start()
    started.wait()
    elapsed = stopwatch()
    for t in threads:
        t.join(60.0)
    wall_s = elapsed()
    return {
        "requests": total,
        "served": len(utilities),
        "lost": len(errors),
        "wall_s": wall_s,
        "throughput_rps": len(utilities) / wall_s if wall_s > 0 else 0.0,
        "utility": float(sum(utilities)),
    }


def run_cluster_scaling(
    config: Optional[ClusterScalingConfig] = None,
) -> Dict[str, object]:
    config = config or ClusterScalingConfig()
    model, dataset, predictor = _build_model(config)
    inputs = dataset.inputs

    scaling: List[Dict[str, float]] = []
    for n in config.replica_counts:
        # Full replication: every replica can serve, so throughput
        # measures the router's balancing, not the replication factor.
        router_config = RouterConfig(replication_factor=n)
        with make_cluster(
            n,
            backend=config.backend,
            seed=config.seed,
            synthetic_work_s=config.synthetic_work_s,
            work_kind=config.work_kind,
            config=router_config,
            start_method=config.start_method,
        ) as router:
            gid = router.register_model(
                "scaling", model, train_set=dataset, predictor=predictor
            )
            row = _drive(router, gid, inputs, config)
            row["replicas"] = n
        row["shm_leaked_blocks"] = _shm_leaked_blocks(router)
        scaling.append(row)
    base_rps = scaling[0]["throughput_rps"]
    for row in scaling:
        row["speedup"] = row["throughput_rps"] / base_rps if base_rps else 0.0

    # Failover episode at the largest cluster, with and without a kill.
    n_max = max(config.replica_counts)
    episodes = {}
    for label, kill_after in (("no-kill", None), ("kill", None)):
        with make_cluster(
            n_max,
            backend=config.backend,
            seed=config.seed,
            synthetic_work_s=config.synthetic_work_s,
            work_kind=config.work_kind,
            config=RouterConfig(replication_factor=n_max),
            start_method=config.start_method,
        ) as router:
            gid = router.register_model(
                "failover", model, train_set=dataset, predictor=predictor
            )
            if label == "kill":
                kill_after = config.num_requests // 3
            row = _drive(
                router, gid, inputs, config, kill_after=kill_after
            )
            row["ejected"] = router.ejected()
            row["failovers"] = router.metrics.counter(
                "router.failovers"
            ).value
        # Leak accounting runs post-shutdown: the kill episode checks
        # that even a SIGKILL'd child left nothing behind.
        row["shm_leaked_blocks"] = _shm_leaked_blocks(router)
        episodes[label] = row

    utility_ratio = (
        episodes["kill"]["utility"] / episodes["no-kill"]["utility"]
        if episodes["no-kill"]["utility"]
        else 0.0
    )
    return {
        "config": {
            "replica_counts": list(config.replica_counts),
            "num_requests": config.num_requests,
            "num_clients": config.num_clients,
            "synthetic_work_s": config.synthetic_work_s,
            "min_speedup_at_max": config.min_speedup_at_max,
            "min_utility_ratio": config.min_utility_ratio,
            "backend": config.backend,
            "work_kind": config.work_kind,
            "cpu_count": os.cpu_count() or 1,
            "required_speedup": required_speedup(config),
        },
        "scaling": scaling,
        "failover": {
            "episodes": episodes,
            "utility_ratio": utility_ratio,
        },
    }


def _shm_leaked_blocks(router) -> int:
    """Total leaked shm blocks across replicas after shutdown (thread
    replicas have no arenas and count zero)."""
    leaked = 0
    for replica in router.replicas.values():
        report = getattr(replica, "shm_leak_report", None)
        if report is None:
            continue
        state = report()
        leaked += len(state.get("req_leaked", ()))
        if state.get("state") == "stopped":
            leaked += len(state.get("res_unreleased", ()))
        if state.get("segments_linked") and state.get("state") != "running":
            leaked += 1
    return leaked


def check_cluster_scaling(results: Dict[str, object]) -> List[str]:
    """The acceptance bars, as failure strings (empty = pass)."""
    failures: List[str] = []
    config = results["config"]
    scaling = results["scaling"]
    top = scaling[-1]
    required = config.get("required_speedup", config["min_speedup_at_max"])
    if required > 0 and top["speedup"] < required:
        failures.append(
            f"throughput at N={top['replicas']} is only "
            f"{top['speedup']:.2f}x N=1 "
            f"(need >= {required:g}x on this "
            f"{config.get('cpu_count', '?')}-core host)"
        )
    for row in scaling:
        if row["lost"]:
            failures.append(
                f"{row['lost']} request(s) lost at N={row['replicas']}"
            )
        if row.get("shm_leaked_blocks"):
            failures.append(
                f"{row['shm_leaked_blocks']} shm block(s) leaked at "
                f"N={row['replicas']}"
            )
    failover = results["failover"]
    kill = failover["episodes"]["kill"]
    if kill["lost"]:
        failures.append(
            f"{kill['lost']} request(s) lost in the kill episode"
        )
    if kill.get("shm_leaked_blocks"):
        failures.append(
            f"{kill['shm_leaked_blocks']} shm block(s) leaked after the "
            "replica kill"
        )
    if failover["utility_ratio"] < config["min_utility_ratio"]:
        failures.append(
            f"utility after killing a replica is "
            f"{failover['utility_ratio']:.2f} of the no-kill episode "
            f"(need >= {config['min_utility_ratio']:g})"
        )
    if not kill["ejected"]:
        failures.append("killed replica was never ejected")
    return failures


def format_cluster_scaling(results: Dict[str, object]) -> str:
    config = results["config"]
    lines = [
        f"backend={config.get('backend', 'thread')} "
        f"work={config.get('work_kind', 'sleep')} "
        f"({config.get('synthetic_work_s', 0) * 1e3:g} ms/call) "
        f"cores={config.get('cpu_count', '?')} "
        f"required_speedup={config.get('required_speedup', config['min_speedup_at_max']):g}x",
        f"{'replicas':>8} {'served':>7} {'lost':>5} "
        f"{'wall s':>8} {'req/s':>8} {'speedup':>8}",
    ]
    for row in results["scaling"]:
        lines.append(
            f"{row['replicas']:>8} {row['served']:>7} {row['lost']:>5} "
            f"{row['wall_s']:>8.3f} {row['throughput_rps']:>8.1f} "
            f"{row['speedup']:>7.2f}x"
        )
    failover = results["failover"]
    lines.append("")
    for label, row in failover["episodes"].items():
        lines.append(
            f"failover {label:8}: served={row['served']:<4} "
            f"lost={row['lost']:<3} utility={row['utility']:.1f} "
            f"failovers={row['failovers']:.0f} "
            f"ejected={row['ejected'] or '-'}"
        )
    lines.append(
        f"utility ratio (kill / no-kill): {failover['utility_ratio']:.3f}"
    )
    return "\n".join(lines)
