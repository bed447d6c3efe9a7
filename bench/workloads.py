"""The five benchmark workloads; one process runs one of them.

``run.py`` launches ``python bench/workloads.py <name> --seed S --seconds T
--trace 0|1 --out FILE`` in its own session.  Every run is self-contained:
set up (several times, the median is ``setup_s``) -> warm up -> measure in
windows -> check outputs -> tear down.  Inputs come from ``--seed`` only;
the program under ``src/repro`` receives generated arrays and is driven
through its public functions.  README.md says why each workload exists.
"""

from __future__ import annotations

import os

# One BLAS thread per process, set before numpy is first imported (replica
# children inherit it).  With OpenBLAS's default threading two busy process
# replicas on two cores fall from ~136 req/s to 12-21 req/s: the numbers
# would measure the OS scheduler, not the program.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _pin in BLAS_PINS:
    os.environ[_pin] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np

from repro import faults, telemetry
from repro.admission import AdmissionController, TenantQuota
from repro.cluster import RouterConfig, ShmArena, make_cluster
from repro.cluster.transport import decode_payload, encode_payload
from repro.nn.resnet import StagedResNet
from repro.scheduler.confidence import GPConfidencePredictor
from repro.scheduler.gen2 import Gen2Policy, StageBudgetPlanner
from repro.scheduler.policies import RTDeepIoTPolicy
from repro.scheduler.runtime import StagedInferenceRuntime
from repro.scheduler.simulator import PoolSimulator, SimulationConfig, TaskOracle
from repro.scheduler.task import TaskView
from repro.service import EugeneClient, EugeneService
from repro.service.messages import ClassifyRequest
from repro.workload import EngineConfig, TenantSpec, WorkloadEngine, generate_trace
from repro.workload.trace import FlashCrowd

import tracer as tracing
from run import process_table

#: client threads and replica processes never exceed this; recorded in meta.
PARALLEL = min(2, os.cpu_count() or 1)
#: a run is cut into this many windows, fewer if that would leave a window
#: less than WINDOW_OPERATIONS operations.
WINDOWS = 24
WINDOW_OPERATIONS = 5
SETUPS = 3

# --- generated inputs ---------------------------------------------------
CLASSES, CHANNELS, SIZE = 6, 3, 12
TRAIN_IMAGES, HELD_OUT = 240, 520
TRAIN = dict(epochs=3, learning_rate=2e-2, batch_size=32)


def make_images(rng: np.random.Generator, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """One random template per class plus noise: learnable in three
    epochs, so stage confidences rise with depth as the scheduler expects."""
    templates = rng.normal(0.0, 1.0, (CLASSES, CHANNELS, SIZE, SIZE))
    labels = rng.integers(0, CLASSES, count)
    images = templates[labels] + rng.normal(0.0, 0.8, (count, CHANNELS, SIZE, SIZE))
    return images, labels


# --- small statistics helpers ---------------------------------------------
def metric(value: float, unit: str, spread: Optional[float] = None,
           samples: Optional[int] = None) -> Dict[str, object]:
    entry: Dict[str, object] = {"value": float(value), "unit": unit}
    if spread is not None:
        entry["spread"] = float(spread)
    if samples is not None:
        entry["samples"] = int(samples)
    return entry


def relative_spread(values: Sequence[float]) -> float:
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def peak_rss_mb() -> float:
    """Largest resident set of this process plus that of its largest
    waited-for descendant (replica children), in MB (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Checks:
    """Output checks: every failure is counted and named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def operation(self, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.fail(problems)

    def fail(self, problems: Sequence[str]) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.extend(problems)

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail([message])


def timed_setups(build: Callable[[], object], teardown: Callable[[object], None],
                 repeats: int = SETUPS):
    """Set up ``repeats`` times; keep the last target for the measurement."""
    seconds = []
    target = None
    for _ in range(repeats):
        if target is not None:
            teardown(target)
        start = time.perf_counter()
        target = build()
        seconds.append(time.perf_counter() - start)
    return target, seconds


class Sample(NamedTuple):
    start: float
    end: float
    work: float
    kind: str


def closed_loop(operation: Callable[[], Tuple[float, str]], seconds: float) -> List[Sample]:
    """One client: the next operation starts when the previous one returned."""
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        if start >= deadline:
            return samples
        work, kind = operation()
        samples.append(Sample(start, time.perf_counter(), work, kind))


def measure(clients: Sequence[Callable[[], Tuple[float, str]]], seconds: float,
            warmup_s: float) -> List[Tuple[List[Sample], float]]:
    """Warm up, then run the closed-loop clients for ``seconds``.

    Returns up to ``WINDOWS`` windows of equal sample count in completion
    order, each with its wall length: cutting at completion instants keeps
    a window's rate free of the +-1 operation a cut by the clock would add.
    """
    closed_loop(clients[0], warmup_s)
    per_client: List[List[Sample]] = [[] for _ in clients]
    begin = time.perf_counter()

    def drive(index: int) -> None:
        per_client[index] = closed_loop(clients[index], seconds)

    threads = [threading.Thread(target=drive, args=(i,)) for i in range(1, len(clients))]
    for thread in threads:
        thread.start()
    drive(0)
    for thread in threads:
        thread.join()
    samples = sorted((s for batch in per_client for s in batch), key=lambda s: s.end)
    windows = []
    count = max(1, min(WINDOWS, len(samples) // WINDOW_OPERATIONS))
    for chunk in np.array_split(np.arange(len(samples)), count):
        window = [samples[i] for i in chunk]
        windows.append((window, window[-1].end - begin))
        begin = window[-1].end
    return windows


def latencies_ms(windows, kind: Optional[str] = None) -> List[float]:
    return [1e3 * (s.end - s.start) for window, _ in windows for s in window
            if kind is None or s.kind == kind]


def best_windows(values: Sequence[float], better: str, unit: str, samples: int):
    """The level the best quarter of the windows reach, and the windows'
    interquartile range relative to their median as ``spread``.

    The host slows down for seconds to a minute at a time (a fixed
    pure-Python loop ran 810-987 times per one-second window over two
    minutes; the same infer_seq target read 46-67 ms in consecutive 2.5 s
    passes), which can make a window worse but hardly better.  The best
    windows follow the program; the median of the run follows the host.
    The quarter and not the single best window: on one CPU infer_seq
    requests take 23 or 27 ms, in runs of a few, and the best window is
    the 23 ms one if the run had any.  Over 18 runs of infer_seq on one
    CPU the run-to-run spread of p50 / p95 / requests/s was 14 / 2.7 / 10 %
    for the best window, 2.4 / 3.2 / 5.1 % for this, 2.3 / 9.7 / 4.0 % for
    the median window.
    """
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    best = q1 if better == "lower" else q3
    entry = metric(best, unit, (q3 - q1) / q2, samples)
    entry["windows"] = [float(value) for value in values]  # in time order
    return entry


def end_to_end(windows, setup_seconds: Sequence[float]) -> Dict[str, object]:
    """The end-to-end metrics, which every workload reports."""
    n = len(latencies_ms(windows))
    return {
        "setup_s": metric(statistics.median(setup_seconds), "s",
                          relative_spread(setup_seconds), len(setup_seconds)),
        "latency_p50_ms": best_windows(
            [np.percentile(latencies_ms([w]), 50) for w in windows], "lower", "ms", n),
        "latency_p95_ms": best_windows(
            [np.percentile(latencies_ms([w]), 95) for w in windows], "lower", "ms", n),
        "throughput_per_s": best_windows(
            [len(window) / length for window, length in windows], "higher", "1/s", n),
        "work_per_s": best_windows(
            [sum(s.work for s in window) / length for window, length in windows],
            "higher", "1/s", n),
    }


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


# ======================================================================
# infer_seq / infer_batched / infer_deadline
# ======================================================================
INFER = {
    "infer_seq": dict(images=8, request=dict(max_batch=1)),
    "infer_batched": dict(images=32, request=dict(max_batch=16, drain_window_s=0.0)),
    # On one CPU 40 images need ~150 ms at full depth, so 100 ms binds at
    # 2 of 3 stages per task.  Sized to need ~100 ms (16 images on two CPUs)
    # the constraint binds or not with the host's speed of the minute.
    "infer_deadline": dict(images=40, request=dict(max_batch=1, latency_constraint_s=0.1)),
}
STAGES = 3
#: layers outermost first; policy and nn are leaves that overlap.
LIVE_ORDER = (
    ("service.client",), ("cluster.router",), ("service.server",),
    ("scheduler.runtime",), ("scheduler.policies", "nn"),
)


def check_infer(response, expected: np.ndarray, binding: bool) -> List[str]:
    problems = []
    for i, stages in enumerate(response.stages_executed):
        prediction = response.predictions[i]
        if response.shed[i] or stages > STAGES:
            problems.append(f"task {i}: shed or {stages} stages")
        elif stages == STAGES:
            if response.evicted[i] or response.degraded[i] or prediction != expected[i]:
                problems.append(f"task {i}: full depth but evicted/degraded/wrong class")
        elif not binding:
            problems.append(f"task {i}: {stages} stages under a constraint that never binds")
        elif stages == 0:
            if not response.evicted[i] or prediction is not None or response.degraded[i]:
                problems.append(f"task {i}: nothing computed yet not evicted-empty")
        elif not response.degraded[i] or response.served_stage[i] != stages - 1:
            problems.append(f"task {i}: early exit not flagged degraded")
    return problems


def pin_to_one_cpu() -> None:
    """Keep this process and its threads on the last CPU it may use.

    An infer() has a client, a replica, a scheduler, an eviction and two
    worker threads that pass the GIL around every few hundred microseconds.
    Spread over the two vCPUs of this host every hand-off is a wake-up
    across vCPUs, through the hypervisor: 8 images take 45-58 ms (ten runs
    spread 8-15 %, a disturbed host reads 100 ms), num_workers=1 is faster
    than 2, and stages completed in 100 ms differ by a third between two
    runs of one seed.  On one CPU they take 27.7-28.5 ms in that same
    disturbed stretch.  The GIL lets one thread run at a time anyway; the
    second CPU bought no speed, only the host's noise.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_infer(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    pin_to_one_cpu()
    spec = INFER[name]
    binding = "latency_constraint_s" in spec["request"]
    rng = np.random.default_rng(seed)
    images, labels = make_images(rng, TRAIN_IMAGES + HELD_OUT)
    held = images[TRAIN_IMAGES:]
    checks = Checks()

    def build():
        router = make_cluster(1, backend="thread",
                              config=RouterConfig(replication_factor=1))
        client = EugeneClient(router)
        trained = client.train(images[:TRAIN_IMAGES], labels[:TRAIN_IMAGES], **TRAIN)
        return router, client, trained.model_id

    (router, client, model_id), setup_seconds = timed_setups(
        build, lambda target: target[0].shutdown()
    )
    responses = []
    try:
        reference = client.classify(model_id, held, micro_batch=64).predictions

        def operation() -> Tuple[float, str]:
            index = rng.integers(0, len(held), spec["images"])
            try:
                response = client.infer(model_id, held[index], num_workers=2,
                                        **spec["request"])
            except Exception:  # the loop must keep measuring; counted as failed
                checks.operation([traceback.format_exc(limit=3)])
                return 0.0, "error"
            checks.operation(check_infer(response, reference[index], binding))
            responses.append(response)
            # Work = images answered.  Stage results delivered inside the
            # constraint would be the deadline metric, but runs of one seed
            # read 744, 839 and 870 of them per second (it follows the
            # host's speed more than in proportion), so that number is the
            # per-layer scheduler.runtime.stages_per_task.
            return float(len(index)), "infer"

        if not trace:
            metrics = end_to_end(measure([operation], seconds, warmup_s=1.0), setup_seconds)
        else:
            untraced = measure([operation], seconds / 3, warmup_s=1.0)
            del responses[:]
            with tracing.Tracer() as spans:
                spans.wrap(client, "infer", "service.client", root=True)
                spans.wrap(router, "infer", "cluster.router")
                spans.wrap(router.replicas["r0"].service, "infer", "service.server")
                spans.wrap(StagedInferenceRuntime, "submit", "scheduler.runtime")
                spans.wrap(StagedInferenceRuntime, "run_until_complete", "scheduler.runtime")
                spans.wrap(RTDeepIoTPolicy, "plan", "scheduler.policies",
                           size=lambda args: len(args[1]))
                spans.wrap(GPConfidencePredictor, "predict", "scheduler.confidence",
                           tally=True)
                spans.wrap(StagedResNet, "infer_stem", "nn")
                spans.wrap(StagedResNet, "infer_stage", "nn",
                           size=lambda args: len(args[1]))
                traced = measure([operation], 2 * seconds / 3, warmup_s=0.2)
            metrics = infer_layers(spans, responses, untraced, traced)
            write_chrome_trace(name, spans.spans)
    finally:
        router.shutdown()
    return result(checks, metrics)


def infer_layers(spans, responses, untraced, traced) -> Dict[str, object]:
    selfs: Dict[str, List[float]] = {}
    sums, runtime_spans, plan_calls, plan_busy, plan_views = [], [], [], [], []
    stage_calls, batch, nn_busy, stage_ms, overlap = [], [], [], [], []
    for request_spans in spans.by_request().values():
        root = next(s for s in request_spans if s.layer == "service.client")
        parts = tracing.self_times(request_spans, LIVE_ORDER)
        sums.append(sum(parts.values()) / root.duration)
        for layer, seconds in parts.items():
            selfs.setdefault(layer, []).append(1e3 * seconds)
        runtime_spans.append(1e3 * sum(
            s.duration for s in request_spans if s.layer == "scheduler.runtime"))
        plans = [s for s in request_spans if s.layer == "scheduler.policies"]
        plan_calls.append(len(plans))
        plan_busy.append(1e3 * sum(s.duration for s in plans))
        plan_views.extend(s.size for s in plans)
        stages = [s for s in request_spans if s.name == "nn.infer_stage"]
        stage_calls.append(len(stages))
        batch.extend(s.size for s in stages)
        stage_ms.extend(1e3 * s.duration for s in stages)
        calls = [s.interval for s in request_spans if s.layer == "nn"]
        busy = tracing.covered(calls)
        nn_busy.append(1e3 * busy)
        overlap.append(tracing.overlapped(calls) / busy if busy else 0.0)
    tasks = [(stages, response.evicted[i], response.degraded[i])
             for response in responses
             for i, stages in enumerate(response.stages_executed)]
    predict_calls = spans.tallies["scheduler.confidence.predict"][0]
    p50 = lambda windows: np.percentile(latencies_ms(windows), 50)  # noqa: E731
    n = len(sums)
    metrics = {
        f"{layer}.self_ms": metric(mean(selfs.get(layer, ())), "ms", samples=n)
        for (layer,) in LIVE_ORDER[:-1]
    }
    metrics.update({
        "scheduler.runtime.span_ms": metric(mean(runtime_spans), "ms", samples=n),
        "scheduler.runtime.batch_mean": metric(mean(batch), "count", samples=len(batch)),
        "scheduler.runtime.stages_per_task": metric(mean([t[0] for t in tasks]), "count", samples=len(tasks)),
        "scheduler.runtime.evicted_share": metric(mean([t[1] for t in tasks]), "ratio", samples=len(tasks)),
        "scheduler.runtime.degraded_share": metric(mean([t[2] for t in tasks]), "ratio", samples=len(tasks)),
        "scheduler.policies.plan_calls": metric(mean(plan_calls), "count", samples=n),
        "scheduler.policies.plan_busy_ms": metric(mean(plan_busy), "ms", samples=n),
        "scheduler.policies.plan_views_mean": metric(mean(plan_views), "count", samples=len(plan_views)),
        "scheduler.confidence.predict_calls": metric(predict_calls / max(1, n), "count", samples=n),
        "nn.stage_calls": metric(mean(stage_calls), "count", samples=n),
        "nn.busy_ms": metric(mean(nn_busy), "ms", samples=n),
        "nn.stage_ms_mean": metric(mean(stage_ms), "ms", samples=len(stage_ms)),
        "nn.overlap_share": metric(mean(overlap), "ratio", samples=n),
        "trace.sum_check": metric(mean(sums), "ratio", samples=n),
        "trace.overhead_share": metric(p50(traced) / p50(untraced) - 1.0, "ratio", samples=n),
    })
    return metrics


# ======================================================================
# cluster_rpc
# ======================================================================
SMALL, LARGE, MICRO_BATCH = 1, 64, 16
#: request sizes of 8 consecutive requests, shuffled per block: 25 % large.
BLOCK = (LARGE,) * 2 + (SMALL,) * 6
TENANTS = tuple(f"tenant-{i}" for i in range(PARALLEL))


def non_binding_admission() -> AdmissionController:
    return AdmissionController(
        per_tenant={name: TenantQuota(weight=1.0) for name in TENANTS},
        tenant_capacity_per_s=1e6,
    )


def wrong_classes(response, expected: np.ndarray, where: str = "") -> List[str]:
    wrong = int(np.sum(response.predictions != expected))
    return [f"{where}{wrong} of {len(expected)} classes differ"] if wrong else []


def classify_client(client, model_id, held, reference, rng, checks, sent):
    """A closed-loop classify client with its own seeded stream of 75 %
    1-image and 25 % 64-image requests; ``sent`` counts them per tenant.

    The mix is exact over every 8 requests: a 64-image request takes ten
    times as long as a 1-image one, so a window's requests/s would
    otherwise follow the share of large requests it happened to draw.
    """
    pending: List[int] = []

    def operation() -> Tuple[float, str]:
        if not pending:
            pending.extend(rng.permutation(BLOCK))
        size = int(pending.pop())
        index = rng.integers(0, len(held), size)
        sent[client.tenant] += 1
        try:
            response = client.classify(model_id, held[index], micro_batch=MICRO_BATCH)
        except Exception:  # the loop must keep measuring; counted as failed
            checks.operation([traceback.format_exc(limit=3)])
            return 0.0, "error"
        checks.operation(wrong_classes(response, reference[index]))
        return float(size), "small" if size == SMALL else "large"

    return operation


def run_cluster_rpc(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    images, labels = make_images(rng, TRAIN_IMAGES + HELD_OUT)
    held = images[TRAIN_IMAGES:]
    checks = Checks()

    def build():
        router = make_cluster(
            PARALLEL, backend="process", admission=non_binding_admission(),
            config=RouterConfig(replication_factor=PARALLEL),
        )
        try:
            clients = [EugeneClient(router, tenant=name) for name in TENANTS]
            trained = clients[0].train(images[:TRAIN_IMAGES], labels[:TRAIN_IMAGES], **TRAIN)
        except BaseException:
            router.shutdown()
            raise
        return router, clients, trained.model_id

    (router, clients, model_id), setup_seconds = timed_setups(
        build, lambda target: shutdown_cluster(target[0], checks)
    )
    # Requests per tenant over all phases; tenant-0 also sent the train()
    # of the set-up and sends the reference classify().
    sent = {name: 0 for name in TENANTS}
    sent[TENANTS[0]] = 2
    try:
        reference = clients[0].classify(model_id, held, micro_batch=64).predictions
        operations = [
            classify_client(client, model_id, held, reference,
                            np.random.default_rng([seed, i]), checks, sent)
            for i, client in enumerate(clients)
        ]
        if not trace:
            metrics = end_to_end(measure(operations, seconds, warmup_s=1.0), setup_seconds)
        else:
            metrics = cluster_layers(router, clients[0], model_id, held, reference,
                                     operations, sent, seed, seconds, checks)
        check_cluster_accounting(router, sent, checks)
    finally:
        leaked = shutdown_cluster(router, checks)
    if trace:
        metrics["cluster.shm.leaked_blocks"] = metric(leaked, "count")
    return result(checks, metrics)


def shutdown_cluster(router, checks: Checks) -> int:
    """Stop every replica, then count shm blocks and segments left behind."""
    router.shutdown()
    leaked = 0
    for replica in router.replicas.values():
        report = replica.shm_leak_report()
        leaked += len(report["req_leaked"]) + len(report["res_unreleased"])
        leaked += 1 if report.get("segments_linked") else 0
    checks.require(leaked == 0, f"{leaked} shm blocks/segments leaked")
    return leaked


def check_cluster_accounting(router, sent, checks: Checks) -> None:
    """Client-side counts equal the router's own, in total and per tenant."""
    snapshot = router.cluster_snapshot()
    counters = snapshot["counters"]
    calls = counters.get("router.calls.classify", 0) + counters.get("router.calls.train", 0)
    checks.require(calls == sum(sent.values()),
                   f"router saw {calls} calls, clients sent {sum(sent.values())}")
    checks.require(counters.get("router.rejected.classify", 0) == 0, "router rejected requests")
    for name, expected in sent.items():
        row = snapshot["tenants"][name]
        checks.require(
            row["calls"] == expected and row["served"] == expected and row["rejected"] == 0,
            f"{name}: router row {row['calls']}/{row['served']}/{row['rejected']} != {expected} sent",
        )
        checks.require(row["admission"]["admitted"] == expected and row["admission"]["rejected"] == 0,
                       f"{name}: admission row {row['admission']} != {expected} admitted")


def cluster_layers(router, client, model_id, held, reference, operations, sent,
                   seed, seconds, checks) -> Dict[str, object]:
    """Differential configuration: the same request stream through the
    service directly, a thread cluster and the process cluster."""
    entry = router.registry.get(model_id)
    direct = EugeneService()
    direct_id = direct.registry.register(
        name="bench", model=entry.model, train_set=entry.train_set,
        predictor=entry.predictor).model_id
    threaded = make_cluster(PARALLEL, backend="thread",
                            config=RouterConfig(replication_factor=PARALLEL))
    try:
        threaded_id = threaded.register_model(
            "bench", entry.model, train_set=entry.train_set, predictor=entry.predictor)
        thread_client = EugeneClient(threaded)
        targets = {
            "direct": lambda x: direct.classify(
                ClassifyRequest(model_id=direct_id, inputs=x, micro_batch=MICRO_BATCH)),
            "thread": lambda x: thread_client.classify(threaded_id, x, micro_batch=MICRO_BATCH),
            "process": lambda x: client.classify(model_id, x, micro_batch=MICRO_BATCH),
        }
        rng = np.random.default_rng([seed, 99])
        times: Dict[Tuple[str, str], List[float]] = {}
        deadline = time.perf_counter() + seconds / 2
        while time.perf_counter() < deadline:
            # One round: the same 12 small + 4 large requests on each target.
            batch = [rng.integers(0, len(held), LARGE if i % 4 == 3 else SMALL)
                     for i in range(16)]
            for target, call in targets.items():
                for index in batch:
                    start = time.perf_counter()
                    response = call(held[index])
                    elapsed = time.perf_counter() - start
                    kind = "small" if len(index) == SMALL else "large"
                    times.setdefault((target, kind), []).append(1e3 * elapsed)
                    checks.operation(wrong_classes(response, reference[index], f"{target}: "))
            sent[client.tenant] += len(batch)  # `client` went to the process router itself
    finally:
        threaded.shutdown()
    p50 = {key: float(np.percentile(values, 50)) for key, values in times.items()}

    # One traced closed-loop client on the process cluster.
    with tracing.Tracer() as spans:
        spans.wrap(client, "classify", "service.client", root=True)
        spans.wrap(router, "classify", "cluster.router")
        traced = measure(operations[:1], seconds / 4, warmup_s=0.2)
    write_chrome_trace("cluster_rpc", spans.spans)
    client_self, sums = [], []
    for request_spans in spans.by_request().values():
        parts = tracing.self_times(request_spans, LIVE_ORDER)
        root = next(s for s in request_spans if s.layer == "service.client")
        client_self.append(1e3 * parts["service.client"])
        sums.append(sum(parts.values()) / root.duration)
    # Tracing overhead on the small mode, where a fixed cost shows most.
    overhead = np.percentile(latencies_ms(traced, "small"), 50) / p50[("process", "small")] - 1.0

    # Balance under the benchmark's own client count.
    before = replica_calls(router)
    measure(operations, seconds / 4, warmup_s=0.2)
    delta = [after - b for after, b in zip(replica_calls(router), before)]
    admission_rows = router.admission.tenant_stats()
    fallbacks = router.cluster_snapshot()["counters"].get(
        "replica.transport.inline_fallbacks", 0)
    metrics = {
        "service.client.self_ms": metric(mean(client_self), "ms", samples=len(client_self)),
        "trace.sum_check": metric(mean(sums), "ratio", samples=len(sums)),
        "trace.overhead_share": metric(overhead, "ratio", samples=len(sums)),
        "cluster.router.balance_share": metric(max(delta) / max(1, sum(delta)), "ratio", samples=sum(delta)),
        "cluster.transport.inline_fallbacks": metric(fallbacks, "count"),
        "admission.controller.admit_calls": metric(
            sum(row["admitted"] + row["rejected"] for row in admission_rows.values()), "count"),
        "admission.controller.rejected": metric(
            sum(row["rejected"] for row in admission_rows.values()), "count"),
    }
    for kind, size in (("small", SMALL), ("large", LARGE)):
        n = len(times[("direct", kind)])
        metrics[f"nn.classify_ms_{kind}"] = metric(p50[("direct", kind)], "ms", samples=n)
        metrics[f"cluster.router.overhead_ms_{kind}"] = metric(
            p50[("thread", kind)] - p50[("direct", kind)], "ms", samples=n)
        metrics[f"cluster.transport.overhead_ms_{kind}"] = metric(
            p50[("process", kind)] - p50[("thread", kind)], "ms", samples=n)
        codec_us, nbytes = codec_round_trip(held[:size])
        metrics[f"cluster.transport.codec_us_{kind}"] = metric(codec_us, "us", samples=CODEC_REPEATS)
        # Computed from nbytes of the request and response arrays, not measured.
        metrics[f"cluster.transport.bytes_{kind}"] = metric(nbytes, "count")
    metrics["cluster.shm.alloc_free_us"] = metric(shm_alloc_free_us(held[:LARGE]), "us", samples=CODEC_REPEATS)
    return metrics


def replica_calls(router) -> List[float]:
    return [
        replica.metrics_registry().snapshot()["counters"].get("replica.calls.classify", 0)
        for replica in router.replicas.values()
    ]


CODEC_REPEATS = 300


def arena_step_us(step: Callable[[ShmArena], None]) -> float:
    """Median microseconds of ``step`` on a fresh arena it must leave empty."""
    arena = ShmArena.create()
    try:
        times = []
        for _ in range(CODEC_REPEATS):
            start = time.perf_counter()
            step(arena)
            times.append(time.perf_counter() - start)
        arena.assert_no_leaks()
    finally:
        arena.destroy()
    return 1e6 * statistics.median(times)


def codec_round_trip(inputs: np.ndarray) -> Tuple[float, int]:
    """encode_payload + decode_payload of one ClassifyRequest; returns
    (median microseconds, bytes moved both ways)."""
    request = ClassifyRequest(model_id="g1", inputs=inputs, micro_batch=MICRO_BATCH)

    def step(arena: ShmArena) -> None:
        encoded, refs = encode_payload(request, arena)
        decode_payload(encoded, arena)
        for ref in refs:
            arena.decref(ref.index, ref.generation)

    response_bytes = len(inputs) * (np.dtype(np.int64).itemsize + np.dtype(np.float64).itemsize)
    return arena_step_us(step), inputs.nbytes + response_bytes


def shm_alloc_free_us(array: np.ndarray) -> float:
    def step(arena: ShmArena) -> None:
        ref = arena.put_array(array)
        arena.read_array(ref)
        arena.decref(ref.index, ref.generation)

    return arena_step_us(step)


# ======================================================================
# des_offline
# ======================================================================
DES_VIRTUAL_S = 2.4
COMPLIANT, COMPLIANT_RATE, ABUSER_RATE, CAPACITY, SERVERS = 4, 350.0, 7000.0, 3500.0, 96
SIM_TASKS, SIM_WORKERS, SIM_CONCURRENCY, SIM_OVERLOAD, SIM_CONSTRAINT = 400, 4, 32, 3.0, 12.0


def tenant_specs() -> List[TenantSpec]:
    """Four compliant diurnal/bursty tenants and one abuser at 10x its share."""
    specs = [
        TenantSpec(
            name=f"tenant-{i:02d}", rate_per_s=COMPLIANT_RATE, weight=1.0,
            diurnal_amplitude=0.2, diurnal_period_s=60.0,
            diurnal_phase=2.0 * math.pi * i / COMPLIANT,
            burst_multiplier=1.5, burst_fraction=0.05, burst_mean_s=5.0,
            flash_group="des" if i % 2 == 0 else None,
        )
        for i in range(COMPLIANT)
    ]
    specs.append(TenantSpec(name="abuser", rate_per_s=ABUSER_RATE, weight=1.0))
    return specs


def des_inputs(seed: int):
    """Arrival trace (the program's own generator is a measured layer),
    synthetic stage-confidence oracles and Poisson task arrivals."""
    trace = generate_trace(
        tenant_specs(), duration_s=DES_VIRTUAL_S, seed=seed,
        flash_crowds=(FlashCrowd(group="des", start_s=0.3 * DES_VIRTUAL_S,
                                 duration_s=0.1 * DES_VIRTUAL_S, multiplier=1.3),),
    )
    rng = np.random.default_rng(seed)
    final = rng.uniform(0.45, 0.98, SIM_TASKS)
    confidences = np.empty((STAGES, SIM_TASKS))
    for stage in range(STAGES):
        rise = 0.45 + 0.55 * (stage + 1) / STAGES
        confidences[stage] = np.clip(
            final * rise + rng.normal(0.0, 0.02, SIM_TASKS), 0.05, 0.995)
    oracles = [
        TaskOracle(
            confidences=tuple(confidences[:, i]),
            predictions=(1,) * STAGES,
            correct=tuple(bool(rng.random() < confidences[s, i]) for s in range(STAGES)),
        )
        for i in range(SIM_TASKS)
    ]
    predictor = GPConfidencePredictor(num_classes=10, max_fit_points=120, seed=seed).fit(confidences)
    rate = SIM_OVERLOAD * SIM_WORKERS / STAGES  # unit stage times
    arrivals = list(np.cumsum(rng.exponential(1.0 / rate, SIM_TASKS)))
    return trace, oracles, predictor, arrivals


class Replay:
    """One cycle = the engine pass and the two simulator passes of the
    offline gates, each on fresh state."""

    def __init__(self, inputs) -> None:
        self.trace, self.oracles, self.predictor, self.arrivals = inputs
        self.names = list(self.trace.tenant_names)
        self.first: Optional[tuple] = None

    def engine(self):
        admission = AdmissionController(
            per_tenant={name: TenantQuota(weight=1.0) for name in self.names},
            tenant_capacity_per_s=CAPACITY, tenant_capacity_burst=0.05 * CAPACITY,
        )
        engine = WorkloadEngine(
            config=EngineConfig(servers=SERVERS, max_queue=50_000, slo_s=1.0),
            admission=admission, weights={name: 1.0 for name in self.names},
            seed=self.trace.seed,
        )
        return engine.run(self.trace)

    def policy(self, gen2: bool):
        if gen2:
            return Gen2Policy(predictor=self.predictor, num_workers=SIM_WORKERS, stage_time_s=1.0)
        return RTDeepIoTPolicy(self.predictor, k=1)

    def simulate(self, gen2: bool):
        config = SimulationConfig(
            num_workers=SIM_WORKERS, concurrency=SIM_CONCURRENCY,
            stage_times=(1.0,) * STAGES, latency_constraint=SIM_CONSTRAINT, anytime=gen2,
        )
        return PoolSimulator(self.oracles, self.policy(gen2), config,
                             arrival_times=self.arrivals).run()

    def check(self, report, gen2, utility) -> List[str]:
        outcome = (
            report.total_arrivals, report.total_admitted, report.total_rejected,
            report.total_served, gen2.accrued_utility, utility.accrued_utility,
        )
        if self.first is None:
            self.first = outcome
        problems = []
        if not report.accounting_exact:
            problems.append(f"engine accounting inexact: {report.accounting_detail}")
        if report.total_admitted + report.total_rejected != len(self.trace):
            problems.append("admitted + rejected != arrivals")
        if gen2.num_late or utility.num_late:
            problems.append("a response was served after its deadline")
        if outcome != self.first:
            problems.append(f"pass differs from the first: {outcome} != {self.first}")
        return problems

    def cycle(self):
        report = self.engine()
        gen2 = self.simulate(True)
        utility = self.simulate(False)
        return report, gen2, utility


def run_des_offline(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    checks = Checks()
    # Set-up takes ~20 ms here, so it is repeated more often than a training.
    inputs, setup_seconds = timed_setups(lambda: des_inputs(seed), lambda target: None,
                                         repeats=5 * SETUPS)
    replay = Replay(inputs)
    events = len(replay.trace) + 2 * SIM_TASKS

    def operation() -> Tuple[float, str]:
        checks.operation(replay.check(*replay.cycle()))
        return float(events), "cycle"

    if not trace:
        return result(checks, end_to_end(measure([operation], seconds, warmup_s=0.5), setup_seconds))
    return result(checks, des_layers(replay, operation, seed, seconds, checks))


def des_layers(replay: Replay, operation, seed: int, seconds: float, checks: Checks):
    start = time.perf_counter()
    generated = des_inputs(seed)[0]
    # Upper bound on the trace generator's share of set-up: the oracles
    # and the GP fit are in this time too.
    gen_rate = len(generated) / (time.perf_counter() - start)

    # Untraced: each phase timed on its own.
    phases: Dict[str, List[float]] = {"engine": [], "gen2": [], "utility": []}
    outcome = None
    deadline = time.perf_counter() + seconds / 3
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        report = replay.engine()
        t1 = time.perf_counter()
        gen2 = replay.simulate(True)
        t2 = time.perf_counter()
        utility = replay.simulate(False)
        t3 = time.perf_counter()
        phases["engine"].append(t1 - t0)
        phases["gen2"].append(t2 - t1)
        phases["utility"].append(t3 - t2)
        checks.operation(replay.check(report, gen2, utility))
        outcome = (report, gen2, utility)
    run_s = {name: statistics.median(values) for name, values in phases.items()}
    untraced_cycle = sum(run_s.values())

    with tracing.Tracer() as spans:
        spans.wrap(WorkloadEngine, "run", "workload.engine", root=True)
        spans.wrap(PoolSimulator, "run", "scheduler.simulator", root=True)
        spans.wrap(AdmissionController, "admit", "admission.controller", tally=True)
        spans.wrap(AdmissionController, "release", "admission.controller", tally=True)
        spans.wrap(StageBudgetPlanner, "plan_budgets", "scheduler.gen2",
                   size=lambda args: len(args[1]))
        spans.wrap(RTDeepIoTPolicy, "plan", "scheduler.policies",
                   size=lambda args: len(args[1]))
        traced = measure([operation], seconds / 3, warmup_s=0.0)
    write_chrome_trace("des_offline", spans.spans)
    cycles = len(latencies_ms(traced))
    traced_cycle = 1e-3 * statistics.median(latencies_ms(traced))
    engine_s = sum(s.duration for s in spans.spans if s.layer == "workload.engine")
    admit_calls, admit_s = spans.tallies["admission.controller.admit"]
    release_s = spans.tallies["admission.controller.release"][1]
    plans = [s for s in spans.spans if s.layer == "scheduler.gen2"]
    # A cycle simulates gen-2 first, then the utility policy.
    sims = [s for s in spans.spans if s.layer == "scheduler.simulator"]
    gen2_s = sum(s.duration for s in sims[0::2])

    report, gen2, utility = outcome
    metrics = {
        "workload.trace.gen_arrivals_per_s": metric(gen_rate, "1/s", samples=len(generated)),
        "workload.engine.run_s": metric(run_s["engine"], "s", samples=len(phases["engine"])),
        "workload.engine.arrivals_per_s": metric(len(replay.trace) / run_s["engine"], "1/s"),
        "admission.controller.admit_calls": metric(admit_calls / max(1, cycles), "count", samples=cycles),
        "admission.controller.admit_busy_share": metric(
            (admit_s + release_s) / engine_s if engine_s else 0.0, "ratio", samples=cycles),
        "admission.controller.admit_ns": metric(admit_release_ns(replay.names), "ns", samples=ADMIT_REPEATS),
        "admission.controller.rejected_share": metric(
            report.total_rejected / report.total_arrivals, "ratio", samples=report.total_arrivals),
        "scheduler.simulator.run_s_gen2": metric(run_s["gen2"], "s", samples=len(phases["gen2"])),
        "scheduler.simulator.run_s_utility": metric(run_s["utility"], "s", samples=len(phases["utility"])),
        "scheduler.simulator.tasks_per_s": metric(
            2 * SIM_TASKS / (run_s["gen2"] + run_s["utility"]), "1/s"),
        "scheduler.gen2.plan_calls": metric(len(plans) / max(1, cycles), "count", samples=cycles),
        "scheduler.gen2.plan_busy_share": metric(
            sum(p.duration for p in plans) / gen2_s if gen2_s else 0.0, "ratio", samples=cycles),
        "scheduler.gen2.plan_views_mean": metric(mean([p.size for p in plans]), "count", samples=len(plans)),
        "scheduler.confidence.predict_ns": metric(predict_ns(replay.predictor), "ns", samples=PREDICT_REPEATS),
        "scheduler.simulator.utility_gen2": metric(gen2.accrued_utility, "count"),
        "scheduler.simulator.utility_utility": metric(utility.accrued_utility, "count"),
        "scheduler.simulator.late": metric(gen2.num_late + utility.num_late, "count"),
        "trace.overhead_share": metric(traced_cycle / untraced_cycle - 1.0, "ratio", samples=cycles),
    }
    for depth in (10, 100, 1000):
        views = synthetic_views(np.random.default_rng([seed, depth]), depth)
        metrics[f"scheduler.gen2.plan_us_d{depth}"] = metric(plan_us(replay.policy(True), views), "us")
        metrics[f"scheduler.policies.plan_us_d{depth}"] = metric(plan_us(replay.policy(False), views), "us")
    return metrics


def synthetic_views(rng: np.random.Generator, depth: int) -> List[TaskView]:
    """A queue of ``depth`` runnable tasks at mixed progress and slack."""
    views = []
    for task in range(depth):
        done = int(rng.integers(0, STAGES))
        views.append(TaskView(
            task_id=task, arrival_time=0.0, deadline=float(rng.uniform(2.0, 12.0)),
            num_stages=STAGES, stages_done=done,
            confidences=tuple(np.sort(rng.uniform(0.3, 0.95, done))),
        ))
    return views


def plan_us(policy, views: Sequence[TaskView]) -> float:
    """Median microseconds of one ``plan()`` over ``views``."""
    times = []
    budget = time.perf_counter() + 0.3
    while len(times) < 5 or (time.perf_counter() < budget and len(times) < 200):
        start = time.perf_counter()
        policy.plan(views, 1.0)
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


PREDICT_REPEATS = 20_000
ADMIT_REPEATS = 20_000


def predict_ns(predictor) -> float:
    start = time.perf_counter()
    for i in range(PREDICT_REPEATS):
        predictor.predict(0, 0.3 + 0.6 * (i % 100) / 100.0, 2)
    return 1e9 * (time.perf_counter() - start) / PREDICT_REPEATS


def admit_release_ns(names: Sequence[str]) -> float:
    """Tenant-stamped admit + release on virtual time, never rejecting."""
    controller = AdmissionController(
        per_tenant={name: TenantQuota(weight=1.0) for name in names},
        tenant_capacity_per_s=1e9,
    )
    start = time.perf_counter()
    for i in range(ADMIT_REPEATS):
        tenant = names[i % len(names)]
        controller.admit("classify", tenant=tenant, now=1e-3 * i)
        controller.release("classify", tenant=tenant)
    return 1e9 * (time.perf_counter() - start) / ADMIT_REPEATS


# ======================================================================
# Result, output, process hygiene
# ======================================================================
def result(checks: Checks, metrics: Dict[str, object]) -> Dict[str, object]:
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.messages,
        "metrics": metrics,
    }


def write_chrome_trace(workload: str, spans) -> None:
    path = BENCH / "out" / f"trace_{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"traceEvents": tracing.chrome_events(spans)}))


def stop_multiprocessing_helpers() -> None:
    """The forkserver and the resource tracker outlive router.shutdown();
    stop them (forkserver first: it holds the tracker's pipe) and wait."""
    from multiprocessing import forkserver, resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def child_pids() -> List[int]:
    own = os.getpid()
    return [pid for pid, row in process_table().items() if row["ppid"] == own]


WORKLOADS = {
    "infer_seq": lambda *args: run_infer("infer_seq", *args),
    "infer_batched": lambda *args: run_infer("infer_batched", *args),
    "infer_deadline": lambda *args: run_infer("infer_deadline", *args),
    "cluster_rpc": run_cluster_rpc,
    "des_offline": run_des_offline,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    # The numbers are only comparable with telemetry off and no fault armed.
    telemetry.disable()
    if faults.armed():
        raise SystemExit("a fault plan is armed; refusing to measure")

    try:
        document = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    finally:
        stop_multiprocessing_helpers()
    if not args.trace:
        # After tear-down, so that the replica children have been waited for.
        document["metrics"]["peak_rss_mb"] = metric(peak_rss_mb(), "MB")
    leftover = child_pids()
    if leftover:
        document["correct"] = False
        document["failed"] += 1
        document["failures"].append(f"child processes left running: {leftover}")
    document.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        meta={
            "nproc": os.cpu_count(), "cpus": sorted(os.sched_getaffinity(0)),
            "parallel": PARALLEL, "windows": WINDOWS,
            "setups": SETUPS, "python": platform.python_version(),
            "numpy": np.__version__, "blas_pins": {pin: os.environ[pin] for pin in BLAS_PINS},
            "train_images": TRAIN_IMAGES, "held_out_images": HELD_OUT,
        },
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=1))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
