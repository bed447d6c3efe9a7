"""Chaos invariants of the process backend: real corpses, scribbled shm.

The thread-backend chaos suite (tests/cluster/test_failover.py) pins the
router's failover contract against *simulated* crashes.  Here the same
contract is held against the process backend, where the failure modes are
physical: a crash fault is an actual SIGKILL of the child, and a corrupt
fault scribbles the generation tags of the request's shared-memory blocks
so the child's decode fails validation.  Pinned:

- **shm corruption** at ``cluster.replica.call`` is detected (typed,
  retryable), failed over, and costs no request — and the poisoned
  replica keeps serving afterwards (the block is reclaimed);
- **child SIGKILL** mid-stream loses no request; the corpse is ejected
  and every shm segment is reclaimed even though the child never ran
  its shutdown path — the acceptance bar for the leak checker;
- the **watchdog** respawns an externally SIGKILL'd child under a live
  router, and traffic keeps flowing throughout;
- a **lost response** in process mode places exactly one model: the
  at-least-once redelivery is deduplicated by the service idempotency
  window *inside the child*, proving the dedup state survives the
  pickle boundary.
"""

import os
import signal

import numpy as np
import pytest

from repro import faults, telemetry
from repro.cluster import CALL_SITE, RouterConfig, make_cluster
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.nn.data import Dataset
from repro.nn.resnet import StagedResNet, StagedResNetConfig
from repro.nn.training import collect_stage_outputs
from repro.scheduler.confidence import GPConfidencePredictor
from repro.service import ClassifyRequest, EugeneClient

TINY = StagedResNetConfig(
    num_classes=3, image_size=8, stage_channels=(4, 8), blocks_per_stage=1, seed=0
)


@pytest.fixture(autouse=True)
def clean_sessions():
    faults.uninstall()
    telemetry.disable()
    yield
    faults.uninstall()
    telemetry.disable()


@pytest.fixture(scope="module")
def tiny_model():
    """A trained-enough staged model + dataset + predictor, built fault-free."""
    rng = np.random.default_rng(0)
    inputs = rng.normal(size=(16, TINY.in_channels, 8, 8))
    labels = rng.integers(0, 3, size=16)
    model = StagedResNet(TINY)
    dataset = Dataset(inputs, labels)
    predictor = GPConfidencePredictor(num_classes=3, seed=0).fit(
        collect_stage_outputs(model, dataset)["confidences"]
    )
    return model, dataset, predictor


def proc_cluster(n, **kwargs):
    kwargs.setdefault(
        "config", RouterConfig(replication_factor=2, call_timeout_s=120.0)
    )
    return make_cluster(n, backend="process", **kwargs)


# Bounded polling for real child-process transitions (see tests/conftest.py).
from repro.clock import wait_until  # noqa: E402


class TestShmCorruption:
    def test_corruption_fails_over_and_the_replica_keeps_serving(
        self, tiny_model
    ):
        model, dataset, predictor = tiny_model
        plan = FaultPlan(
            seed=0, specs=[FaultSpec(CALL_SITE, faults.CORRUPT, at=(1,))]
        )
        with proc_cluster(2) as router:
            gid = router.register_model(
                "poison", model, train_set=dataset, predictor=predictor
            )
            request = ClassifyRequest(model_id=gid, inputs=dataset.inputs[:4])
            with faults.plan_session(plan):
                responses = [router.classify(request) for _ in range(6)]
            assert len(responses) == 6  # corruption cost zero requests
            assert all(len(r.predictions) == 4 for r in responses)
            corruptions = sum(
                r.metrics.snapshot()["counters"].get("replica.shm_corruptions", 0)
                for r in router.replicas.values()
            )
            assert corruptions == 1
            # The poisoned request was detected, not served from garbage.
            assert router.metrics.counter("router.failovers").value >= 1
            # Both children survived the scribble and still serve.
            assert all(r.alive for r in router.replicas.values())
            router.classify(request)
        for replica in router.replicas.values():
            replica.assert_no_shm_leaks()


class TestChildSigkill:
    def test_kill_mid_stream_loses_no_request_and_no_shm_block(
        self, tiny_model
    ):
        model, dataset, predictor = tiny_model
        plan = FaultPlan(
            seed=0, specs=[FaultSpec(CALL_SITE, faults.CRASH, at=(5,))]
        )
        with proc_cluster(3) as router:
            gid = router.register_model(
                "corpse", model, train_set=dataset, predictor=predictor
            )
            request = ClassifyRequest(model_id=gid, inputs=dataset.inputs[:2])
            with faults.plan_session(plan):
                responses = [router.classify(request) for _ in range(20)]
            assert len(responses) == 20  # no request lost
            assert all(len(r.predictions) == 2 for r in responses)
            dead = [rid for rid, r in router.replicas.items() if not r.alive]
            assert len(dead) == 1  # the crash was a real SIGKILL
            victim = router.replicas[dead[0]]
            assert wait_until(lambda: not victim._proc.is_alive())
            assert router.metrics.counter("router.failovers").value >= 1
            router.tick()  # heartbeat round buries the corpse
            assert router.ejected() == dead
        # The acceptance bar: zero leaked blocks and no linked segments,
        # *including* the replica whose child never ran shutdown.
        for replica in router.replicas.values():
            replica.assert_no_shm_leaks()


class TestWatchdogUnderRouter:
    def test_external_sigkill_is_respawned_while_traffic_flows(
        self, tiny_model
    ):
        model, dataset, predictor = tiny_model
        with proc_cluster(2, auto_respawn=True) as router:
            gid = router.register_model(
                "phoenix", model, train_set=dataset, predictor=predictor
            )
            request = ClassifyRequest(model_id=gid, inputs=dataset.inputs[:2])
            router.classify(request)
            victim_id = router.holders(gid)[0]
            victim = router.replicas[victim_id]
            first_pid = victim.pid
            os.kill(first_pid, signal.SIGKILL)
            # Traffic keeps flowing throughout: the surviving holder (or,
            # post-respawn, either replica) answers every call.
            for _ in range(5):
                response = router.classify(request)
                assert len(response.predictions) == 2
            assert wait_until(
                lambda: victim.alive and victim.pid != first_pid
            ), "watchdog never respawned the child"
            assert victim.ping()
            assert (
                victim.metrics.snapshot()["counters"].get("replica.respawns", 0)
                >= 1
            )
        for replica in router.replicas.values():
            replica.assert_no_shm_leaks()


class TestExactlyOnceInProcessMode:
    def test_lost_train_response_places_exactly_one_model(self, tiny_model):
        # The at-least-once hazard with a real pickle boundary: the child
        # *executes* the train, the answer is dropped, the client's retry
        # redelivers the same idempotency key, and the dedup window inside
        # the child recognises it — one model, no orphan, no double train.
        _, dataset, _ = tiny_model
        plan = FaultPlan(
            seed=0, specs=[FaultSpec(CALL_SITE, faults.DROP, at=(0,))]
        )
        with proc_cluster(2) as router:
            client = EugeneClient(
                router,
                retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            )
            with faults.plan_session(plan):
                response = client.train(
                    dataset.inputs,
                    dataset.labels,
                    model_config=TINY,
                    epochs=1,
                    name="once",
                )
            assert router.model_ids() == [response.model_id]
            lost = sum(
                r.metrics.snapshot()["counters"].get("replica.responses_lost", 0)
                for r in router.replicas.values()
            )
            assert lost == 1
            for rid in router.holders(response.model_id):
                assert router.replicas[rid].has_model(response.model_id)
        for replica in router.replicas.values():
            replica.assert_no_shm_leaks()
