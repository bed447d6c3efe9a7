"""ProcessReplica: a full service in a child process, leak-checked.

Real children are slow to spawn (~1–2 s under forkserver), so the happy
path shares one module-scoped replica with a trained model; destructive
tests (kill, watchdog respawn) each pay for their own.  What's pinned:

- the endpoint surface works across the boundary and large payloads take
  the shm arenas (transport counters prove it);
- the control plane (has/fetch/install/rekey/drop/predictor/ping) works
  against the live child — it is what the router's placement, registry
  view and re-replication are built on;
- child metrics fold into the parent's ``metrics_registry()`` view;
- every exit path — graceful shutdown, explicit kill, external SIGKILL —
  leaves zero leaked shm blocks and no linked OS segments;
- the watchdog respawns a SIGKILL'd child and the fresh child serves.
"""

import os
import signal

import numpy as np
import pytest

from repro.cluster import ProcessReplica, ReplicaDownError
from repro.nn.resnet import StagedResNetConfig
from repro.service.messages import ClassifyRequest, TrainRequest

TINY = StagedResNetConfig(
    num_classes=3, image_size=8, stage_channels=(4, 8), blocks_per_stage=1, seed=0
)

rng = np.random.default_rng(0)
INPUTS = rng.normal(size=(12, TINY.in_channels, 8, 8))
LABELS = rng.integers(0, 3, size=12)


# Bounded polling for real child-process transitions (see tests/conftest.py).
from repro.clock import wait_until  # noqa: E402


@pytest.fixture(scope="module")
def replica():
    r = ProcessReplica("proc-test", seed=0)
    try:
        yield r
    finally:
        if r.alive:
            r.shutdown()


@pytest.fixture(scope="module")
def trained(replica):
    response = replica.call(
        "train",
        TrainRequest(inputs=INPUTS, labels=LABELS, model_config=TINY, epochs=1),
        timeout=180,
    )
    return response.model_id


class TestServing:
    def test_child_is_a_real_process(self, replica):
        assert replica.alive
        assert replica.pid != os.getpid()
        assert replica.ping()

    def test_train_then_classify_across_the_boundary(self, replica, trained):
        response = replica.call(
            "classify", ClassifyRequest(model_id=trained, inputs=INPUTS[:4]), timeout=60
        )
        assert response.predictions.shape == (4,)
        assert np.all((response.confidences > 0) & (response.confidences <= 1))

    def test_large_payloads_ride_the_arena(self, replica, trained):
        big = rng.normal(size=(48, TINY.in_channels, 8, 8))
        replica.call(
            "classify", ClassifyRequest(model_id=trained, inputs=big), timeout=60
        )
        sent = replica.metrics.snapshot()["counters"]
        assert sent.get("replica.transport.calls_sent", 0) >= 1
        # The 96 KiB input must not have fallen back to inline pickling.
        assert sent.get("replica.transport.inline_fallbacks", 0) == 0

    def test_unknown_model_raises_the_service_error(self, replica):
        with pytest.raises(KeyError):
            replica.call(
                "classify",
                ClassifyRequest(model_id="no-such-model", inputs=INPUTS[:2]),
                timeout=60,
            )

    def test_control_plane_against_the_live_child(self, replica, trained):
        assert replica.has_model(trained)
        assert not replica.has_model("no-such-model")
        entry = replica.fetch_entry(trained)
        assert entry.model_id == trained
        replica.rekey(trained, "global-id")
        assert replica.has_model("global-id") and not replica.has_model(trained)
        assert replica.predictor_for("global-id") is not None
        replica.rekey("global-id", trained)  # restore for later tests

    def test_child_metrics_fold_into_the_parent_view(self, replica, trained):
        merged = replica.metrics_registry().snapshot()["counters"]
        assert merged.get("replica.calls.train", 0) >= 1
        assert merged.get("replica.calls.classify", 0) >= 1


class TestExitPaths:
    def test_graceful_shutdown_leaves_no_leaks(self):
        r = ProcessReplica("proc-clean", seed=0)
        with pytest.raises(KeyError):
            r.call(
                "classify",
                ClassifyRequest(model_id="missing", inputs=np.zeros((4, 3, 8, 8))),
                timeout=60,
            )
        r.shutdown()
        assert not r.alive
        report = r.shm_leak_report()
        assert report["state"] == "stopped"
        assert report["req_leaked"] == [] and report["res_unreleased"] == []
        assert not report["segments_linked"]
        r.assert_no_shm_leaks()

    def test_kill_fails_inflight_calls_and_leaks_nothing(self):
        r = ProcessReplica("proc-kill", seed=0, synthetic_work_s=0.5)
        future = r.submit(
            "classify",
            ClassifyRequest(model_id="missing", inputs=np.zeros((4, 3, 8, 8))),
        )
        # The call is in flight (whether the child dequeued it yet or
        # not, the future must settle after the kill — never hang).
        assert wait_until(lambda: r.outstanding >= 1, timeout=5.0)
        r.kill()
        with pytest.raises((ReplicaDownError, KeyError)):
            # ReplicaDownError if the kill won the race, the service's
            # KeyError if the child answered first — never a hang.
            future.result(10)
        assert wait_until(lambda: not r.alive)
        r.shutdown()
        r.assert_no_shm_leaks()

    def test_calls_after_death_fail_fast(self):
        r = ProcessReplica("proc-dead", seed=0)
        r.kill()
        assert wait_until(lambda: not r.alive)
        with pytest.raises(ReplicaDownError):
            r.call(
                "classify",
                ClassifyRequest(model_id="missing", inputs=np.zeros((2, 3, 8, 8))),
                timeout=10,
            )
        r.shutdown()
        r.assert_no_shm_leaks()


class TestWatchdog:
    def test_sigkill_triggers_respawn_and_the_fresh_child_serves(self):
        r = ProcessReplica("proc-watchdog", seed=0, auto_respawn=True)
        first_pid = r.pid
        assert r.ping()
        os.kill(first_pid, signal.SIGKILL)
        assert wait_until(lambda: r.alive and r.pid != first_pid), "no respawn"
        assert r.ping()
        counters = r.metrics.snapshot()["counters"]
        assert counters.get("replica.unexpected_exits", 0) >= 1
        assert counters.get("replica.respawns", 0) >= 1
        with pytest.raises(KeyError):  # the fresh child really serves
            r.call(
                "classify",
                ClassifyRequest(model_id="missing", inputs=np.zeros((2, 3, 8, 8))),
                timeout=60,
            )
        r.shutdown()
        r.assert_no_shm_leaks()
