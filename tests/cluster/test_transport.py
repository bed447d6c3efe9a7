"""Every service message survives the process-replica boundary.

The process backend pickles request/response dataclasses over pipes and
detours their large ndarray fields through a shared-memory arena
(:mod:`repro.cluster.transport`).  A dataclass that silently loses a
field in transit corrupts results without any error — so these tests pin,
for all eleven endpoints' request *and* response types (plus
``RejectedResponse`` and the typed errors that cross the boundary):

- plain ``pickle`` round-trips reproduce every field exactly;
- the shm path (``encode_payload`` → pickle → ``decode_payload``)
  reproduces every field exactly, through a *separately attached* arena
  handle as a real second process would see it;
- encoding never mutates the original (retries re-encode pristine
  requests) and releases leave the arena leak-free;
- exceptions keep their typed payloads (``retry_after_s``,
  ``last_error``) instead of degrading to bare messages.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.admission import AdmissionConfig
from repro.cluster import (
    ReplicaDownError,
    ResponseLostError,
    ShmArena,
    ShmStaleBlockError,
)
from repro.cluster.transport import (
    MIN_SHM_BYTES,
    decode_payload,
    encode_payload,
    safe_exception,
)
from repro.faults import (
    BackpressureError,
    CircuitOpenError,
    RequestTimeoutError,
    RetriesExhaustedError,
    TransientServiceError,
)
from repro.nn.resnet import StagedResNetConfig
from repro.service.messages import (
    CalibrateRequest,
    CalibrateResponse,
    ClassifyRequest,
    ClassifyResponse,
    DeepSenseTrainRequest,
    DeepSenseTrainResponse,
    DeleteRequest,
    DeleteResponse,
    EstimateRequest,
    EstimateResponse,
    EstimatorTrainRequest,
    EstimatorTrainResponse,
    InferRequest,
    InferResponse,
    LabelRequest,
    LabelResponse,
    ProfileRequest,
    ProfileResponse,
    ReduceRequest,
    ReduceResponse,
    RejectedResponse,
    TrainRequest,
    TrainResponse,
)

rng = np.random.default_rng(7)

#: Big enough that every float image/feature block takes the shm path.
IMAGES = rng.normal(size=(6, 3, 8, 8))
LABELS = rng.integers(0, 3, size=6)
FEATURES = rng.normal(size=(8, 16))
FEATURE_LABELS = rng.integers(0, 3, size=8)
TARGETS = rng.normal(size=8)
SENSOR = rng.normal(size=(6, 6, 4, 8))

TINY = StagedResNetConfig(
    num_classes=3, image_size=8, stage_channels=(4, 8), blocks_per_stage=1, seed=0
)

#: One representative instance per request/response dataclass of all
#: eleven endpoints, with every optional field exercised at least once.
MESSAGES = [
    TrainRequest(IMAGES, LABELS, model_config=TINY, epochs=2, idempotency_key="k1"),
    TrainResponse("m1", epochs=2, final_loss=0.42, stage_accuracies=(0.5, 0.75)),
    LabelRequest(FEATURES, FEATURE_LABELS, FEATURES + 1.0, num_classes=3, rounds=2),
    LabelResponse(LABELS.copy(), rng.uniform(size=6), method="sensegan"),
    ReduceRequest("m1", width_fraction=0.5, epochs=1, idempotency_key="k2"),
    ReduceResponse("m1-r", parameters=10, original_parameters=100, class_map={0: 1}),
    ProfileRequest("m1", normalize=True),
    ProfileResponse(stage_times_ms=(1.5, 2.5), total_time_ms=4.0),
    CalibrateRequest("m1", IMAGES, LABELS, epochs=1),
    CalibrateResponse(alphas=(0.9,), ece_before=(0.2,), ece_after=(0.1,)),
    RejectedResponse("train", "rate-limit", retry_after_s=0.25, message="slow down"),
    DeleteRequest("m1", cascade=True, idempotency_key="k3"),
    DeleteResponse(deleted=("m1", "m1-r")),
    InferRequest(
        "m1",
        IMAGES,
        latency_constraint_s=1.0,
        max_batch=4,
        drain_window_s=0.01,
        admission=AdmissionConfig(max_queue_depth=8, retry_after_s=0.02),
    ),
    InferResponse(
        predictions=[1, None],
        confidences=[0.8, None],
        stages_executed=[2, 0],
        evicted=[False, True],
        metrics={"counters": {"x": 1.0}},
        degraded=[False, True],
        served_stage=[1, None],
        shed=[False, False],
    ),
    DeepSenseTrainRequest(SENSOR, LABELS, steps=2, idempotency_key="k4"),
    DeepSenseTrainResponse("ds1", train_accuracy=0.9, steps=2),
    ClassifyRequest("m1", IMAGES, micro_batch=4),
    ClassifyResponse(LABELS.copy(), rng.uniform(size=6), metrics={"gauges": {}}),
    EstimatorTrainRequest(FEATURES, TARGETS, steps=2, idempotency_key="k5"),
    EstimatorTrainResponse("e1", train_mae=0.1, coverage_90=0.92),
    EstimateRequest("e1", FEATURES, confidence_level=0.8),
    EstimateResponse(TARGETS, TARGETS * 0.1, TARGETS - 1, TARGETS + 1, 0.8),
]

ids = [type(m).__name__ for m in MESSAGES]


def assert_messages_equal(a, b):
    """Field-by-field equality with ndarray awareness (one level deep —
    message fields are arrays, primitives, tuples/lists/dicts of
    primitives, or nested config dataclasses that define ``__eq__``)."""
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert isinstance(vb, np.ndarray), f.name
            assert va.dtype == vb.dtype, f.name
            assert np.array_equal(va, vb), f.name
        else:
            assert va == vb, f.name


@pytest.fixture
def arena_pair():
    """One arena, two handles: the creator and a plain attach — the same
    two views a parent and its child hold of a transport segment."""
    writer = ShmArena.create(1 << 20, max_blocks=64)
    reader = ShmArena.attach(writer.name, max_blocks=64)
    yield writer, reader
    reader.close()
    writer.destroy()


class TestPickleRoundTrip:
    @pytest.mark.parametrize("message", MESSAGES, ids=ids)
    def test_every_message_survives_pickle(self, message):
        assert_messages_equal(message, pickle.loads(pickle.dumps(message)))


class TestShmRoundTrip:
    @pytest.mark.parametrize("message", MESSAGES, ids=ids)
    def test_every_message_survives_the_shm_path(self, message, arena_pair):
        writer, reader = arena_pair
        encoded, refs = encode_payload(message, writer)
        decoded = decode_payload(pickle.loads(pickle.dumps(encoded)), reader)
        assert_messages_equal(message, decoded)
        for ref in refs:
            writer.decref(ref.index, ref.generation)
        writer.assert_no_leaks()

    def test_large_arrays_take_the_arena_not_the_pipe(self, arena_pair):
        writer, _ = arena_pair
        message = ClassifyRequest("m", IMAGES)
        encoded, refs = encode_payload(message, writer)
        assert refs, "a multi-KB input should be offloaded"
        # The pickled control message no longer carries the bulk bytes.
        assert len(pickle.dumps(encoded)) < IMAGES.nbytes / 4
        for ref in refs:
            writer.decref(ref.index, ref.generation)

    def test_small_arrays_stay_inline(self, arena_pair):
        writer, reader = arena_pair
        tiny = np.zeros(4)
        assert tiny.nbytes < MIN_SHM_BYTES
        message = ClassifyResponse(tiny, tiny)
        encoded, refs = encode_payload(message, writer)
        assert encoded is message and refs == []
        assert_messages_equal(message, decode_payload(encoded, reader))

    def test_encoding_never_mutates_the_original(self, arena_pair):
        writer, _ = arena_pair
        message = ClassifyRequest("m", IMAGES)
        encoded, refs = encode_payload(message, writer)
        assert encoded is not message
        assert message.inputs is IMAGES  # pristine for retries
        assert not isinstance(message.inputs, type(refs[0]))
        for ref in refs:
            writer.decref(ref.index, ref.generation)

    def test_arena_exhaustion_falls_back_inline(self):
        cramped = ShmArena.create(4096, max_blocks=4)
        try:
            fallbacks = []
            message = ClassifyRequest("m", IMAGES)  # far bigger than 4 KiB
            encoded, refs = encode_payload(message, cramped, fallbacks=fallbacks)
            assert refs == [] and "inputs" in fallbacks
            assert_messages_equal(message, decode_payload(encoded, cramped))
            cramped.assert_no_leaks()
        finally:
            cramped.destroy()

    def test_decoding_a_stale_ref_raises_loudly(self, arena_pair):
        writer, reader = arena_pair
        encoded, refs = encode_payload(ClassifyRequest("m", IMAGES), writer)
        for ref in refs:
            writer.decref(ref.index, ref.generation)  # freed before the "peer" reads it
        with pytest.raises(ShmStaleBlockError):
            decode_payload(pickle.loads(pickle.dumps(encoded)), reader)


class TestErrorRoundTrip:
    """Typed errors crossing the boundary keep their typed payloads."""

    def test_backpressure_keeps_its_retry_hint(self):
        err = pickle.loads(
            pickle.dumps(
                BackpressureError(
                    "busy", retry_after_s=0.5, reason="queue-full", endpoint="infer"
                )
            )
        )
        assert isinstance(err, BackpressureError)
        assert err.retry_after_s == 0.5
        assert err.reason == "queue-full"
        assert err.endpoint == "infer"
        assert str(err) == "busy"

    def test_retries_exhausted_keeps_its_cause(self):
        inner = TransientServiceError("flaky")
        err = pickle.loads(pickle.dumps(RetriesExhaustedError("gave up", inner)))
        assert isinstance(err, RetriesExhaustedError)
        assert isinstance(err.last_error, TransientServiceError)
        assert str(err.last_error) == "flaky"

    @pytest.mark.parametrize(
        "error",
        [
            TransientServiceError("503"),
            ReplicaDownError("r0 died"),
            ResponseLostError("vanished"),
            ShmStaleBlockError("stale generation"),
            RequestTimeoutError("deadline"),
            CircuitOpenError("open"),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_boundary_errors_round_trip_with_type_and_message(self, error):
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is type(error)
        assert str(clone) == str(error)

    def test_stale_block_error_stays_retryable_across_the_boundary(self):
        clone = pickle.loads(pickle.dumps(ShmStaleBlockError("gen 3 != 4")))
        assert isinstance(clone, TransientServiceError)

    def test_safe_exception_passes_picklable_errors_through(self):
        err = ReplicaDownError("down")
        assert safe_exception(err) is err

    def test_safe_exception_replaces_unpicklable_errors(self):
        class Unpicklable(RuntimeError):
            def __init__(self):
                super().__init__("bad")
                self.closure = lambda: None  # cannot pickle

        replacement = safe_exception(Unpicklable())
        assert isinstance(replacement, TransientServiceError)
        assert "Unpicklable" in str(replacement)
        pickle.loads(pickle.dumps(replacement))
