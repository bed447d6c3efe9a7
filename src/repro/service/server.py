"""The Eugene back-end service (Sec. II's service suite, wired together)."""

from __future__ import annotations

import ctypes
import functools
import threading
from collections import OrderedDict
from statistics import NormalDist
from typing import Callable, Dict, Optional, Tuple, TypeVar

import numpy as np

from .. import faults, telemetry
from ..admission import AdmissionController
from ..calibration.entropy_reg import EntropyCalibrator
from ..calibration.rdeepsense import fit_gaussian_regressor, interval_coverage
from ..compression.pruning import shrink_staged_resnet
from ..labeling.semi_supervised import SenseGANConfig, SenseGANLabeler, self_training_labels
from ..nn.data import Dataset
from ..nn.deepsense import DeepSense, DeepSenseConfig
from ..nn.losses import cross_entropy
from ..nn.optim import Adam
from ..nn.resnet import StagedResNet, StagedResNetConfig
from ..nn.tensor import Tensor
from ..profiling.cost_model import MobileDeviceCostModel
from ..profiling.stage_costs import stage_execution_times
from ..scheduler.confidence import GPConfidencePredictor
from ..scheduler.policies import RTDeepIoTPolicy
from ..scheduler.runtime import RuntimeConfig, StagedInferenceRuntime
from ..nn.training import (
    collect_stage_outputs,
    evaluate_stage_accuracy,
    train_staged_model,
)
from .messages import (
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
from .model_registry import ModelRegistry

_F = TypeVar("_F", bound=Callable)

# glibc's malloc_trim, or None where the C library has none (then a no-op).
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)


def _release_free_heap() -> None:
    """Return the heap pages freed so far, in every malloc arena, to the OS.

    glibc keeps what a thread frees in that thread's arena.  A ``train``
    leaves its freed autograd buffers there (~140 MB for a 12x12 staged
    ResNet at batch 32), and an exited service thread leaves its scratch
    pools.  The next service thread reuses that arena if the old thread
    has fully exited, or else gets a fresh arena and fills it too, so
    without a trim before and after training the resident set of a
    process that trains on successive threads depends on a thread-exit
    race.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def _admission_gate(endpoint: str) -> Callable[[_F], _F]:
    """Per-endpoint admission check, applied *outermost* on the endpoint.

    With no controller installed (the default) the gate is one attribute
    read and a ``None`` check — the same disabled-cost contract as
    :mod:`repro.telemetry` and :mod:`repro.faults`.  With a controller, a
    rejected call short-circuits into a typed :class:`RejectedResponse`
    before any endpoint work (or fault/telemetry accounting) happens, and
    an admitted call releases its concurrency slot on every exit path.
    """

    def decorate(fn: _F) -> _F:
        @functools.wraps(fn)
        def wrapper(self, request, *args, **kwargs):
            controller = self.admission
            if controller is None:
                return fn(self, request, *args, **kwargs)
            model_id = getattr(request, "model_id", None)
            tenant = getattr(request, "tenant", None)
            decision = controller.admit(endpoint, model_id=model_id, tenant=tenant)
            if not decision.admitted:
                return RejectedResponse(
                    endpoint=endpoint,
                    reason=decision.reason,
                    retry_after_s=decision.retry_after_s,
                    message=(
                        f"{endpoint!r} rejected ({decision.reason} on "
                        f"{decision.key!r}); retry after "
                        f"{decision.retry_after_s:.3g}s"
                    ),
                )
            try:
                return fn(self, request, *args, **kwargs)
            finally:
                controller.release(endpoint, model_id=model_id, tenant=tenant)

        return wrapper  # type: ignore[return-value]

    return decorate


class IdempotencyCache:
    """Bounded dedup window of executed non-idempotent requests.

    Keyed by ``(endpoint, idempotency_key)``; holds the response the first
    execution produced, so a redelivery (a client retry after a lost
    response, or a router replaying a request on another attempt) returns
    the original outcome instead of re-running side effects.  The window
    is LRU-bounded: the service cannot remember every key forever, so a
    key replayed after :attr:`capacity` newer keys will re-execute — the
    standard at-least-once-with-dedup-window contract.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[str, str], object]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, endpoint: str, key: str) -> Optional[object]:
        with self._lock:
            response = self._entries.get((endpoint, key))
            if response is not None:
                self._entries.move_to_end((endpoint, key))
            return response

    def put(self, endpoint: str, key: str, response: object) -> None:
        with self._lock:
            self._entries[(endpoint, key)] = response
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _idempotent(endpoint: str) -> Callable[[_F], _F]:
    """Innermost endpoint layer: dedup redelivered mutating requests.

    Sits *under* the fault-injection site, so an injected endpoint error
    happens before execution and leaves no dedup record (the retry then
    executes for real), while a response lost *after* execution is caught
    here on redelivery.  Requests without a key (the default) bypass the
    cache entirely.
    """

    def decorate(fn: _F) -> _F:
        @functools.wraps(fn)
        def wrapper(self, request, *args, **kwargs):
            key = getattr(request, "idempotency_key", None)
            if key is None:
                return fn(self, request, *args, **kwargs)
            cached = self.idempotency.get(endpoint, key)
            if cached is not None:
                tel = telemetry.active()
                if tel is not None:
                    tel.registry.counter(
                        f"service.deduplicated.{endpoint}"
                    ).inc()
                return cached
            response = fn(self, request, *args, **kwargs)
            self.idempotency.put(endpoint, key, response)
            return response

        return wrapper  # type: ignore[return-value]

    return decorate


def _serving_metrics(**extra: object) -> Optional[Dict[str, object]]:
    """Summary attached to serving responses when telemetry is enabled.

    ``None`` (and no registry reads at all) when telemetry is off, so the
    fast path stays untouched.  The histogram/counter summaries are
    cumulative over the telemetry session — per-request numbers come from
    the ``extra`` fields the endpoint computed for this call.
    """
    tel = telemetry.active()
    if tel is None:
        return None
    snapshot = tel.registry.snapshot()
    metrics: Dict[str, object] = {
        "stage_latency_ms": {
            name.rsplit(".", 1)[-1]: summary
            for name, summary in snapshot["histograms"].items()
            if name.startswith("runtime.stage_latency_ms.")
        },
        "batch_occupancy": snapshot["histograms"].get("runtime.batch_occupancy"),
        "deadline_misses": snapshot["counters"].get("runtime.deadline_misses", 0.0),
        "requests": {
            name.rsplit(".", 1)[-1]: value
            for name, value in snapshot["counters"].items()
            if name.startswith("service.requests.")
        },
    }
    metrics.update(extra)
    return metrics


class EugeneService:
    """In-process implementation of the Eugene service endpoints.

    Every endpoint takes one request dataclass and returns one response
    dataclass — see :mod:`repro.service.messages` for the schema.
    """

    def __init__(
        self,
        device: Optional[MobileDeviceCostModel] = None,
        seed: int = 0,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        self.registry = ModelRegistry()
        self.device = device or MobileDeviceCostModel()
        self.seed = seed
        #: admission control / overload management; ``None`` (default)
        #: admits everything at zero cost.  See :mod:`repro.admission`.
        self.admission = admission
        #: dedup window for redelivered non-idempotent requests (train,
        #: reduce, delete, …); see :class:`IdempotencyCache`.
        self.idempotency = IdempotencyCache()

    # ------------------------------------------------------------------
    # Training (Sec. II-A)
    # ------------------------------------------------------------------
    @_admission_gate("train")
    @telemetry.timed("train")
    @faults.endpoint("service.train")
    @_idempotent("train")
    def train(self, request: TrainRequest) -> TrainResponse:
        """Train a staged model on client data; fit its confidence curves."""
        config = request.model_config or StagedResNetConfig(
            num_classes=int(np.max(request.labels)) + 1,
            in_channels=request.inputs.shape[1],
            image_size=request.inputs.shape[2],
        )
        _release_free_heap()
        model = StagedResNet(config)
        train_set = Dataset(request.inputs, request.labels)
        report = train_staged_model(
            model,
            train_set,
            epochs=request.epochs,
            batch_size=request.batch_size,
            lr=request.learning_rate,
            seed=self.seed,
        )
        outputs = collect_stage_outputs(model, train_set)
        predictor = GPConfidencePredictor(
            num_classes=config.num_classes, seed=self.seed
        ).fit(outputs["confidences"])
        entry = self.registry.register(
            name=request.name,
            model=model,
            train_set=train_set,
            predictor=predictor,
        )
        accuracies = evaluate_stage_accuracy(model, train_set)
        _release_free_heap()
        return TrainResponse(
            model_id=entry.model_id,
            epochs=request.epochs,
            final_loss=report.final_loss,
            stage_accuracies=tuple(float(a) for a in accuracies),
        )

    @_admission_gate("train_deepsense")
    @telemetry.timed("train_deepsense")
    @faults.endpoint("service.train_deepsense")
    @_idempotent("train_deepsense")
    def train_deepsense(self, request: DeepSenseTrainRequest) -> DeepSenseTrainResponse:
        """Train the DeepSense sensor-fusion architecture on time series."""
        inputs = np.asarray(request.inputs, dtype=np.float64)
        labels = np.asarray(request.labels, dtype=np.int64)
        _, channels, intervals, samples = inputs.shape
        config = request.model_config or DeepSenseConfig(
            num_sensors=1,
            channels_per_sensor=channels,
            num_intervals=intervals,
            samples_per_interval=samples,
            output_dim=int(labels.max()) + 1,
            seed=self.seed,
        )
        model = DeepSense(config)
        optimizer = Adam(model.parameters(), lr=request.learning_rate)
        rng = np.random.default_rng(self.seed)
        for _ in range(request.steps):
            idx = rng.choice(len(inputs), size=min(request.batch_size, len(inputs)),
                             replace=False)
            loss = cross_entropy(model(Tensor(inputs[idx])), labels[idx])
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        model.eval()
        entry = self.registry.register(name=request.name, model=model,
                                       kind="deepsense")
        accuracy = float((model.predict(inputs) == labels).mean())
        return DeepSenseTrainResponse(
            model_id=entry.model_id,
            train_accuracy=accuracy,
            steps=request.steps,
        )

    @_admission_gate("classify")
    @telemetry.timed("classify")
    @faults.endpoint("service.classify")
    def classify(self, request: ClassifyRequest) -> ClassifyResponse:
        """Single-shot classification by any registered classifier model."""
        entry = self.registry.get(request.model_id)
        inputs = np.asarray(request.inputs, dtype=np.float64)
        if entry.kind == "estimator":
            raise ValueError("estimator models serve estimate(), not classify()")
        entry.model.eval()  # serving always takes the no-grad fast path

        def final_probs(chunk: np.ndarray) -> np.ndarray:
            probs = entry.model.predict_proba(chunk)
            return probs if isinstance(entry.model, DeepSense) else probs[-1]

        size = request.micro_batch
        if size is None or size >= len(inputs):
            probs = final_probs(inputs)
            num_chunks = 1
        else:
            probs = np.concatenate(
                [final_probs(inputs[i : i + size]) for i in range(0, len(inputs), size)],
                axis=0,
            )
            num_chunks = -(-len(inputs) // size)
        return ClassifyResponse(
            predictions=probs.argmax(axis=-1),
            confidences=probs.max(axis=-1),
            metrics=_serving_metrics(
                num_inputs=len(inputs), num_chunks=num_chunks
            ),
        )

    # ------------------------------------------------------------------
    # Labeling (Sec. II-A)
    # ------------------------------------------------------------------
    @_admission_gate("label")
    @telemetry.timed("label")
    @faults.endpoint("service.label")
    def label(self, request: LabelRequest) -> LabelResponse:
        labeled = Dataset(request.labeled_inputs, request.labeled_targets)
        if request.method == "sensegan":
            labeler = SenseGANLabeler(
                num_classes=request.num_classes,
                input_dim=int(np.prod(request.labeled_inputs.shape[1:])),
                config=SenseGANConfig(rounds=request.rounds, seed=self.seed),
            )
            labeler.fit(labeled, request.unlabeled_inputs)
            labels, confidences = labeler.propose_labels(request.unlabeled_inputs)
        else:
            labels, confidences = self_training_labels(
                labeled,
                request.unlabeled_inputs,
                num_classes=request.num_classes,
                seed=self.seed,
            )
        return LabelResponse(labels=labels, confidences=confidences, method=request.method)

    # ------------------------------------------------------------------
    # Model reduction (Sec. II-B)
    # ------------------------------------------------------------------
    @_admission_gate("reduce")
    @telemetry.timed("reduce")
    @faults.endpoint("service.reduce")
    @_idempotent("reduce")
    def reduce(self, request: ReduceRequest) -> ReduceResponse:
        entry = self.registry.get(request.model_id)
        if entry.train_set is None:
            raise ValueError("model was registered without training data")
        width = request.width_fraction
        if width is None:
            if request.max_parameters is not None:
                ratio = request.max_parameters / entry.model.num_parameters()
                width = float(np.clip(np.sqrt(ratio), 0.1, 1.0))
            else:
                width = 0.5
        reduced, class_map = shrink_staged_resnet(
            entry.model,
            entry.train_set,
            width_fraction=width,
            class_subset=request.class_subset,
            epochs=request.epochs,
            seed=self.seed,
        )
        child = self.registry.register(
            name=f"{entry.name}-reduced",
            model=reduced,
            kind="reduced",
            class_map=class_map,
            parent_id=entry.model_id,
        )
        return ReduceResponse(
            model_id=child.model_id,
            parameters=reduced.num_parameters(),
            original_parameters=entry.model.num_parameters(),
            class_map=class_map,
        )

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------
    @_admission_gate("delete")
    @telemetry.timed("delete")
    @faults.endpoint("service.delete")
    @_idempotent("delete")
    def delete(self, request: DeleteRequest) -> DeleteResponse:
        """Remove a registered model (and, with cascade, its reductions).

        Deleting a parent that still has reduced children is refused
        unless ``cascade`` is set — a cached reduced model must never be
        left pointing at a vanished parent.
        """
        deleted = self.registry.delete(request.model_id, cascade=request.cascade)
        return DeleteResponse(deleted=tuple(deleted))

    # ------------------------------------------------------------------
    # Profiling (Sec. II-C)
    # ------------------------------------------------------------------
    @_admission_gate("profile")
    @telemetry.timed("profile")
    @faults.endpoint("service.profile")
    def profile(self, request: ProfileRequest) -> ProfileResponse:
        entry = self.registry.get(request.model_id)
        times = stage_execution_times(
            entry.model, self.device, normalize=request.normalize
        )
        return ProfileResponse(
            stage_times_ms=tuple(times), total_time_ms=float(sum(times))
        )

    # ------------------------------------------------------------------
    # Result-quality calibration (Sec. II-D / III-A)
    # ------------------------------------------------------------------
    @_admission_gate("calibrate")
    @telemetry.timed("calibrate")
    @faults.endpoint("service.calibrate")
    def calibrate(self, request: CalibrateRequest) -> CalibrateResponse:
        entry = self.registry.get(request.model_id)
        calibrator = EntropyCalibrator(epochs=request.epochs, seed=self.seed)
        results = calibrator.calibrate(
            entry.model, Dataset(request.inputs, request.labels)
        )
        # Confidence curves changed; refit the scheduler's predictor.
        if entry.train_set is not None:
            outputs = collect_stage_outputs(entry.model, entry.train_set)
            entry.predictor = GPConfidencePredictor(
                num_classes=entry.model.config.num_classes, seed=self.seed
            ).fit(outputs["confidences"])
        return CalibrateResponse(
            alphas=tuple(r.alpha for r in results),
            ece_before=tuple(r.ece_before for r in results),
            ece_after=tuple(r.ece_after for r in results),
        )

    # ------------------------------------------------------------------
    # Estimation service (Sec. II: the continuous-output task family)
    # ------------------------------------------------------------------
    @_admission_gate("train_estimator")
    @telemetry.timed("train_estimator")
    @faults.endpoint("service.train_estimator")
    @_idempotent("train_estimator")
    def train_estimator(self, request: EstimatorTrainRequest) -> EstimatorTrainResponse:
        """Train a Gaussian regressor under the RDeepSense weighted loss."""
        x = np.asarray(request.inputs, dtype=np.float64).reshape(len(request.inputs), -1)
        y = np.asarray(request.targets, dtype=np.float64)
        if y.ndim == 1:
            y = y[:, None]
        model = fit_gaussian_regressor(
            x, y, weight=request.loss_weight, hidden=request.hidden,
            steps=request.steps, seed=self.seed,
        )
        entry = self.registry.register(name=request.name, model=model,
                                       kind="estimator")
        mean, std = model.predict(x)
        return EstimatorTrainResponse(
            model_id=entry.model_id,
            train_mae=float(np.abs(mean - y).mean()),
            coverage_90=interval_coverage(mean, std, y, 0.9),
        )

    @_admission_gate("estimate")
    @telemetry.timed("estimate")
    @faults.endpoint("service.estimate")
    def estimate(self, request: EstimateRequest) -> EstimateResponse:
        """Point estimates + predictive intervals from a trained estimator."""
        entry = self.registry.get(request.model_id)
        if entry.kind != "estimator":
            raise ValueError(
                f"model {request.model_id!r} is a {entry.kind!r} model, "
                "not an estimator"
            )
        x = np.asarray(request.inputs, dtype=np.float64).reshape(len(request.inputs), -1)
        mean, std = entry.model.predict(x)
        z = NormalDist().inv_cdf(0.5 + request.confidence_level / 2.0)
        return EstimateResponse(
            means=mean,
            stds=std,
            lower=mean - z * std,
            upper=mean + z * std,
            confidence_level=request.confidence_level,
        )

    # ------------------------------------------------------------------
    # Run-time inference (Sec. II-E / III)
    # ------------------------------------------------------------------
    @_admission_gate("infer")
    @telemetry.timed("infer")
    @faults.endpoint("service.infer")
    def infer(self, request: InferRequest) -> InferResponse:
        entry = self.registry.get(request.model_id)
        if entry.predictor is None:
            raise ValueError(
                "model has no confidence predictor; train() registers one"
            )
        policy = RTDeepIoTPolicy(entry.predictor, k=request.lookahead)
        runtime = StagedInferenceRuntime(
            entry.model,
            policy,
            RuntimeConfig(
                latency_constraint=request.latency_constraint_s,
                max_batch=request.max_batch,
                admission=request.admission,
                anytime=request.anytime,
            ),
        )
        runtime.submit(request.inputs)
        results = runtime.run_until_complete()
        # Graceful degradation (Sec. III's anytime contract): a task whose
        # later stages never finished inside the budget — deadline or fault
        # — is still served from its best completed early exit, flagged so
        # the client can distinguish a weaker answer from a full one.  The
        # runtime already traced each task's one terminal event.
        tel = telemetry.active()
        if tel is not None:
            for r in results:
                if r.degraded:
                    tel.registry.counter("service.degraded_responses").inc()
        return InferResponse(
            predictions=[r.prediction for r in results],
            confidences=[r.confidence for r in results],
            stages_executed=[len(r.outcomes) for r in results],
            evicted=[r.evicted for r in results],
            metrics=_serving_metrics(
                num_tasks=len(results),
                num_evicted=sum(1 for r in results if r.evicted),
                num_shed=sum(1 for r in results if r.shed),
                batch_sizes=[len(tids) for _, tids in runtime.batch_log],
            ),
            degraded=[r.degraded for r in results],
            served_stage=[r.served_stage for r in results],
            shed=[r.shed for r in results],
            anytime_served=[r.anytime_served for r in results],
        )
