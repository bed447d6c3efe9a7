"""Request/response messages of the Eugene service API.

Plain dataclasses rather than a wire format: the paper leaves "service
models and APIs" as future work, so we define the minimal schema its
Section II taxonomy implies.  Everything is serializable-by-construction
(numpy arrays and primitives only) so a network transport could be added
without changing the API surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..admission import REJECT_REASONS, AdmissionConfig
from ..nn.deepsense import DeepSenseConfig
from ..nn.resnet import StagedResNetConfig


def _validate_idempotency_key(key: Optional[str]) -> None:
    """Idempotency keys are optional, but never empty or non-string.

    Non-idempotent endpoints (train, reduce, delete, …) honour the key
    server-side inside a bounded dedup window, so a retry that redelivers
    an already-executed request returns the original response instead of
    duplicating its side effects.  :class:`~repro.service.client.
    EugeneClient` generates one fresh key per logical request and reuses
    it across retry attempts.
    """
    if key is None:
        return
    if not isinstance(key, str) or not key:
        raise ValueError("idempotency_key must be a non-empty string when given")


def _validate_tenant(tenant: Optional[str]) -> None:
    """Tenant ids are optional, but never empty or non-string.

    The id rides the request end-to-end (client → router → admission →
    telemetry) so per-tenant quotas and accounting can attribute it; a
    request without one is admitted under the controller's un-tenanted
    path.
    """
    if tenant is None:
        return
    if not isinstance(tenant, str) or not tenant:
        raise ValueError("tenant must be a non-empty string when given")


def _require_finite(name: str, values: np.ndarray) -> None:
    """Reject NaN/inf payloads at the API boundary.

    A NaN smuggled into a request poisons everything downstream (softmax,
    confidence comparisons, GP fits) silently; one ``isfinite`` pass per
    request is cheap next to any endpoint's real work.  The check runs on
    the array's native dtype — integer payloads are finite by
    construction and float payloads need no float64 copy (the old
    ``asarray(..., dtype=float64)`` doubled the memory traffic of every
    float32 request on the hot path).
    """
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind in "iub":
        return
    if kind == "f":
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite (no NaN/inf values)")
        return
    if not np.all(np.isfinite(np.asarray(arr, dtype=np.float64))):
        raise ValueError(f"{name} must be finite (no NaN/inf values)")


@dataclass
class TrainRequest:
    """Train a staged model on client-supplied labelled data."""

    inputs: np.ndarray
    labels: np.ndarray
    model_config: Optional[StagedResNetConfig] = None
    epochs: int = 8
    learning_rate: float = 1e-2
    batch_size: int = 64
    name: str = "model"
    #: dedup handle for safe retries of this non-idempotent request.
    idempotency_key: Optional[str] = None
    #: multi-tenant attribution/quota id; ``None`` = un-tenanted.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_idempotency_key(self.idempotency_key)
        _validate_tenant(self.tenant)
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels must have the same length")
        if len(self.inputs) == 0:
            raise ValueError("training data must not be empty")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        _require_finite("inputs", self.inputs)


@dataclass
class TrainResponse:
    model_id: str
    epochs: int
    final_loss: float
    stage_accuracies: Tuple[float, ...]


@dataclass
class LabelRequest:
    """Propose labels for unlabeled data given a small labelled seed set."""

    labeled_inputs: np.ndarray
    labeled_targets: np.ndarray
    unlabeled_inputs: np.ndarray
    num_classes: int
    rounds: int = 60
    method: str = "sensegan"  # or "self-training"
    #: multi-tenant attribution/quota id; ``None`` = un-tenanted.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_tenant(self.tenant)
        if self.method not in ("sensegan", "self-training"):
            raise ValueError(f"unknown labeling method {self.method!r}")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if len(self.labeled_inputs) != len(self.labeled_targets):
            raise ValueError("labeled inputs and targets must align")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        _require_finite("labeled_inputs", self.labeled_inputs)
        _require_finite("unlabeled_inputs", self.unlabeled_inputs)


@dataclass
class LabelResponse:
    labels: np.ndarray
    confidences: np.ndarray
    method: str


@dataclass
class ReduceRequest:
    """Produce a reduced model for caching on a constrained device."""

    model_id: str
    width_fraction: Optional[float] = None
    class_subset: Optional[Sequence[int]] = None
    max_parameters: Optional[int] = None
    epochs: int = 4
    #: dedup handle for safe retries of this non-idempotent request.
    idempotency_key: Optional[str] = None
    #: multi-tenant attribution/quota id; ``None`` = un-tenanted.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_idempotency_key(self.idempotency_key)
        _validate_tenant(self.tenant)
        if self.width_fraction is not None and not 0.0 < self.width_fraction <= 1.0:
            raise ValueError("width_fraction must be in (0, 1] when given")
        if self.max_parameters is not None and self.max_parameters < 1:
            raise ValueError("max_parameters must be >= 1 when given")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class ReduceResponse:
    model_id: str
    parameters: int
    original_parameters: int
    class_map: Dict[int, int]

    @property
    def compression_ratio(self) -> float:
        return self.parameters / self.original_parameters


@dataclass
class ProfileRequest:
    """Profile a registered model's per-stage execution costs."""

    model_id: str
    normalize: bool = False
    #: multi-tenant attribution/quota id; ``None`` = un-tenanted.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_tenant(self.tenant)


@dataclass
class ProfileResponse:
    stage_times_ms: Tuple[float, ...]
    total_time_ms: float


@dataclass
class CalibrateRequest:
    """Entropy-based confidence calibration (Eq. 4) on held-out data."""

    model_id: str
    inputs: np.ndarray
    labels: np.ndarray
    epochs: int = 3
    #: multi-tenant attribution/quota id; ``None`` = un-tenanted.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_tenant(self.tenant)
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels must have the same length")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        _require_finite("inputs", self.inputs)


@dataclass
class CalibrateResponse:
    alphas: Tuple[float, ...]
    ece_before: Tuple[float, ...]
    ece_after: Tuple[float, ...]


@dataclass
class RejectedResponse:
    """Typed backpressure: the service refused the request under overload.

    The admission layer's contract (docs/OVERLOAD.md): a rejected caller
    always learns *which* limit fired (``reason``) and *when* retrying can
    succeed (``retry_after_s``) — the dataclass analogue of an HTTP 429
    with a ``Retry-After`` header.  Endpoints return this instead of their
    normal response type; :class:`~repro.service.client.EugeneClient`
    converts it into a :class:`~repro.faults.BackpressureError` so retry
    policies can honour the hint.
    """

    endpoint: str
    reason: str
    retry_after_s: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.reason not in REJECT_REASONS:
            raise ValueError(
                f"unknown rejection reason {self.reason!r}; "
                f"use one of {REJECT_REASONS}"
            )
        if self.retry_after_s < 0:
            raise ValueError("retry_after_s must be non-negative")


@dataclass
class DeleteRequest:
    """Remove a registered model (and optionally its reduced children)."""

    model_id: str
    #: also delete reduced models derived from this one.  Without cascade,
    #: deleting a parent that still has children is refused — a child's
    #: ``parent_id`` must never dangle.
    cascade: bool = False
    #: dedup handle for safe retries of this non-idempotent request.
    idempotency_key: Optional[str] = None
    #: multi-tenant attribution/quota id; ``None`` = un-tenanted.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_idempotency_key(self.idempotency_key)
        _validate_tenant(self.tenant)
        if not self.model_id:
            raise ValueError("model_id must not be empty")


@dataclass
class DeleteResponse:
    #: every model id removed, the requested one first (cascade order).
    deleted: Tuple[str, ...]


@dataclass
class InferRequest:
    """Run-time inference with a latency constraint, scheduled by RTDeepIoT."""

    model_id: str
    inputs: np.ndarray
    latency_constraint_s: float = 10.0
    lookahead: int = 1
    #: accepted and validated for wire compatibility, then ignored: stages
    #: run on the replica's scheduler thread, there is no worker pool.
    num_workers: int = 2
    #: same-stage tasks coalesced into one batched stage execution
    #: (1 = the unbatched per-image behaviour).
    max_batch: int = 1
    #: accepted and validated for wire compatibility, then ignored: with
    #: nothing in flight while a batch forms, waiting could gain nothing.
    drain_window_s: float = 0.0
    #: per-request overload management (:mod:`repro.admission`): bounds the
    #: in-runtime queue, shedding or degrading the lowest-expected-utility
    #: tasks of this batch.  ``None`` (default) = serve everything.
    admission: Optional[AdmissionConfig] = None
    #: anytime-inference contract (gen-2 imprecise computations): a task
    #: whose latency constraint expires with at least one completed stage
    #: is served its best-so-far early-exit result at the deadline —
    #: degraded, never late, never evicted-with-an-answer-in-hand.
    anytime: bool = False
    #: multi-tenant attribution/quota id; ``None`` = un-tenanted.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_tenant(self.tenant)
        if self.latency_constraint_s <= 0:
            raise ValueError("latency constraint must be positive")
        if self.lookahead < 1:
            raise ValueError("lookahead must be >= 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.drain_window_s < 0:
            raise ValueError("drain_window_s must be non-negative")
        if self.drain_window_s > 0 and self.max_batch <= 1:
            raise ValueError(
                "drain_window_s > 0 requires max_batch > 1: a single-task "
                "batch can never grow, so holding it back only adds latency"
            )
        if len(self.inputs) == 0:
            raise ValueError("inputs must not be empty")
        _require_finite("inputs", self.inputs)


@dataclass
class InferResponse:
    predictions: List[Optional[int]]
    confidences: List[Optional[float]]
    stages_executed: List[int]
    evicted: List[bool]
    #: telemetry summary (stage latency quantiles, batch occupancy,
    #: deadline misses, per-endpoint request counts); ``None`` unless
    #: :mod:`repro.telemetry` is enabled.
    metrics: Optional[Dict[str, object]] = None
    #: per task: the result was served from an early exit because later
    #: stages never finished inside the budget (deadline or fault) — the
    #: graceful-degradation contract: a weaker answer beats no answer.
    degraded: List[bool] = field(default_factory=list)
    #: per task: which stage the served result came from (``None`` when the
    #: task produced no result at all before expiring).
    served_stage: List[Optional[int]] = field(default_factory=list)
    #: per task: dropped by admission control before any service (overload
    #: shedding) — shed tasks have no prediction and are never ``evicted``.
    shed: List[bool] = field(default_factory=list)
    #: per task: the anytime contract served this task's best-so-far early
    #: exit at its deadline (implies ``degraded``; excludes ``evicted``).
    anytime_served: List[bool] = field(default_factory=list)


@dataclass
class DeepSenseTrainRequest:
    """Train a DeepSense sensor-fusion model (Sec. II-A's architecture).

    Input layout matches :func:`repro.datasets.make_sensor_dataset`:
    ``(N, num_sensors * channels_per_sensor, num_intervals,
    samples_per_interval)``.
    """

    inputs: np.ndarray
    labels: np.ndarray
    model_config: Optional[DeepSenseConfig] = None
    steps: int = 200
    batch_size: int = 48
    learning_rate: float = 3e-3
    name: str = "deepsense"
    #: dedup handle for safe retries of this non-idempotent request.
    idempotency_key: Optional[str] = None
    #: multi-tenant attribution/quota id; ``None`` = un-tenanted.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_idempotency_key(self.idempotency_key)
        _validate_tenant(self.tenant)
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels must align")
        if len(self.inputs) == 0:
            raise ValueError("training data must not be empty")
        if np.asarray(self.inputs).ndim != 4:
            raise ValueError("inputs must be (N, channels, intervals, samples)")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        _require_finite("inputs", self.inputs)


@dataclass
class DeepSenseTrainResponse:
    model_id: str
    train_accuracy: float
    steps: int


@dataclass
class ClassifyRequest:
    """Single-shot classification (no staged scheduling) by any classifier
    model — a trained DeepSense network or a staged model's final exit."""

    model_id: str
    inputs: np.ndarray
    #: when set, inputs are classified in chunks of this size — bounds peak
    #: memory of the im2col buffers for large requests.
    micro_batch: Optional[int] = None
    #: multi-tenant attribution/quota id; ``None`` = un-tenanted.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_tenant(self.tenant)
        if self.micro_batch is not None and self.micro_batch < 1:
            raise ValueError("micro_batch must be >= 1 when given")
        if len(self.inputs) == 0:
            raise ValueError("inputs must not be empty")
        _require_finite("inputs", self.inputs)


@dataclass
class ClassifyResponse:
    predictions: np.ndarray
    confidences: np.ndarray
    #: telemetry summary; ``None`` unless :mod:`repro.telemetry` is enabled.
    metrics: Optional[Dict[str, object]] = None


@dataclass
class EstimatorTrainRequest:
    """Train a regression (estimation) model with calibrated uncertainty.

    Eugene's inference functions cover "estimation and classification
    (depending on whether the sought results are continuous or categorical)";
    this is the continuous half, trained with the RDeepSense weighted
    MSE+NLL loss so the returned intervals are calibrated (Sec. II-D).
    """

    inputs: np.ndarray
    targets: np.ndarray
    #: w in w*MSE + (1-w)*NLL; 0.5 is the calibrated middle ground.
    loss_weight: float = 0.5
    hidden: int = 32
    steps: int = 400
    name: str = "estimator"
    #: dedup handle for safe retries of this non-idempotent request.
    idempotency_key: Optional[str] = None
    #: multi-tenant attribution/quota id; ``None`` = un-tenanted.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_idempotency_key(self.idempotency_key)
        _validate_tenant(self.tenant)
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets must align")
        if len(self.inputs) == 0:
            raise ValueError("training data must not be empty")
        if not 0.0 <= self.loss_weight <= 1.0:
            raise ValueError("loss_weight must be in [0, 1]")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        _require_finite("inputs", self.inputs)
        _require_finite("targets", self.targets)


@dataclass
class EstimatorTrainResponse:
    model_id: str
    train_mae: float
    #: empirical coverage of the 90% predictive interval on training data.
    coverage_90: float


@dataclass
class EstimateRequest:
    """Point estimates plus predictive intervals for new inputs."""

    model_id: str
    inputs: np.ndarray
    #: central interval mass, e.g. 0.9 for a 90% interval.
    confidence_level: float = 0.9
    #: multi-tenant attribution/quota id; ``None`` = un-tenanted.
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        _validate_tenant(self.tenant)
        if not 0.0 < self.confidence_level < 1.0:
            raise ValueError("confidence_level must be in (0, 1)")
        if len(self.inputs) == 0:
            raise ValueError("inputs must not be empty")
        _require_finite("inputs", self.inputs)


@dataclass
class EstimateResponse:
    means: np.ndarray
    stds: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    confidence_level: float
