"""Client-side stubs: the service handle an IoT device holds.

:class:`EugeneClient` is a thin convenience wrapper over the service
endpoints, hardened with the client half of the resilience contract
(:mod:`repro.faults`): every call runs under a per-endpoint circuit
breaker and a bounded exponential-backoff retry policy, and passes a
``client.<endpoint>`` fault-injection site standing in for the network
leg a real deployment would have.  :class:`EdgeDevice` models the paper's
caching client: it asks the service for a reduced model sized to its own
:class:`DeviceProfile`, serves frequent classes locally, and offloads
cache misses.
"""

from __future__ import annotations

import uuid
from typing import Callable, Dict, Optional, TypeVar

import numpy as np

from .. import faults, telemetry
from ..compression.cache import DeviceProfile, FrequencyTracker, ReducedClassModel
from ..faults import (
    CLOSED,
    OPEN,
    BackpressureError,
    CircuitBreaker,
    ResilienceError,
    RetriesExhaustedError,
    RetryPolicy,
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
from .server import EugeneService

T = TypeVar("T")


class EugeneClient:
    """Method-per-endpoint client stub with client-side resilience.

    Each endpoint call passes three layers, outermost first:

    1. a lazily-created per-endpoint :class:`CircuitBreaker` — when an
       endpoint keeps failing, further calls fast-fail with
       :class:`~repro.faults.CircuitOpenError` without touching the
       service until the cooldown elapses;
    2. the :class:`RetryPolicy` — only
       :class:`~repro.faults.TransientServiceError` and
       :class:`~repro.faults.BackpressureError` (a typed admission
       rejection, whose retry-after hint floors the backoff sleep) are
       retried, with bounded exponential backoff and an optional
       per-request ``timeout_s`` budget;
    3. two fault-injection sites modelling the network's two legs, each
       consulted once per *attempt*: ``client.<endpoint>`` before the
       call (the request leg) and ``client.<endpoint>.response`` after it
       (the response leg).  A response-leg fault is the classic
       at-least-once hazard — the service *executed* but the caller never
       learned — so the retry redelivers an already-executed request.

    Non-idempotent endpoints (train, reduce, delete, …) are protected
    against that redelivery: the client stamps each logical request with
    a fresh idempotency key, reused across every retry attempt, and the
    service dedups on it (see :class:`~repro.service.server.
    IdempotencyCache`), so a double delivery returns the original
    response instead of duplicating side effects.

    With no fault plan armed and a healthy service, all layers are
    pass-throughs: behaviour is identical to the plain stub.

    The ``service`` argument accepts anything exposing the endpoint
    surface — a plain :class:`EugeneService` or a
    :class:`~repro.cluster.ServiceRouter` fronting N replicas (the
    router-backed mode: per-replica breakers, failover and placement
    happen inside the router, underneath this client's per-endpoint
    breaker and retry policy).
    """

    def __init__(
        self,
        service: EugeneService,
        retry_policy: Optional[RetryPolicy] = None,
        breaker_factory: Callable[[], CircuitBreaker] = CircuitBreaker,
        tenant: Optional[str] = None,
    ) -> None:
        self.service = service
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._breaker_factory = breaker_factory
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: default tenant id stamped on every request this client builds
        #: (an explicit ``tenant=`` on a call still wins); ``None`` leaves
        #: requests un-tenanted.
        self.tenant = tenant

    # ------------------------------------------------------------------
    # Resilience plumbing
    # ------------------------------------------------------------------
    def breaker(self, endpoint: str) -> CircuitBreaker:
        """The circuit breaker guarding ``endpoint`` (created on first use)."""
        breaker = self._breakers.get(endpoint)
        if breaker is None:
            breaker = self._breakers[endpoint] = self._breaker_factory()
        return breaker

    def _call(self, endpoint: str, fn: Callable[[], T]) -> T:
        breaker = self.breaker(endpoint)
        state_before = breaker.state
        breaker.guard(endpoint)

        def attempt() -> T:
            faults.perform(faults.inject(f"client.{endpoint}"))
            result = fn()
            # The response leg: the service has already executed; a fault
            # here loses the answer in transit, and the retry redelivers
            # the request (idempotency keys make that safe).
            faults.perform(faults.inject(f"client.{endpoint}.response"))
            if isinstance(result, RejectedResponse):
                # Typed backpressure from the service's admission layer:
                # surface it as an exception so the retry policy can back
                # off by at least the service's retry-after hint.
                tel = telemetry.active()
                if tel is not None:
                    tel.registry.counter(f"client.rejected.{endpoint}").inc()
                raise BackpressureError(
                    result.message or f"{endpoint!r} rejected: {result.reason}",
                    retry_after_s=result.retry_after_s,
                    reason=result.reason,
                    endpoint=endpoint,
                )
            return result

        def on_retry(attempt_no: int, _error: Exception) -> None:
            tel = telemetry.active()
            if tel is not None:
                tel.registry.counter(f"client.retries.{endpoint}").inc()
                tel.trace.retry(breaker.now(), endpoint, attempt_no)

        try:
            result = self.retry_policy.call(attempt, on_retry=on_retry)
        except ResilienceError as error:
            # Only exhausted retries / blown budgets count against the
            # breaker — a ValueError from request validation is the
            # caller's bug, not the endpoint's health.
            breaker.record_failure()
            tel = telemetry.active()
            if tel is not None and breaker.state == OPEN:
                tel.registry.counter(f"client.breaker_open.{endpoint}").inc()
                tel.trace.breaker_open(breaker.now(), endpoint)
            if isinstance(error, RetriesExhaustedError) and isinstance(
                error.last_error, BackpressureError
            ):
                # Every attempt ended in an admission rejection: surface
                # the typed backpressure (with its retry-after hint) so
                # callers can shed or reschedule, not just "retries failed".
                raise error.last_error from error
            raise
        breaker.record_success()
        if state_before != CLOSED:
            tel = telemetry.active()
            if tel is not None:
                tel.trace.breaker_close(breaker.now(), endpoint)
        return result

    @staticmethod
    def _keyed(request: T) -> T:
        """Stamp a non-idempotent request with a fresh idempotency key.

        One key per *logical* request: the key is set once, before the
        first attempt, so every retry redelivers under the same key and
        the service's dedup window can recognise it.  A caller-supplied
        key is left untouched.
        """
        if request.idempotency_key is None:
            request.idempotency_key = uuid.uuid4().hex
        return request

    def _tenanted(self, kwargs: dict) -> dict:
        """Stamp the client's default tenant onto a request's kwargs."""
        if self.tenant is not None and "tenant" not in kwargs:
            kwargs["tenant"] = self.tenant
        return kwargs

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def train(self, inputs: np.ndarray, labels: np.ndarray, **kwargs) -> TrainResponse:
        request = self._keyed(
            TrainRequest(inputs=inputs, labels=labels, **self._tenanted(kwargs))
        )
        return self._call("train", lambda: self.service.train(request))

    def label(
        self,
        labeled_inputs: np.ndarray,
        labeled_targets: np.ndarray,
        unlabeled_inputs: np.ndarray,
        num_classes: int,
        **kwargs,
    ) -> LabelResponse:
        request = LabelRequest(
            labeled_inputs=labeled_inputs,
            labeled_targets=labeled_targets,
            unlabeled_inputs=unlabeled_inputs,
            num_classes=num_classes,
            **self._tenanted(kwargs),
        )
        return self._call("label", lambda: self.service.label(request))

    def reduce(self, model_id: str, **kwargs) -> ReduceResponse:
        request = self._keyed(
            ReduceRequest(model_id=model_id, **self._tenanted(kwargs))
        )
        return self._call("reduce", lambda: self.service.reduce(request))

    def profile(self, model_id: str, **kwargs) -> ProfileResponse:
        request = ProfileRequest(model_id=model_id, **self._tenanted(kwargs))
        return self._call("profile", lambda: self.service.profile(request))

    def delete(self, model_id: str, cascade: bool = False, **kwargs) -> DeleteResponse:
        request = self._keyed(
            DeleteRequest(
                model_id=model_id, cascade=cascade, **self._tenanted(kwargs)
            )
        )
        return self._call("delete", lambda: self.service.delete(request))

    def calibrate(
        self, model_id: str, inputs: np.ndarray, labels: np.ndarray, **kwargs
    ) -> CalibrateResponse:
        request = CalibrateRequest(
            model_id=model_id, inputs=inputs, labels=labels,
            **self._tenanted(kwargs),
        )
        return self._call("calibrate", lambda: self.service.calibrate(request))

    def infer(self, model_id: str, inputs: np.ndarray, **kwargs) -> InferResponse:
        request = InferRequest(
            model_id=model_id, inputs=inputs, **self._tenanted(kwargs)
        )
        return self._call("infer", lambda: self.service.infer(request))

    def train_deepsense(
        self, inputs: np.ndarray, labels: np.ndarray, **kwargs
    ) -> DeepSenseTrainResponse:
        request = self._keyed(
            DeepSenseTrainRequest(
                inputs=inputs, labels=labels, **self._tenanted(kwargs)
            )
        )
        return self._call(
            "train_deepsense", lambda: self.service.train_deepsense(request)
        )

    def classify(self, model_id: str, inputs: np.ndarray, **kwargs) -> ClassifyResponse:
        request = ClassifyRequest(
            model_id=model_id, inputs=inputs, **self._tenanted(kwargs)
        )
        return self._call("classify", lambda: self.service.classify(request))

    def train_estimator(
        self, inputs: np.ndarray, targets: np.ndarray, **kwargs
    ) -> EstimatorTrainResponse:
        request = self._keyed(
            EstimatorTrainRequest(
                inputs=inputs, targets=targets, **self._tenanted(kwargs)
            )
        )
        return self._call(
            "train_estimator", lambda: self.service.train_estimator(request)
        )

    def estimate(self, model_id: str, inputs: np.ndarray, **kwargs) -> EstimateResponse:
        request = EstimateRequest(
            model_id=model_id, inputs=inputs, **self._tenanted(kwargs)
        )
        return self._call("estimate", lambda: self.service.estimate(request))


class EdgeDevice:
    """An IoT client that caches a reduced model for its frequent classes."""

    def __init__(
        self,
        client: EugeneClient,
        model_id: str,
        profile: Optional[DeviceProfile] = None,
        tracker: Optional[FrequencyTracker] = None,
        confidence_threshold: float = 0.5,
    ) -> None:
        self.client = client
        self.model_id = model_id
        self.profile = profile or DeviceProfile()
        self.tracker = tracker or FrequencyTracker(window=60, coverage_target=0.7)
        self.confidence_threshold = confidence_threshold
        self.cached: Optional[ReducedClassModel] = None
        self.cached_model_id: Optional[str] = None
        self.queries_local = 0
        self.queries_offloaded = 0

    # ------------------------------------------------------------------
    def _offload(self, x: np.ndarray) -> Dict[str, object]:
        response = self.client.infer(self.model_id, x[None] if x.ndim == 3 else x)
        self.queries_offloaded += 1
        prediction = response.predictions[0]
        if prediction is not None:
            self.tracker.observe(prediction)
        self._maybe_fetch_cache()
        return {
            "prediction": prediction,
            "confidence": response.confidences[0],
            "source": "server",
        }

    def _maybe_fetch_cache(self) -> None:
        if self.cached is not None:
            return
        frequent = self.tracker.frequent_classes()
        if frequent is None:
            return
        response = self.client.reduce(
            self.model_id,
            class_subset=frequent,
            max_parameters=self.profile.max_parameters,
        )
        entry = self.client.service.registry.get(response.model_id)
        self.cached = ReducedClassModel(
            model=entry.model,
            class_map=response.class_map,
            confidence_threshold=self.confidence_threshold,
        )
        self.cached_model_id = response.model_id

    def query(self, x: np.ndarray) -> Dict[str, object]:
        """Classify one input, locally when the cached model is confident."""
        if self.cached is not None:
            prediction, confidence = self.cached.predict(x)
            if prediction is not None:
                self.queries_local += 1
                self.tracker.observe(prediction)
                return {
                    "prediction": prediction,
                    "confidence": confidence,
                    "source": "cache",
                }
        return self._offload(x)

    @property
    def local_fraction(self) -> float:
        total = self.queries_local + self.queries_offloaded
        return self.queries_local / total if total else 0.0
