"""Tenant plumbing end to end: messages -> client stamping -> server gate.

Every request dataclass carries an optional ``tenant``; a client built
with a default tenant stamps it on every request; the service's
admission gate hands it to the controller verbatim.
"""

import dataclasses

import numpy as np
import pytest

from repro.admission import AdmissionController
from repro.nn import StagedResNet, StagedResNetConfig
from repro.service import EugeneClient, EugeneService
from repro.service.messages import (
    CalibrateRequest,
    ClassifyRequest,
    DeepSenseTrainRequest,
    DeleteRequest,
    EstimateRequest,
    EstimatorTrainRequest,
    InferRequest,
    LabelRequest,
    ProfileRequest,
    ReduceRequest,
    TrainRequest,
)

REQUEST_CLASSES = (
    TrainRequest,
    DeepSenseTrainRequest,
    EstimatorTrainRequest,
    ClassifyRequest,
    LabelRequest,
    ReduceRequest,
    ProfileRequest,
    CalibrateRequest,
    EstimateRequest,
    InferRequest,
    DeleteRequest,
)

TINY = StagedResNetConfig(
    num_classes=3, image_size=8, stage_channels=(4, 8), blocks_per_stage=1,
    seed=0,
)


class TestMessageTenantField:
    def test_every_request_class_has_an_optional_tenant(self):
        assert len(REQUEST_CLASSES) == 11
        for cls in REQUEST_CLASSES:
            fields = {f.name: f for f in dataclasses.fields(cls)}
            assert "tenant" in fields, cls.__name__
            assert fields["tenant"].default is None, cls.__name__

    def test_tenant_validation(self):
        with pytest.raises(ValueError):
            ProfileRequest(model_id="m1", tenant="")
        with pytest.raises(ValueError):
            ProfileRequest(model_id="m1", tenant=7)
        assert ProfileRequest(model_id="m1", tenant="acme").tenant == "acme"
        assert ProfileRequest(model_id="m1").tenant is None


class _RecordingService:
    """Duck-typed stand-in: records every request, echoes it back."""

    def __init__(self):
        self.requests = []

    def __getattr__(self, name):
        def method(request):
            self.requests.append(request)
            return request

        return method


def exercise_all_endpoints(client, rng):
    x1 = rng.normal(size=(1, 3, 8, 8))
    xs = rng.normal(size=(6, 3, 8, 8))
    ys = rng.integers(0, 3, size=6)
    client.train(xs, ys, model_config=TINY, epochs=1, batch_size=6)
    client.train_deepsense(
        rng.normal(size=(8, 2, 3, 4)), rng.integers(0, 2, size=8), steps=1
    )
    client.train_estimator(
        rng.normal(size=(12, 3)), rng.normal(size=12), hidden=2, steps=1
    )
    client.classify("m1", x1)
    client.label(xs[:4], ys[:4], xs[4:], num_classes=3,
                 method="self-training", rounds=1)
    client.reduce("m1", width_fraction=0.5, epochs=1)
    client.profile("m1")
    client.calibrate("m1", xs, ys, epochs=1)
    client.estimate("m1", rng.normal(size=(2, 3)))
    client.infer("m1", x1, latency_constraint_s=10.0)
    client.delete("m1")


class TestClientStamping:
    def test_default_tenant_reaches_all_eleven_requests(self):
        service = _RecordingService()
        client = EugeneClient(service, tenant="acme")
        exercise_all_endpoints(client, np.random.default_rng(0))
        assert len(service.requests) == 11
        assert {type(r) for r in service.requests} == set(REQUEST_CLASSES)
        for request in service.requests:
            assert request.tenant == "acme", type(request).__name__

    def test_explicit_tenant_wins_over_the_default(self):
        service = _RecordingService()
        client = EugeneClient(service, tenant="acme")
        client.profile("m1", tenant="other")
        assert service.requests[-1].tenant == "other"

    def test_untenanted_client_leaves_requests_untenanted(self):
        service = _RecordingService()
        client = EugeneClient(service)
        client.profile("m1")
        assert service.requests[-1].tenant is None


class _RecordingController(AdmissionController):
    """Real controller that also records what the server hands it."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def admit(self, endpoint, model_id=None, tenant=None, now=None):
        self.seen.append((endpoint, tenant))
        return super().admit(
            endpoint, model_id=model_id, tenant=tenant, now=now
        )


class TestServerPassesTenantToAdmission:
    def test_request_tenant_reaches_the_controller(self):
        controller = _RecordingController()
        service = EugeneService(seed=0, admission=controller)
        service.registry.register("m1", StagedResNet(TINY))
        service.profile(ProfileRequest(model_id="m1", tenant="acme"))
        service.delete(DeleteRequest(model_id="m1"))
        assert ("profile", "acme") in controller.seen
        assert ("delete", None) in controller.seen
