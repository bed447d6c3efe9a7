"""Tests for the Eugene service facade, registry and client stubs."""

import numpy as np
import pytest

from repro import telemetry
from repro.admission import AdmissionConfig
from repro.datasets import SyntheticImageConfig, SyntheticImageGenerator, make_image_dataset
from repro.nn import StagedResNet, StagedResNetConfig
from repro.service import (
    EdgeDevice,
    EugeneClient,
    EugeneService,
    InferRequest,
    LabelRequest,
    ModelRegistry,
    ProfileRequest,
    ReduceRequest,
    TrainRequest,
)
from repro.service.messages import CalibrateRequest

from ..scheduler.trace_invariants import check_lifecycle


TINY = StagedResNetConfig(
    num_classes=4, image_size=8, stage_channels=(4, 8), blocks_per_stage=1, seed=0
)
DATA_CFG = SyntheticImageConfig(num_classes=4, image_size=8, seed=3)


@pytest.fixture(scope="module")
def service_with_model():
    service = EugeneService(seed=0)
    train_set = make_image_dataset(500, DATA_CFG, seed=0)
    response = service.train(
        TrainRequest(
            inputs=train_set.inputs,
            labels=train_set.labels,
            model_config=TINY,
            epochs=8,
            name="campus-cam",
        )
    )
    return service, response


class TestModelRegistry:
    def test_register_get_list_delete(self):
        registry = ModelRegistry()
        entry = registry.register("m", StagedResNet(TINY))
        assert entry.model_id == "m1"
        assert entry.model_id in registry
        assert len(registry.list_models()) == 1
        registry.delete(entry.model_id)
        assert len(registry) == 0

    def test_unknown_id_raises(self):
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.get("nope")
        with pytest.raises(KeyError):
            registry.delete("nope")

    def test_sequential_ids(self):
        registry = ModelRegistry()
        a = registry.register("a", StagedResNet(TINY))
        b = registry.register("b", StagedResNet(TINY))
        assert (a.model_id, b.model_id) == ("m1", "m2")

    def test_children_lists_derived_models(self):
        registry = ModelRegistry()
        parent = registry.register("p", StagedResNet(TINY))
        child = registry.register(
            "c", StagedResNet(TINY), kind="reduced", parent_id=parent.model_id
        )
        registry.register("other", StagedResNet(TINY))
        assert [e.model_id for e in registry.children(parent.model_id)] == [
            child.model_id
        ]
        assert registry.children(child.model_id) == []

    def test_delete_refuses_parent_with_children(self):
        # Regression: deleting a parent used to orphan its reduced
        # children, leaving dangling parent_id references.
        registry = ModelRegistry()
        parent = registry.register("p", StagedResNet(TINY))
        child = registry.register(
            "c", StagedResNet(TINY), kind="reduced", parent_id=parent.model_id
        )
        with pytest.raises(ValueError, match=child.model_id):
            registry.delete(parent.model_id)
        assert parent.model_id in registry  # refused atomically

    def test_delete_cascade_removes_the_whole_subtree(self):
        registry = ModelRegistry()
        parent = registry.register("p", StagedResNet(TINY))
        child = registry.register(
            "c", StagedResNet(TINY), kind="reduced", parent_id=parent.model_id
        )
        grandchild = registry.register(
            "g", StagedResNet(TINY), kind="reduced", parent_id=child.model_id
        )
        deleted = registry.delete(parent.model_id, cascade=True)
        assert deleted[0] == parent.model_id
        assert set(deleted) == {parent.model_id, child.model_id, grandchild.model_id}
        assert len(registry) == 0

    def test_delete_leaf_child_then_parent(self):
        registry = ModelRegistry()
        parent = registry.register("p", StagedResNet(TINY))
        child = registry.register(
            "c", StagedResNet(TINY), kind="reduced", parent_id=parent.model_id
        )
        assert registry.delete(child.model_id) == [child.model_id]
        assert registry.delete(parent.model_id) == [parent.model_id]


class TestTrainEndpoint:
    def test_returns_model_and_metrics(self, service_with_model):
        service, response = service_with_model
        assert response.model_id in service.registry
        assert len(response.stage_accuracies) == 2
        assert response.stage_accuracies[-1] > 0.4
        entry = service.registry.get(response.model_id)
        assert entry.predictor is not None and entry.predictor.fitted

    def test_request_validation(self):
        with pytest.raises(ValueError):
            TrainRequest(inputs=np.zeros((2, 3, 8, 8)), labels=np.zeros(3))
        with pytest.raises(ValueError):
            TrainRequest(inputs=np.zeros((0, 3, 8, 8)), labels=np.zeros(0))
        with pytest.raises(ValueError):
            TrainRequest(inputs=np.zeros((2, 3, 8, 8)), labels=np.zeros(2), epochs=0)


class TestLabelEndpoint:
    def test_self_training_method(self, service_with_model):
        service, _ = service_with_model
        gen = SyntheticImageGenerator(DATA_CFG)
        rng = np.random.default_rng(0)
        xl, yl, _ = gen.sample(50, rng, difficulty=np.full(50, 0.2))
        xu, yu, _ = gen.sample(100, rng, difficulty=np.full(100, 0.2))
        response = service.label(
            LabelRequest(
                labeled_inputs=xl,
                labeled_targets=yl,
                unlabeled_inputs=xu,
                num_classes=4,
                method="self-training",
            )
        )
        assert response.labels.shape == (100,)
        assert float((response.labels == yu).mean()) > 0.4

    def test_method_validation(self):
        with pytest.raises(ValueError):
            LabelRequest(
                labeled_inputs=np.zeros((1, 2)),
                labeled_targets=np.zeros(1),
                unlabeled_inputs=np.zeros((1, 2)),
                num_classes=4,
                method="magic",
            )


class TestReduceEndpoint:
    def test_reduces_with_class_subset(self, service_with_model):
        service, trained = service_with_model
        response = service.reduce(
            ReduceRequest(model_id=trained.model_id, class_subset=[0, 1], epochs=2)
        )
        assert response.parameters < response.original_parameters
        assert response.class_map == {0: 0, 1: 1}
        child = service.registry.get(response.model_id)
        assert child.kind == "reduced"
        assert child.parent_id == trained.model_id

    def test_max_parameters_sizing(self, service_with_model):
        service, trained = service_with_model
        full = service.registry.get(trained.model_id).model.num_parameters()
        response = service.reduce(
            ReduceRequest(model_id=trained.model_id, max_parameters=full // 4, epochs=1)
        )
        assert response.parameters < full

    def test_unknown_model(self, service_with_model):
        service, _ = service_with_model
        with pytest.raises(KeyError):
            service.reduce(ReduceRequest(model_id="m999"))


class TestProfileEndpoint:
    def test_stage_times(self, service_with_model):
        service, trained = service_with_model
        response = service.profile(ProfileRequest(model_id=trained.model_id))
        assert len(response.stage_times_ms) == 2
        assert response.total_time_ms == pytest.approx(sum(response.stage_times_ms))

    def test_normalized_profile(self, service_with_model):
        service, trained = service_with_model
        response = service.profile(
            ProfileRequest(model_id=trained.model_id, normalize=True)
        )
        assert len(set(response.stage_times_ms)) == 1


class TestCalibrateEndpoint:
    def test_reports_per_stage_alphas(self, service_with_model):
        service, trained = service_with_model
        cal_set = make_image_dataset(250, DATA_CFG, seed=11)
        response = service.calibrate(
            CalibrateRequest(
                model_id=trained.model_id,
                inputs=cal_set.inputs,
                labels=cal_set.labels,
                epochs=2,
            )
        )
        assert len(response.alphas) == 2
        assert all(e >= 0 for e in response.ece_after)


class TestInferEndpoint:
    def test_serves_batch(self, service_with_model):
        service, trained = service_with_model
        test_set = make_image_dataset(6, DATA_CFG, seed=21)
        response = service.infer(
            InferRequest(
                model_id=trained.model_id,
                inputs=test_set.inputs,
                latency_constraint_s=30.0,
            )
        )
        assert len(response.predictions) == 6
        assert all(not e for e in response.evicted)
        assert all(s >= 1 for s in response.stages_executed)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            InferRequest(model_id="m1", inputs=np.zeros((1, 3, 8, 8)),
                         latency_constraint_s=0.0)
        with pytest.raises(ValueError):
            InferRequest(model_id="m1", inputs=np.zeros((1, 3, 8, 8)), lookahead=0)

    def test_anytime_contract_over_the_wire(self, service_with_model):
        # Under a tight constraint with ``anytime`` set, a task that ran at
        # least one stage is never evicted — it is served best-so-far and
        # flagged in ``anytime_served``.
        service, trained = service_with_model
        test_set = make_image_dataset(32, DATA_CFG, seed=22)
        response = service.infer(
            InferRequest(
                model_id=trained.model_id,
                inputs=test_set.inputs,
                latency_constraint_s=0.02,
                anytime=True,
            )
        )
        assert len(response.anytime_served) == 32
        for served, evicted, stages, degraded in zip(
            response.anytime_served,
            response.evicted,
            response.stages_executed,
            response.degraded,
        ):
            if stages >= 1:
                assert not evicted  # computed work is always delivered
            if served:
                assert stages >= 1
                assert degraded

    def test_one_terminal_trace_event_per_task(self, service_with_model):
        # Through infer() with anytime on, a binding deadline and a queue
        # bound: tasks end shed, cap-degraded, anytime-served, evicted or
        # complete, and the trace holds exactly one terminal event for each
        # — the service adds none of its own.
        service, trained = service_with_model
        test_set = make_image_dataset(32, DATA_CFG, seed=24)
        with telemetry.session() as tel:
            response = service.infer(
                InferRequest(
                    model_id=trained.model_id,
                    inputs=test_set.inputs,
                    latency_constraint_s=0.02,
                    anytime=True,
                    admission=AdmissionConfig(
                        max_queue_depth=28,
                        degrade_queue_depth=20,
                        degrade_stage_cap=1,
                    ),
                )
            )
            terminal = check_lifecycle(tel.trace)
            degraded = tel.registry.counters()["service.degraded_responses"]
        assert sorted(terminal) == list(range(32))
        assert sum(response.shed) == 4
        assert any(response.degraded)
        assert degraded == sum(response.degraded)

    def test_anytime_defaults_off(self, service_with_model):
        service, trained = service_with_model
        test_set = make_image_dataset(4, DATA_CFG, seed=23)
        response = service.infer(
            InferRequest(
                model_id=trained.model_id,
                inputs=test_set.inputs,
                latency_constraint_s=30.0,
            )
        )
        assert response.anytime_served == [False] * 4


class TestClientAndEdgeDevice:
    def test_client_roundtrip(self, service_with_model):
        service, trained = service_with_model
        client = EugeneClient(service)
        test_set = make_image_dataset(3, DATA_CFG, seed=31)
        response = client.infer(trained.model_id, test_set.inputs)
        assert len(response.predictions) == 3

    def test_edge_device_fetches_cache_under_skew(self, service_with_model):
        service, trained = service_with_model
        client = EugeneClient(service)
        from repro.compression import FrequencyTracker

        device = EdgeDevice(
            client,
            trained.model_id,
            tracker=FrequencyTracker(window=25, coverage_target=0.6, max_classes=3),
            confidence_threshold=0.4,
        )
        gen = SyntheticImageGenerator(DATA_CFG)
        rng = np.random.default_rng(5)
        n = 120
        images, labels, _ = gen.sample(n, rng, difficulty=np.full(n, 0.1))
        mask = (labels == 0) | (labels == 1)
        for img in images[mask][:60]:
            device.query(img)
        assert device.cached is not None
        assert device.queries_local > 0
        assert 0.0 < device.local_fraction <= 1.0
