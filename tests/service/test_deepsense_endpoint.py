"""Tests for the DeepSense training / classify service endpoints."""

import numpy as np
import pytest

from repro.datasets import SensorTimeSeriesConfig, make_sensor_dataset
from repro.nn import DeepSenseConfig
from repro.service import (
    DeepSenseTrainRequest,
    EugeneClient,
    EugeneService,
)

SENSOR_CFG = SensorTimeSeriesConfig(
    num_classes=3, num_sensors=2, channels_per_sensor=3,
    num_intervals=4, samples_per_interval=8, noise_scale=0.4, seed=13,
)
MODEL_CFG = DeepSenseConfig(
    num_sensors=2, channels_per_sensor=3, num_intervals=4,
    samples_per_interval=8, conv_channels=6, hidden_size=16,
    output_dim=3, seed=0,
)


@pytest.fixture(scope="module")
def trained():
    service = EugeneService(seed=0)
    client = EugeneClient(service)
    train_set = make_sensor_dataset(240, SENSOR_CFG, seed=0)
    response = client.train_deepsense(
        train_set.inputs, train_set.labels, model_config=MODEL_CFG, steps=120,
    )
    return service, client, response


class TestTrainDeepSense:
    def test_learns_activities(self, trained):
        _, _, response = trained
        assert response.train_accuracy > 0.6  # chance 1/3
        assert response.steps == 120

    def test_registered_kind(self, trained):
        service, _, response = trained
        assert service.registry.get(response.model_id).kind == "deepsense"

    def test_validation(self):
        with pytest.raises(ValueError):
            DeepSenseTrainRequest(inputs=np.zeros((2, 6, 4, 8)), labels=np.zeros(3))
        with pytest.raises(ValueError):
            DeepSenseTrainRequest(inputs=np.zeros((2, 6, 4)), labels=np.zeros(2))
        with pytest.raises(ValueError):
            DeepSenseTrainRequest(
                inputs=np.zeros((2, 6, 4, 8)), labels=np.zeros(2), steps=0
            )


class TestClassify:
    def test_classifies_heldout(self, trained):
        _, client, response = trained
        test_set = make_sensor_dataset(90, SENSOR_CFG, seed=1)
        out = client.classify(response.model_id, test_set.inputs)
        assert out.predictions.shape == (90,)
        assert ((out.confidences > 0) & (out.confidences <= 1)).all()
        assert float((out.predictions == test_set.labels).mean()) > 0.5

    def test_classify_works_for_staged_models_too(self, trained):
        service, client, _ = trained
        from repro.datasets import SyntheticImageConfig, make_image_dataset
        from repro.nn import StagedResNetConfig

        data = make_image_dataset(
            120, SyntheticImageConfig(num_classes=3, image_size=8, seed=0), seed=0
        )
        staged = client.train(
            data.inputs, data.labels,
            model_config=StagedResNetConfig(
                num_classes=3, image_size=8, stage_channels=(4, 8),
                blocks_per_stage=1, seed=0,
            ),
            epochs=3,
        )
        out = client.classify(staged.model_id, data.inputs[:10])
        assert out.predictions.shape == (10,)

    def test_rejects_estimators(self, trained):
        service, client, _ = trained
        est = client.train_estimator(np.zeros((20, 2)), np.zeros(20), steps=5)
        with pytest.raises(ValueError):
            client.classify(est.model_id, np.zeros((2, 2)))
