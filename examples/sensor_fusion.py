#!/usr/bin/env python
"""DeepSense-style sensor fusion through the Eugene training service.

The paper's training service (Sec. II-A) ingests time series from multiple
sensors, "aligned and divided into time intervals for processing", and trains
a CNN-based model.  This example:

1. generates a synthetic activity-recognition dataset — two 3-axis sensors
   (think accelerometer + gyroscope), laid out as (interval x time) grids per
   channel, with temporally-correlated (AR(1)) noise;
2. trains a staged model on it through the service;
3. demonstrates the *labeling* service: given only a small labelled seed set,
   the SenseGAN-style adversarial labeler proposes labels for a large
   unlabeled pool, and we measure how close they get to ground truth.

Run:  python examples/sensor_fusion.py
"""

import numpy as np

from repro.datasets import SensorTimeSeriesConfig, make_sensor_dataset
from repro.nn import StagedResNetConfig
from repro.service import EugeneClient, EugeneService

SENSOR_CFG = SensorTimeSeriesConfig(
    num_classes=5,
    num_sensors=2,
    channels_per_sensor=3,
    num_intervals=8,
    samples_per_interval=8,
    noise_scale=1.1,
    seed=13,
)


def main() -> None:
    service = EugeneService(seed=0)
    client = EugeneClient(service)

    # 1 + 2. Train a staged model on multi-sensor time series.
    train_set = make_sensor_dataset(1000, SENSOR_CFG, seed=0)
    test_set = make_sensor_dataset(400, SENSOR_CFG, seed=1)
    model_config = StagedResNetConfig(
        num_classes=SENSOR_CFG.num_classes,
        in_channels=SENSOR_CFG.num_sensors * SENSOR_CFG.channels_per_sensor,
        image_size=SENSOR_CFG.num_intervals,  # square (interval x time) grid
        stage_channels=(8, 16, 24),
        blocks_per_stage=1,
        seed=0,
    )
    print("training the sensor-fusion model ...")
    trained = client.train(
        train_set.inputs, train_set.labels,
        model_config=model_config, epochs=8, name="activity",
    )
    print(f"  stage accuracies (train): "
          f"{[f'{a:.2f}' for a in trained.stage_accuracies]}")

    response = client.infer(trained.model_id, test_set.inputs[:64],
                            latency_constraint_s=60.0)
    accuracy = np.mean(
        [p == l for p, l in zip(response.predictions, test_set.labels[:64])]
    )
    print(f"  held-out accuracy via the inference service: {accuracy:.1%}\n")

    # 2b. The paper's own training substrate: the DeepSense architecture
    # (per-sensor CNNs -> merge CNN -> GRU -> softmax).
    from repro.nn import DeepSenseConfig

    print("training the DeepSense architecture on the same data ...")
    ds_trained = client.train_deepsense(
        train_set.inputs, train_set.labels,
        model_config=DeepSenseConfig(
            num_sensors=SENSOR_CFG.num_sensors,
            channels_per_sensor=SENSOR_CFG.channels_per_sensor,
            num_intervals=SENSOR_CFG.num_intervals,
            samples_per_interval=SENSOR_CFG.samples_per_interval,
            conv_channels=8, hidden_size=24,
            output_dim=SENSOR_CFG.num_classes, seed=0,
        ),
        steps=200,
    )
    ds_out = client.classify(ds_trained.model_id, test_set.inputs)
    ds_accuracy = float((ds_out.predictions == test_set.labels).mean())
    print(f"  DeepSense held-out accuracy: {ds_accuracy:.1%}\n")

    # 3. Automatic labeling from a small labelled seed.
    seed_set = make_sensor_dataset(80, SENSOR_CFG, seed=2)
    unlabeled = make_sensor_dataset(600, SENSOR_CFG, seed=3)
    print("proposing labels for 600 unlabeled recordings "
          "(SenseGAN-style adversarial labeler) ...")
    labeled = client.label(
        seed_set.inputs, seed_set.labels, unlabeled.inputs,
        num_classes=SENSOR_CFG.num_classes, rounds=120,
    )
    pseudo_accuracy = float((labeled.labels == unlabeled.labels).mean())
    print(f"  pseudo-label accuracy: {pseudo_accuracy:.1%} "
          f"(chance {1 / SENSOR_CFG.num_classes:.1%}), "
          f"mean confidence {labeled.confidences.mean():.2f}")

    baseline = client.label(
        seed_set.inputs, seed_set.labels, unlabeled.inputs,
        num_classes=SENSOR_CFG.num_classes, method="self-training",
    )
    base_accuracy = float((baseline.labels == unlabeled.labels).mean())
    print(f"  self-training baseline:  {base_accuracy:.1%}")


if __name__ == "__main__":
    main()
