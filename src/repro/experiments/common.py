"""Shared benchmark artifacts: the trained staged model and its outputs.

Training the benchmark-scale staged ResNet in pure numpy takes about a
minute, so the trained weights (plus the derived per-stage outputs on the
train/calibration/test splits) are cached under ``.bench_cache/`` next to
the repository root.  Delete that directory to force retraining.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

import numpy as np

from ..calibration.entropy_reg import EntropyCalibrator
from ..datasets import SyntheticImageConfig, make_image_dataset
from ..nn.data import Dataset
from ..nn.resnet import StagedResNet, StagedResNetConfig
from ..nn.training import collect_stage_outputs, evaluate_stage_accuracy, train_staged_model
from ..scheduler.confidence import GPConfidencePredictor

#: benchmark-scale configuration — a numpy-trainable instance of the paper's
#: three-stage topology over the synthetic CIFAR-10 substitute.
BENCH_MODEL_CONFIG = StagedResNetConfig(
    num_classes=10,
    image_size=16,
    stage_channels=(8, 16, 32),
    blocks_per_stage=2,
    seed=0,
)
BENCH_DATA_CONFIG = SyntheticImageConfig(num_classes=10, image_size=16, seed=7)
TRAIN_SIZE = 3000
CAL_SIZE = 1200
TEST_SIZE = 1500
EPOCHS = 20
LEARNING_RATE = 3e-3

_CACHE_VERSION = 5


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_BENCH_CACHE")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / ".bench_cache"


@dataclass
class BenchmarkArtifacts:
    """Everything the table/figure experiments need, computed once."""

    model: StagedResNet
    train_set: Dataset
    cal_set: Dataset
    test_set: Dataset
    #: stage outputs of the *calibrated* model.
    train_outputs: Dict[str, np.ndarray]
    test_outputs: Dict[str, np.ndarray]
    #: stage outputs of the model *before* calibration (for Table II / Fig 2).
    uncalibrated_test_outputs: Dict[str, np.ndarray]
    uncalibrated_state: Dict[str, np.ndarray]
    stage_accuracies: np.ndarray
    calibration_alphas: tuple

    @property
    def num_stages(self) -> int:
        return self.model.num_stages

    def confidence_predictor(self) -> GPConfidencePredictor:
        """The GP confidence-curve predictor fit on the training split."""
        return GPConfidencePredictor(
            num_classes=self.model.config.num_classes, seed=0
        ).fit(self.train_outputs["confidences"])

    def uncalibrated_model(self) -> StagedResNet:
        """A copy of the model with pre-calibration weights installed."""
        model = StagedResNet(self.model.config)
        model.load_state_dict(self.uncalibrated_state)
        model.eval()
        return model


def _build_artifacts(seed: int = 0) -> BenchmarkArtifacts:
    train_set = make_image_dataset(TRAIN_SIZE, BENCH_DATA_CONFIG, seed=seed)
    cal_set = make_image_dataset(CAL_SIZE, BENCH_DATA_CONFIG, seed=seed + 1)
    test_set = make_image_dataset(TEST_SIZE, BENCH_DATA_CONFIG, seed=seed + 2)
    model = StagedResNet(BENCH_MODEL_CONFIG)
    train_staged_model(
        model, train_set, epochs=EPOCHS, batch_size=64, lr=LEARNING_RATE, seed=seed
    )
    uncalibrated_state = model.state_dict()
    uncalibrated_test_outputs = collect_stage_outputs(model, test_set)

    results = EntropyCalibrator(epochs=3, seed=seed).calibrate(model, cal_set)
    train_outputs = collect_stage_outputs(model, train_set)
    test_outputs = collect_stage_outputs(model, test_set)
    return BenchmarkArtifacts(
        model=model,
        train_set=train_set,
        cal_set=cal_set,
        test_set=test_set,
        train_outputs=train_outputs,
        test_outputs=test_outputs,
        uncalibrated_test_outputs=uncalibrated_test_outputs,
        uncalibrated_state=uncalibrated_state,
        stage_accuracies=evaluate_stage_accuracy(model, test_set),
        calibration_alphas=tuple(r.alpha for r in results),
    )


_MEMORY_CACHE: Dict[int, BenchmarkArtifacts] = {}


def get_benchmark_artifacts(seed: int = 0, use_disk_cache: bool = True) -> BenchmarkArtifacts:
    """Return the (cached) benchmark artifacts for ``seed``."""
    if seed in _MEMORY_CACHE:
        return _MEMORY_CACHE[seed]
    cache_file = _cache_dir() / f"bench_v{_CACHE_VERSION}_seed{seed}.pkl"
    if use_disk_cache and cache_file.exists():
        with open(cache_file, "rb") as fh:
            artifacts = pickle.load(fh)
        _MEMORY_CACHE[seed] = artifacts
        return artifacts
    artifacts = _build_artifacts(seed)
    if use_disk_cache:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        with open(cache_file, "wb") as fh:
            pickle.dump(artifacts, fh)
    _MEMORY_CACHE[seed] = artifacts
    return artifacts
