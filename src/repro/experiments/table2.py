"""E3 — Table II: ECE of confidence-calibration methods at every stage.

Methods, as in the paper:

- **Uncalibrated**: raw confidences of the trained model;
- **RDeepSense**: MC-dropout confidence (Sec. II-D baseline);
- **RTDeepIoT**: the entropy-based calibration of Eq. (4).

We additionally report temperature scaling as an extra baseline (marked
``extra`` — not in the paper's table).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..calibration.ece import expected_calibration_error
from ..calibration.mc_dropout import MCDropoutStagedWrapper
from ..calibration.temperature import TemperatureScaler
from ..nn.data import DataLoader
from ..nn.tensor import Tensor
from .common import BenchmarkArtifacts, get_benchmark_artifacts
from .experiment import Experiment, failed


def _stage_logits(model, dataset, batch_size: int = 256) -> List[np.ndarray]:
    model.eval()
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    chunks: List[List[np.ndarray]] = [[] for _ in range(model.num_stages)]
    for inputs, _ in loader:
        logits = model(Tensor(inputs))
        for s, l in enumerate(logits):
            chunks[s].append(l.data)
    return [np.concatenate(c, axis=0) for c in chunks]


def run_table2(artifacts: BenchmarkArtifacts = None, num_bins: int = 10) -> Dict[str, List[float]]:
    """Per-stage ECE of each calibration method on the test set."""
    artifacts = artifacts or get_benchmark_artifacts()
    labels = artifacts.test_outputs["labels"]
    num_stages = artifacts.num_stages
    result: Dict[str, List[float]] = {}

    # Uncalibrated: the pre-calibration model's raw confidences.
    before = artifacts.uncalibrated_test_outputs
    result["Uncalibrated"] = [
        expected_calibration_error(before["confidences"][s], before["correct"][s], num_bins)
        for s in range(num_stages)
    ]

    # RDeepSense: MC dropout, with heads fine-tuned dropout-active on the
    # calibration split (RDeepSense trains its dropout-bearing layers).
    uncal_model = artifacts.uncalibrated_model()
    wrapper = MCDropoutStagedWrapper(uncal_model, rate=0.25, passes=20, seed=0)
    wrapper.finetune_heads(artifacts.cal_set, epochs=3)
    mc = wrapper.collect_outputs(artifacts.test_set)
    result["RDeepSense"] = [
        expected_calibration_error(mc["confidences"][s], mc["correct"][s], num_bins)
        for s in range(num_stages)
    ]

    # RTDeepIoT: entropy-calibrated model (Eq. 4).
    after = artifacts.test_outputs
    result["RTDeepIoT"] = [
        expected_calibration_error(after["confidences"][s], after["correct"][s], num_bins)
        for s in range(num_stages)
    ]

    # Extra baseline: temperature scaling fit on the calibration split
    # (over a pristine copy of the pre-calibration model).
    pristine = artifacts.uncalibrated_model()
    cal_logits = _stage_logits(pristine, artifacts.cal_set)
    test_logits = _stage_logits(pristine, artifacts.test_set)
    temp_eces = []
    for s in range(num_stages):
        scaler = TemperatureScaler().fit(cal_logits[s], artifacts.cal_set.labels)
        probs = scaler.transform(test_logits[s])
        conf = probs.max(axis=-1)
        correct = probs.argmax(axis=-1) == labels
        temp_eces.append(expected_calibration_error(conf, correct, num_bins))
    result["TemperatureScaling (extra)"] = temp_eces
    return result


def format_table2(table: Dict[str, List[float]]) -> str:
    methods = list(table)
    num_stages = len(next(iter(table.values())))
    header = f"{'':10}" + "".join(f"{m:>28}" for m in methods)
    lines = [header, "-" * len(header)]
    for s in range(num_stages):
        lines.append(
            f"Stage {s + 1:<4}" + "".join(f"{table[m][s]:>28.3f}" for m in methods)
        )
    return "\n".join(lines)


def check_table2(table: Dict[str, List[float]]) -> List[str]:
    # The paper's ordering, on the stage mean (single stages are noisy at
    # this scale).
    mean = {m: float(np.mean(v)) for m, v in table.items()}
    return failed({
        "RTDeepIoT mean ECE below Uncalibrated": mean["RTDeepIoT"] < mean["Uncalibrated"],
        "RTDeepIoT mean ECE below RDeepSense": mean["RTDeepIoT"] < mean["RDeepSense"],
        "RTDeepIoT ECE below 0.08 at every stage": max(table["RTDeepIoT"]) < 0.08,
    })


TABLE2 = Experiment(
    name="table2",
    summary="E3 Table II: per-stage ECE of the calibration methods",
    run=lambda args: run_table2(),
    format=format_table2,
    check=check_table2,
    record="table2_ece",
)
