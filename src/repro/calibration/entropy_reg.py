"""Entropy-based confidence calibration with fine-tuning (Eq. 4 — RTDeepIoT).

The paper's method: after normal training, fine-tune with
``L = CE(p, y) + alpha * H(p)`` where the sign of ``alpha`` is chosen from
the direction of miscalibration.  Minimizing ``+alpha*H`` with ``alpha > 0``
drives entropy down (confidence up); ``alpha < 0`` drives entropy up
(confidence down).  Hence:

- overconfident head (``conf > acc``, the common case, Guo et al. 2017)
  → ``alpha < 0``;
- underconfident head → ``alpha > 0``.

"Tuning the value of alpha is simple" (Sec. III-A): :class:`EntropyCalibrator`
measures the per-stage miscalibration on a held-out calibration split, picks
per-stage alphas by the rule above (optionally line-searching the magnitude),
and fine-tunes the stage classifiers only — the backbone stays frozen so
calibration cannot degrade feature quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..nn import functional as F
from ..nn.data import DataLoader, Dataset
from ..nn.losses import cross_entropy, entropy
from ..nn.optim import Adam
from ..nn.resnet import StagedResNet
from ..nn.tensor import Tensor
from ..nn.training import collect_stage_outputs
from .ece import summarize_calibration


def choose_alpha(accuracy: float, mean_confidence: float, magnitude: float = 0.5) -> float:
    """The paper's sign rule for the Eq. (4) hyper-parameter.

    Returns ``-magnitude`` when the head overestimates (conf > acc) so the
    entropy reward pulls confidence down, ``+magnitude`` when it
    underestimates, and 0 when already within one tenth of a percent.
    """
    gap = mean_confidence - accuracy
    if abs(gap) < 1e-3:
        return 0.0
    return -magnitude if gap > 0 else magnitude


@dataclass
class StageCalibrationResult:
    """Before/after calibration stats for one stage."""

    stage: int
    alpha: float
    ece_before: float
    ece_after: float


@dataclass
class EntropyCalibrator:
    """Calibrates every stage classifier of a :class:`StagedResNet` (Eq. 4).

    Parameters
    ----------
    magnitude:
        Base |alpha|.  With ``search=True`` the calibrator tries
        ``magnitude * {0.5, 1, 2}`` and keeps the best-ECE result per stage.
    epochs, lr, batch_size:
        Fine-tuning hyper-parameters (classifier heads only).
    num_bins:
        ECE bin count (M in Eq. 3).
    """

    magnitude: float = 0.5
    epochs: int = 3
    lr: float = 1e-2
    batch_size: int = 64
    num_bins: int = 10
    search: bool = True
    #: fraction of the calibration set used for fine-tuning; the remainder is
    #: an internal validation split that picks the winning alpha, so the
    #: selection cannot overfit the data it was trained on.
    fit_fraction: float = 0.7
    seed: int = 0

    def calibrate(
        self, model: StagedResNet, calibration_set: Dataset
    ) -> List[StageCalibrationResult]:
        """Fine-tune each stage head on ``calibration_set``; returns per-stage stats.

        For each stage, candidate alphas (including 0 and the identity — no
        fine-tune at all) are trained on the fit split and ranked by ECE on
        the validation split; the winner's weights are installed.
        """
        before = collect_stage_outputs(model, calibration_set)
        results: List[StageCalibrationResult] = []
        features_cache = self._stage_features(model, calibration_set)
        rng = np.random.default_rng(self.seed)
        n = len(calibration_set)
        order = rng.permutation(n)
        cut = int(round(self.fit_fraction * n))
        fit_idx, val_idx = order[:cut], order[cut:]
        labels = calibration_set.labels
        for stage in range(model.num_stages):
            pooled = features_cache[stage]
            summary = summarize_calibration(
                before["confidences"][stage], before["correct"][stage], self.num_bins
            )
            base_alpha = choose_alpha(summary.accuracy, summary.mean_confidence, self.magnitude)
            candidates = [0.0, base_alpha]
            if self.search and base_alpha != 0.0:
                candidates += [base_alpha * 0.5, base_alpha * 2.0]
            original_state = model.classifiers[stage].state_dict()
            identity_ece = self._head_ece(model, stage, pooled[val_idx], labels[val_idx])
            best = (None, identity_ece, original_state)
            for alpha in dict.fromkeys(candidates):
                model.classifiers[stage].load_state_dict(original_state)
                self._finetune_head(model, stage, pooled[fit_idx], labels[fit_idx], alpha)
                ece_val = self._head_ece(model, stage, pooled[val_idx], labels[val_idx])
                if ece_val < best[1]:
                    best = (alpha, ece_val, model.classifiers[stage].state_dict())
            alpha, ece_after, best_state = best
            model.classifiers[stage].load_state_dict(best_state)
            results.append(
                StageCalibrationResult(
                    stage=stage,
                    alpha=alpha if alpha is not None else 0.0,
                    ece_before=summary.ece,
                    ece_after=ece_after,
                )
            )
        return results

    # ------------------------------------------------------------------
    def _stage_features(
        self, model: StagedResNet, dataset: Dataset
    ) -> List[np.ndarray]:
        """Pre-compute frozen backbone features entering each stage classifier."""
        model.eval()
        loader = DataLoader(dataset, batch_size=self.batch_size, shuffle=False)
        per_stage: List[List[np.ndarray]] = [[] for _ in range(model.num_stages)]
        for inputs, _ in loader:
            features = model.run_stem(Tensor(inputs))
            for s in range(model.num_stages):
                features = model.stages[s](features)
                pooled = F.global_avg_pool2d(features)
                per_stage[s].append(pooled.data)
        return [np.concatenate(chunks, axis=0) for chunks in per_stage]

    def _finetune_head(
        self,
        model: StagedResNet,
        stage: int,
        pooled: np.ndarray,
        labels: np.ndarray,
        alpha: float,
    ) -> None:
        head = model.classifiers[stage].fc
        optimizer = Adam(head.parameters(), lr=self.lr)
        rng = np.random.default_rng(self.seed)
        n = len(labels)
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                logits = head(Tensor(pooled[idx]))
                loss = cross_entropy(logits, labels[idx])
                if alpha != 0.0:
                    loss = loss + alpha * entropy(F.softmax(logits, axis=-1))
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()

    def _head_ece(
        self, model: StagedResNet, stage: int, pooled: np.ndarray, labels: np.ndarray
    ) -> float:
        head = model.classifiers[stage].fc
        probs = F.softmax(head(Tensor(pooled)), axis=-1).data
        confidences = probs.max(axis=-1)
        correct = probs.argmax(axis=-1) == labels
        return summarize_calibration(confidences, correct, self.num_bins).ece
