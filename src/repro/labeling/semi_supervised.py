"""SenseGAN-style semi-supervised labeling (Sec. II-A, [8]).

The game, as the paper describes it: a *proposer* (classifier) labels
unlabeled samples; a *discriminator* tries to tell (sample, proposed label)
pairs apart from genuine (sample, true label) pairs; both refine each other
until proposed labels are "hard to falsify".

Implementation notes
--------------------
- The proposer is an MLP classifier over flattened inputs; its softmax
  output (a soft label) is fed to the discriminator, keeping the whole
  proposer->discriminator path differentiable — the standard trick used by
  semi-supervised GANs over categorical outputs.
- The discriminator is an MLP over ``concat(x, label_distribution)``.
- Each round interleaves (i) supervised cross entropy on the labeled set,
  (ii) discriminator updates on real vs proposed pairs, (iii) adversarial
  proposer updates that try to make proposed pairs look real.
- :func:`self_training_labels` is the non-adversarial baseline (confidence-
  thresholded pseudo-labeling) used in the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.data import Dataset
from ..nn.layers import Dense, ReLU, Sequential
from ..nn.losses import cross_entropy
from ..nn.optim import Adam
from ..nn.tensor import Tensor, concatenate


@dataclass
class SenseGANConfig:
    hidden: int = 64
    disc_hidden: int = 64
    rounds: int = 30
    batch_size: int = 64
    lr: float = 1e-3
    #: weight of the adversarial term in the proposer loss.
    adversarial_weight: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rounds < 1 or self.hidden < 1 or self.disc_hidden < 1:
            raise ValueError("invalid SenseGAN configuration")
        if self.adversarial_weight < 0:
            raise ValueError("adversarial weight must be non-negative")


@dataclass
class LabelingReport:
    """Quality of the produced pseudo labels (requires ground truth to assess)."""

    pseudo_label_accuracy: float
    mean_confidence: float
    num_labeled: int
    num_unlabeled: int


def _flatten(inputs: np.ndarray) -> np.ndarray:
    return inputs.reshape(len(inputs), -1)


def _bce(pred: Tensor, target: float) -> Tensor:
    """Binary cross entropy of sigmoid outputs against a constant target."""
    eps = 1e-7
    clipped = pred.clip(eps, 1.0 - eps)
    if target == 1.0:
        return -clipped.log().mean()
    if target == 0.0:
        return -(1.0 - clipped).log().mean()
    return -(target * clipped.log() + (1 - target) * (1.0 - clipped).log()).mean()


class SenseGANLabeler:
    """Adversarial semi-supervised labeler."""

    def __init__(self, num_classes: int, input_dim: int,
                 config: Optional[SenseGANConfig] = None) -> None:
        if num_classes < 2 or input_dim < 1:
            raise ValueError("need >= 2 classes and a positive input dim")
        self.num_classes = num_classes
        self.input_dim = input_dim
        self.config = config or SenseGANConfig()
        rng = np.random.default_rng(self.config.seed)
        h = self.config.hidden
        self.proposer = Sequential(
            Dense(input_dim, h, rng=rng), ReLU(),
            Dense(h, h, rng=rng), ReLU(),
            Dense(h, num_classes, rng=rng),
        )
        d = self.config.disc_hidden
        self.discriminator = Sequential(
            Dense(input_dim + num_classes, d, rng=rng), ReLU(),
            Dense(d, d, rng=rng), ReLU(),
            Dense(d, 1, rng=rng),
        )
        self._rng = rng
        self.history: List[dict] = []

    # ------------------------------------------------------------------
    def _disc_prob(self, x: Tensor, labels: Tensor) -> Tensor:
        joined = concatenate([x, labels], axis=1)
        return self.discriminator(joined).sigmoid()

    def fit(self, labeled: Dataset, unlabeled_inputs: np.ndarray) -> "SenseGANLabeler":
        """Run the adversarial labeling game."""
        cfg = self.config
        xl = _flatten(np.asarray(labeled.inputs, dtype=np.float64))
        yl = np.asarray(labeled.labels, dtype=np.int64)
        xu = _flatten(np.asarray(unlabeled_inputs, dtype=np.float64))
        if xl.shape[1] != self.input_dim or xu.shape[1] != self.input_dim:
            raise ValueError("input dimensionality mismatch")
        onehot_l = F.one_hot(yl, self.num_classes)

        p_opt = Adam(self.proposer.parameters(), lr=cfg.lr)
        d_opt = Adam(self.discriminator.parameters(), lr=cfg.lr)

        for round_idx in range(cfg.rounds):
            bl = self._rng.choice(len(xl), size=min(cfg.batch_size, len(xl)), replace=False)
            bu = self._rng.choice(len(xu), size=min(cfg.batch_size, len(xu)), replace=False)
            xb_l, yb_l = xl[bl], yl[bl]
            xb_u = xu[bu]

            # (i) supervised step for the proposer.
            sup_loss = cross_entropy(self.proposer(Tensor(xb_l)), yb_l)
            p_opt.zero_grad()
            sup_loss.backward()
            p_opt.step()

            # (ii) discriminator: real (x_l, y_l) vs proposed (x_u, C(x_u)).
            proposed = F.softmax(self.proposer(Tensor(xb_u)), axis=-1).detach()
            real_prob = self._disc_prob(Tensor(xb_l), Tensor(onehot_l[bl]))
            fake_prob = self._disc_prob(Tensor(xb_u), proposed)
            d_loss = _bce(real_prob, 1.0) + _bce(fake_prob, 0.0)
            d_opt.zero_grad()
            d_loss.backward()
            d_opt.step()

            # (iii) adversarial proposer step: make proposed pairs look real.
            proposed_live = F.softmax(self.proposer(Tensor(xb_u)), axis=-1)
            fool_prob = self._disc_prob(Tensor(xb_u), proposed_live)
            g_loss = cfg.adversarial_weight * _bce(fool_prob, 1.0)
            p_opt.zero_grad()
            g_loss.backward()
            p_opt.step()

            self.history.append(
                {
                    "round": round_idx,
                    "supervised_loss": sup_loss.item(),
                    "discriminator_loss": d_loss.item(),
                    "adversarial_loss": g_loss.item(),
                }
            )
        return self

    # ------------------------------------------------------------------
    def propose_labels(self, inputs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(labels, confidences) for ``inputs``."""
        probs = F.softmax(self.proposer(Tensor(_flatten(inputs))), axis=-1).data
        return probs.argmax(axis=-1), probs.max(axis=-1)

    def report(self, inputs: np.ndarray, true_labels: np.ndarray,
               num_labeled: int) -> LabelingReport:
        labels, confidences = self.propose_labels(inputs)
        return LabelingReport(
            pseudo_label_accuracy=float((labels == true_labels).mean()),
            mean_confidence=float(confidences.mean()),
            num_labeled=num_labeled,
            num_unlabeled=len(inputs),
        )


def self_training_labels(
    labeled: Dataset,
    unlabeled_inputs: np.ndarray,
    num_classes: int,
    confidence_threshold: float = 0.0,
    epochs: int = 60,
    hidden: int = 64,
    lr: float = 1e-3,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Non-adversarial pseudo-labeling baseline.

    Trains a plain MLP on the labeled set and proposes argmax labels for the
    unlabeled inputs; entries below ``confidence_threshold`` get label -1.
    Returns ``(labels, confidences)``.
    """
    rng = np.random.default_rng(seed)
    xl = _flatten(np.asarray(labeled.inputs, dtype=np.float64))
    yl = np.asarray(labeled.labels, dtype=np.int64)
    xu = _flatten(np.asarray(unlabeled_inputs, dtype=np.float64))
    model = Sequential(
        Dense(xl.shape[1], hidden, rng=rng), ReLU(), Dense(hidden, num_classes, rng=rng)
    )
    opt = Adam(model.parameters(), lr=lr)
    for _ in range(epochs):
        idx = rng.choice(len(xl), size=min(64, len(xl)), replace=False)
        loss = cross_entropy(model(Tensor(xl[idx])), yl[idx])
        opt.zero_grad()
        loss.backward()
        opt.step()
    probs = F.softmax(model(Tensor(xu)), axis=-1).data
    labels = probs.argmax(axis=-1)
    confidences = probs.max(axis=-1)
    labels = np.where(confidences >= confidence_threshold, labels, -1)
    return labels, confidences
