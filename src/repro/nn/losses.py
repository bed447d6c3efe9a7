"""Loss functions, including the paper's entropy-regularized objective.

Equation (4) of the Eugene paper defines the RTDeepIoT confidence-calibration
loss ``L = CE(p, y) + alpha * H(p)``: cross entropy plus a signed entropy
regularizer.  Minimizing with ``alpha < 0`` *rewards* entropy, lowering
confidence (use when the network is overconfident, i.e. conf > acc);
``alpha > 0`` penalizes entropy, raising confidence (use when the network is
underconfident).  See :func:`repro.calibration.entropy_reg.choose_alpha` for
the automated sign rule.  The weighted
MSE+NLL objective of RDeepSense (Section II-D) is provided as
:func:`gaussian_nll_mse` for the estimation-task service.
"""

from __future__ import annotations


import numpy as np

from . import functional as F
from .tensor import Tensor, as_tensor


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross entropy between logits ``(N, C)`` and integer labels ``(N,)``."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    log_probs = F.log_softmax(logits, axis=-1)
    n = logits.shape[0]
    picked = log_probs[np.arange(n), labels]
    return -picked.mean()


def entropy(probs: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Shannon entropy ``H(p) = -sum p log p`` along ``axis`` (mean over batch)."""
    probs = as_tensor(probs)
    clipped = probs.clip(eps, 1.0)
    per_sample = -(probs * clipped.log()).sum(axis=axis)
    return per_sample.mean()


def entropy_regularized_ce(
    logits: Tensor, labels: np.ndarray, alpha: float
) -> Tensor:
    """The RTDeepIoT calibration loss of Eq. (4): ``CE + alpha * H(p)``."""
    probs = F.softmax(logits, axis=-1)
    return cross_entropy(logits, labels) + alpha * entropy(probs)


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error."""
    pred = as_tensor(pred)
    diff = pred - np.asarray(target, dtype=np.float64)
    return (diff * diff).mean()


def mae(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error."""
    pred = as_tensor(pred)
    return (pred - np.asarray(target, dtype=np.float64)).abs().mean()


def gaussian_nll(
    mean: Tensor, log_var: Tensor, target: np.ndarray
) -> Tensor:
    """Negative log-likelihood of targets under N(mean, exp(log_var)).

    This is the nonlinear error term discussed in Section II-D: on its own it
    biases the mean and *overestimates* uncertainty.
    """
    target = np.asarray(target, dtype=np.float64)
    inv_var = (-log_var).exp()
    sq = (mean - target) ** 2
    return 0.5 * (log_var + sq * inv_var).mean()


def gaussian_nll_mse(
    mean: Tensor,
    log_var: Tensor,
    target: np.ndarray,
    weight: float = 0.5,
) -> Tensor:
    """RDeepSense's weighted-sum loss: ``w * MSE + (1 - w) * NLL``.

    MSE alone underestimates uncertainty and NLL alone overestimates it
    (Section II-D); the calibrated ``weight`` makes the two biases roughly
    cancel.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {weight}")
    return weight * mse(mean, target) + (1.0 - weight) * gaussian_nll(
        mean, log_var, target
    )
