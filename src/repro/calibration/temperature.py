"""Temperature scaling (Guo et al. 2017) — ablation baseline.

The paper cites [11] ("On calibration of modern neural networks") when
motivating its entropy regularizer; temperature scaling is that paper's
method and the natural extra baseline for our calibration ablation: a single
scalar T rescales the logits, fit by minimizing NLL on a held-out split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_min(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-6
) -> float:
    """Argmin of a unimodal ``f`` on ``[lo, hi]``, to within ``tol``.

    Each step keeps the sub-bracket holding the lower of two interior
    probes and reuses the other probe, so it costs one evaluation and
    shrinks the bracket by the golden ratio; an optimum at an edge of
    ``[lo, hi]`` pulls the bracket onto that edge.
    """
    a, b = lo, hi
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def _nll_at_temperature(logits: np.ndarray, labels: np.ndarray, temperature: float) -> float:
    scaled = logits / temperature
    shifted = scaled - scaled.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1))
    picked = shifted[np.arange(len(labels)), labels]
    return float((logsumexp - picked).mean())


@dataclass
class TemperatureScaler:
    """Fits T > 0 minimizing NLL; ``transform`` rescales softmax outputs."""

    max_temperature: float = 20.0
    temperature: float = field(default=1.0, init=False)
    fitted: bool = field(default=False, init=False)

    def fit(self, logits: np.ndarray, labels: np.ndarray) -> "TemperatureScaler":
        logits = np.asarray(logits, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if logits.ndim != 2 or len(logits) != len(labels):
            raise ValueError("logits must be (N, C) matching labels (N,)")
        self.temperature = _golden_section_min(
            lambda t: _nll_at_temperature(logits, labels, t),
            1e-2,
            self.max_temperature,
        )
        self.fitted = True
        return self

    def transform(self, logits: np.ndarray) -> np.ndarray:
        """Calibrated softmax probabilities for ``logits``."""
        if not self.fitted:
            raise RuntimeError("call fit() before transform()")
        scaled = np.asarray(logits) / self.temperature
        shifted = scaled - scaled.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)

    def fit_transform(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return self.fit(logits, labels).transform(logits)
