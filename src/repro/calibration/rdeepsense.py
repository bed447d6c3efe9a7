"""RDeepSense-style regression uncertainty (Sec. II-D).

The paper's argument, implemented and measurable here:

- training the (mean, variance) head with **MSE only** fits the mean well,
  so the variance observed on training data is small and **underestimates**
  test-time uncertainty (predictive intervals too narrow);
- training with **NLL only** biases the mean and **overestimates**
  uncertainty (intervals too wide);
- a **weighted sum** of the two (the RDeepSense loss,
  :func:`repro.nn.losses.gaussian_nll_mse`) makes the biases roughly cancel,
  yielding well-calibrated intervals.

:func:`fit_gaussian_regressor` trains a small MLP emitting (mean, log-var)
under any loss weight; :func:`interval_coverage` and
:func:`regression_calibration_curve` quantify interval quality; and
:func:`sweep_loss_weight` reproduces the under/over-estimation picture as a
table of nominal-vs-empirical coverage per weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.layers import Dense, Module, ReLU, Sequential
from ..nn.losses import gaussian_nll_mse, mse
from ..nn.optim import Adam
from ..nn.tensor import Tensor


class GaussianRegressor(Module):
    """MLP emitting a (mean, log-variance) pair per output dimension."""

    def __init__(self, input_dim: int, hidden: int = 32, output_dim: int = 1,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.output_dim = output_dim
        self.body = Sequential(
            Dense(input_dim, hidden, rng=rng), ReLU(),
            Dense(hidden, hidden, rng=rng), ReLU(),
        )
        self.mean_head = Dense(hidden, output_dim, rng=rng)
        self.logvar_head = Dense(hidden, output_dim, rng=rng)

    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        features = self.body(x)
        return self.mean_head(features), self.logvar_head(features)

    def predict(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(mean, std) as plain arrays."""
        mean, log_var = self.forward(Tensor(np.asarray(x, dtype=np.float64)))
        return mean.data, np.exp(0.5 * log_var.data)


def fit_gaussian_regressor(
    x: np.ndarray,
    y: np.ndarray,
    weight: float,
    hidden: int = 32,
    steps: int = 400,
    batch_size: int = 64,
    lr: float = 3e-3,
    seed: int = 0,
) -> GaussianRegressor:
    """Train a :class:`GaussianRegressor` under ``w*MSE + (1-w)*NLL``.

    ``weight=1`` is the pure-MSE regime, ``weight=0`` pure NLL.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y[:, None]
    if len(x) != len(y):
        raise ValueError("x and y must align")
    rng = np.random.default_rng(seed)
    model = GaussianRegressor(x.shape[1], hidden=hidden, output_dim=y.shape[1],
                              rng=rng)
    optimizer = Adam(model.parameters(), lr=lr)
    for _ in range(steps):
        idx = rng.choice(len(x), size=min(batch_size, len(x)), replace=False)
        mean, log_var = model(Tensor(x[idx]))
        if weight >= 1.0:
            # Pure MSE ignores the variance head during training; the
            # variance is then fit post-hoc from training residuals — the
            # classic underestimation recipe the paper describes.
            loss = mse(mean, y[idx])
        else:
            loss = gaussian_nll_mse(mean, log_var, y[idx], weight=weight)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    if weight >= 1.0:
        mean, _ = model(Tensor(x))
        residual_var = np.maximum(((mean.data - y) ** 2).mean(axis=0), 1e-8)
        # Install the residual variance as a constant log-var head.
        model.logvar_head.weight.data[:] = 0.0
        model.logvar_head.bias.data[:] = np.log(residual_var)
    model.eval()
    return model


def interval_coverage(
    mean: np.ndarray, std: np.ndarray, targets: np.ndarray, nominal: float = 0.9
) -> float:
    """Fraction of targets inside the central ``nominal`` predictive interval."""
    if not 0.0 < nominal < 1.0:
        raise ValueError("nominal coverage must be in (0, 1)")
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(mean.shape)
    z = NormalDist().inv_cdf(0.5 + nominal / 2.0)
    inside = np.abs(targets - mean) <= z * std
    return float(inside.mean())


def regression_calibration_curve(
    mean: np.ndarray,
    std: np.ndarray,
    targets: np.ndarray,
    nominal_levels: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9, 0.95),
) -> List[Tuple[float, float]]:
    """(nominal, empirical) coverage pairs — the regression reliability curve."""
    return [
        (level, interval_coverage(mean, std, targets, level))
        for level in nominal_levels
    ]


def coverage_bias(curve: Sequence[Tuple[float, float]]) -> float:
    """Mean (empirical - nominal) coverage.

    Negative => intervals too narrow (uncertainty *underestimated*);
    positive => too wide (*overestimated*); near zero => well calibrated.
    """
    return float(np.mean([emp - nom for nom, emp in curve]))


@dataclass
class WeightSweepRow:
    weight: float
    coverage_90: float
    bias: float
    mean_mae: float


def sweep_loss_weight(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
    weights: Sequence[float] = (1.0, 0.5, 0.0),
    seed: int = 0,
    **fit_kwargs,
) -> List[WeightSweepRow]:
    """Reproduce the Sec. II-D picture: coverage bias as a function of the
    MSE/NLL mixing weight."""
    y_test = np.asarray(y_test, dtype=np.float64)
    if y_test.ndim == 1:
        y_test = y_test[:, None]
    rows = []
    for weight in weights:
        model = fit_gaussian_regressor(x_train, y_train, weight, seed=seed,
                                       **fit_kwargs)
        mean, std = model.predict(x_test)
        curve = regression_calibration_curve(mean, std, y_test)
        rows.append(
            WeightSweepRow(
                weight=weight,
                coverage_90=interval_coverage(mean, std, y_test, 0.9),
                bias=coverage_bias(curve),
                mean_mae=float(np.abs(mean - y_test).mean()),
            )
        )
    return rows
