"""Exact Gaussian-process regression.

Used to learn the confidence-curve models pˆ(l') = GP_{l→l'}(p(l)) of
Section III-B.  Inputs are 1-D confidences in [0, 1] (though the
implementation accepts arbitrary-dimensional features), targets are the
confidence observed at a later stage.  Hyper-parameters can be selected by
marginal-likelihood grid search, which is robust for the 1-D, bounded inputs
this system uses.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .kernels import Kernel, RBFKernel


def _as_2d(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("inputs must be (n,) or (n, d)")
    return x


def _as_xy(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    x = _as_2d(x)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if len(x) != len(y):
        raise ValueError("x and y must have the same length")
    if len(x) == 0:
        raise ValueError("cannot fit a GP on zero samples")
    return x, y


class GPRegression:
    """Exact GP regression ``y = f(x) + eps,  f ~ GP(0, k),  eps ~ N(0, s^2)``.

    Predictions are Gaussian (mean, variance) — exactly the property the
    paper cites for choosing GPs: "Gaussian processes produce a Gaussian
    distribution as the output, from which we can easily compute the mean
    value and desired confidence intervals."
    """

    def __init__(self, kernel: Optional[Kernel] = None, noise: float = 1e-2) -> None:
        if noise <= 0:
            raise ValueError("observation noise must be positive")
        self.kernel = kernel or RBFKernel()
        self.noise = noise
        self._x_train: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._k: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._quad = 0.0
        self._log_det = 0.0

    @property
    def fitted(self) -> bool:
        return self._alpha is not None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GPRegression":
        x, y = _as_xy(x, y)
        return self._fit_gram(x, y, self.kernel(x, x))

    def _fit_gram(self, x: np.ndarray, y: np.ndarray, k: np.ndarray) -> "GPRegression":
        """Fit on ``k = kernel(x, x)``, adding the noise to its diagonal in place."""
        self._x_train = x
        self._y_mean = float(y.mean())
        k[np.diag_indices_from(k)] += self.noise
        centered = y - self._y_mean
        self._k = k
        self._alpha = np.linalg.solve(k, centered)
        # The two terms of the marginal likelihood, kept so that
        # log_marginal_likelihood() costs nothing: y^T K^-1 y, and log|K|
        # from the Cholesky diagonal.
        self._quad = float(centered @ self._alpha)
        self._log_det = 2.0 * float(np.log(np.diag(np.linalg.cholesky(k))).sum())
        return self

    def predict(
        self, x: np.ndarray, return_std: bool = False
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Posterior mean (and optionally standard deviation) at ``x``."""
        if not self.fitted:
            raise RuntimeError("call fit() before predict()")
        x = _as_2d(x)
        k_star = self.kernel(x, self._x_train)
        mean = k_star @ self._alpha + self._y_mean
        if not return_std:
            return mean, None
        v = np.linalg.solve(self._k, k_star.T)
        prior = np.diag(self.kernel(x, x))
        var = np.maximum(prior - np.einsum("ij,ji->i", k_star, v), 1e-12)
        return mean, np.sqrt(var)

    def confidence_interval(
        self, x: np.ndarray, z: float = 1.96
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(lower, upper) of the ``z``-sigma predictive interval."""
        mean, std = self.predict(x, return_std=True)
        assert std is not None
        return mean - z * std, mean + z * std

    def log_marginal_likelihood(self) -> float:
        """Log p(y | X) of the fitted model — used for hyper-parameter search."""
        if not self.fitted:
            raise RuntimeError("call fit() before log_marginal_likelihood()")
        n = len(self._x_train)
        return -0.5 * (self._quad + self._log_det + n * np.log(2 * np.pi))

    @staticmethod
    def fit_with_grid_search(
        x: np.ndarray,
        y: np.ndarray,
        length_scales: Sequence[float] = (0.05, 0.1, 0.2, 0.4, 0.8),
        noises: Sequence[float] = (1e-3, 1e-2, 5e-2),
        kernel_cls=RBFKernel,
    ) -> "GPRegression":
        """Select (length_scale, noise) maximizing marginal likelihood."""
        x, y = _as_xy(x, y)
        best: Optional[Tuple[float, GPRegression]] = None
        for ls in length_scales:
            kernel = kernel_cls(length_scale=ls)
            # The noise levels share the kernel matrix; only its diagonal differs.
            gram = kernel(x, x)
            for noise in noises:
                model = GPRegression(kernel, noise=noise)
                model._fit_gram(x, y, gram.copy())
                lml = model.log_marginal_likelihood()
                if best is None or lml > best[0]:
                    best = (lml, model)
        assert best is not None
        return best[1]
