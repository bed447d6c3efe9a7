"""The package's numerical cores against their closed forms.

Temperature scaling's one-dimensional search, the GP's marginal likelihood
and the normal quantile behind every predictive interval are each checked
against a direct computation on seeded inputs.
"""

import inspect

import numpy as np
import pytest

from repro.calibration import TemperatureScaler
from repro.gp import GPRegression, Matern52Kernel, RBFKernel
from repro.service import EugeneClient, EugeneService

#: The hyper-parameters ``GPRegression.fit_with_grid_search`` tries by default.
_GRID = inspect.signature(GPRegression.fit_with_grid_search).parameters
GRID_LENGTH_SCALES = _GRID["length_scales"].default
GRID_NOISES = _GRID["noises"].default


def _nll(logits, labels, temperature):
    scaled = logits / temperature
    shifted = scaled - scaled.max(axis=-1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return -log_p[np.arange(len(labels)), labels].mean()


def _grid_argmin(logits, labels, lo, hi):
    """Argmin of the NLL on a grid over [lo, hi], refined to a 1e-5 step."""
    coarse = np.linspace(lo, hi, 2001)
    best = coarse[np.argmin([_nll(logits, labels, t) for t in coarse])]
    step = coarse[1] - coarse[0]
    fine = np.arange(max(lo, best - step), min(hi, best + step), 1e-5)
    fine = np.append(fine, min(hi, best + step))
    return fine[np.argmin([_nll(logits, labels, t) for t in fine])]


def _overconfident(seed, true_temperature=3.0, n=400, classes=5):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 2.0, size=(n, classes))
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    labels = np.array([rng.choice(classes, p=row) for row in p])
    return logits * true_temperature, labels


class TestTemperatureFit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lands_on_the_nll_grid_argmin(self, seed):
        logits, labels = _overconfident(seed)
        scaler = TemperatureScaler().fit(logits, labels)
        best = _grid_argmin(logits, labels, 1e-2, scaler.max_temperature)
        assert 1.0 < best < scaler.max_temperature
        assert abs(scaler.temperature - best) < 1e-4

    def test_optimum_at_the_upper_edge_of_the_bracket(self):
        logits, labels = _overconfident(3)
        scaler = TemperatureScaler(max_temperature=0.5).fit(logits, labels)
        best = _grid_argmin(logits, labels, 1e-2, 0.5)
        assert best == 0.5
        assert abs(scaler.temperature - best) < 1e-4


class TestGPMarginalLikelihood:
    @pytest.mark.parametrize("kernel_cls", [RBFKernel, Matern52Kernel])
    @pytest.mark.parametrize("noise", GRID_NOISES)
    def test_matches_the_closed_form(self, kernel_cls, noise):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, 60)
        y = np.sin(2 * np.pi * x) + rng.normal(0, 0.1, 60)
        kernel = kernel_cls(length_scale=0.2)
        gp = GPRegression(kernel, noise=noise).fit(x, y)
        k = kernel(x[:, None], x[:, None]) + noise * np.eye(len(x))
        r = y - y.mean()
        _, log_det = np.linalg.slogdet(k)
        expected = -0.5 * (
            r @ np.linalg.solve(k, r) + log_det + len(x) * np.log(2 * np.pi)
        )
        assert gp.log_marginal_likelihood() == pytest.approx(expected, rel=1e-9)

    def test_grid_search_returns_the_best_separate_fit(self):
        # Observation noise near the grid's largest level, so the pick is
        # not the first noise level tried for its kernel.
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 80)
        y = x**2 + rng.normal(0, 0.2, 80)
        fits = [
            GPRegression(RBFKernel(length_scale=ls), noise=noise).fit(x, y)
            for ls in GRID_LENGTH_SCALES
            for noise in GRID_NOISES
        ]
        best = max(fits, key=GPRegression.log_marginal_likelihood)
        picked = GPRegression.fit_with_grid_search(x, y)
        assert best.noise != GRID_NOISES[0]
        assert (picked.kernel, picked.noise) == (best.kernel, best.noise)
        assert picked.log_marginal_likelihood() == pytest.approx(
            best.log_marginal_likelihood(), rel=1e-12
        )


def test_estimate_interval_uses_the_normal_quantile():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 2))
    client = EugeneClient(EugeneService(seed=0))
    est = client.train_estimator(x, x.sum(axis=1), steps=5)
    out = client.estimate(est.model_id, x[:8], confidence_level=0.9)
    z = (out.upper - out.means) / out.stds
    np.testing.assert_allclose(z, 1.6448536269514722, rtol=0, atol=1e-12)
