"""Parameterized gradient checks for layers and losses.

Coverage the ad-hoc per-file checks never had: BatchNorm (1D and 2D, in
both train and eval mode), eval-mode Dropout, every differentiable loss,
the GRU cell and the convolution shapes of a residual block — all through
the shared :func:`tests.nn.gradcheck
.gradcheck` helper.
"""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1D,
    BatchNorm2D,
    Dropout,
    GRUCell,
    Tensor,
    cross_entropy,
    gaussian_nll_mse,
)
from repro.nn import functional as F
from repro.nn.losses import entropy_regularized_ce, gaussian_nll, mae, mse

from .gradcheck import gradcheck


class TestBatchNormGradients:
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_batchnorm1d(self, training):
        layer = BatchNorm1D(4)
        if not training:
            # Give eval mode non-trivial running statistics first.
            layer(Tensor(np.random.default_rng(0).normal(size=(16, 4))))
            layer.eval()
        x = np.random.default_rng(1).normal(size=(5, 4))
        gradcheck(lambda t: layer(t) ** 2, x, atol=1e-5)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_batchnorm2d(self, training):
        layer = BatchNorm2D(3)
        if not training:
            layer(Tensor(np.random.default_rng(0).normal(size=(8, 3, 4, 4))))
            layer.eval()
        x = np.random.default_rng(1).normal(size=(2, 3, 4, 4))
        gradcheck(lambda t: layer(t) ** 2, x, atol=1e-5)


class TestDropoutGradients:
    def test_eval_mode_is_identity_gradient(self):
        layer = Dropout(0.5)
        layer.eval()
        x = np.random.default_rng(2).normal(size=(4, 6))
        grad = gradcheck(lambda t: layer(t) ** 2, x)
        # Eval-mode dropout is the identity, so d(sum(x^2))/dx = 2x exactly.
        np.testing.assert_allclose(grad, 2 * x, atol=1e-9)


class TestLossGradients:
    def test_cross_entropy(self):
        labels = np.array([0, 2, 1])
        x = np.random.default_rng(3).normal(size=(3, 4))
        gradcheck(lambda t: cross_entropy(t, labels), x, atol=1e-5)

    def test_entropy_regularized_ce(self):
        labels = np.array([1, 0])
        x = np.random.default_rng(4).normal(size=(2, 3))
        gradcheck(
            lambda t: entropy_regularized_ce(t, labels, alpha=0.3), x, atol=1e-5
        )

    def test_mse(self):
        target = np.random.default_rng(5).normal(size=(4, 2))
        x = np.random.default_rng(6).normal(size=(4, 2))
        gradcheck(lambda t: mse(t, target), x)

    def test_mae(self):
        target = np.random.default_rng(7).normal(size=(5,))
        # Keep predictions away from targets: |.| is non-differentiable at 0.
        x = target + np.random.default_rng(8).choice([-1.0, 1.0], size=5) * 0.5
        gradcheck(lambda t: mae(t, target), x)

    def test_gaussian_nll(self):
        target = np.random.default_rng(9).normal(size=(4, 1))
        x = np.random.default_rng(10).normal(size=(4, 2))
        gradcheck(
            lambda t: gaussian_nll(t[:, 0:1], t[:, 1:2], target), x, atol=1e-5
        )

    def test_gaussian_nll_mse(self):
        target = np.random.default_rng(11).normal(size=(3, 1))
        x = np.random.default_rng(12).normal(size=(3, 2))
        gradcheck(
            lambda t: gaussian_nll_mse(t[:, 0:1], t[:, 1:2], target, weight=0.5),
            x,
            atol=1e-5,
        )


class TestConv2DGradients:
    """``F.conv2d`` shapes beyond the stride-2 / pad-1 case checked in
    ``test_inference_mode``: a same-size 3x3 and a 1x1 strided shortcut."""

    @pytest.mark.parametrize(
        "kernel,stride,padding", [(3, 1, 1), (1, 2, 0)], ids=["3x3-s1-p1", "1x1-s2"]
    )
    def test_input_and_weight(self, kernel, stride, padding):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(2, 3, 5, 5))
        w = rng.normal(size=(4, 3, kernel, kernel))
        b = Tensor(rng.normal(size=(4,)))
        gradcheck(lambda t: F.conv2d(t, Tensor(w), b, stride, padding) ** 2, x)
        gradcheck(lambda t: F.conv2d(Tensor(x), t, b, stride, padding) ** 2, w)


class TestRNNGradients:
    def test_gru_cell_input_gradient(self):
        cell = GRUCell(3, 4, rng=np.random.default_rng(13))
        x = np.random.default_rng(14).normal(size=(2, 3))
        gradcheck(lambda t: cell(t), x, atol=1e-5)

    def test_gru_cell_with_hidden_state(self):
        cell = GRUCell(2, 3, rng=np.random.default_rng(15))
        h = Tensor(np.random.default_rng(16).normal(size=(2, 3)))
        x = np.random.default_rng(17).normal(size=(2, 2))
        gradcheck(lambda t: cell(t, h), x, atol=1e-5)
