"""Tests for GP regression and its piecewise-linear approximation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gp import (
    GPRegression,
    Matern52Kernel,
    PiecewiseLinear,
    RBFKernel,
    approximate_gp,
)


class TestKernels:
    def test_rbf_diagonal_is_signal_variance(self):
        k = RBFKernel(length_scale=0.3, signal_variance=2.0)
        x = np.array([[0.1], [0.5]])
        np.testing.assert_allclose(np.diag(k(x, x)), [2.0, 2.0])

    def test_rbf_decays_with_distance(self):
        k = RBFKernel(length_scale=0.2)
        near = k(np.array([[0.0]]), np.array([[0.1]]))[0, 0]
        far = k(np.array([[0.0]]), np.array([[0.9]]))[0, 0]
        assert near > far

    def test_matern_is_positive_and_symmetric(self):
        k = Matern52Kernel(length_scale=0.5)
        x = np.linspace(0, 1, 6)[:, None]
        gram = k(x, x)
        np.testing.assert_allclose(gram, gram.T, atol=1e-12)
        assert (np.linalg.eigvalsh(gram) > -1e-10).all()

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            RBFKernel(length_scale=0.0)
        with pytest.raises(ValueError):
            Matern52Kernel(signal_variance=-1.0)


class TestGPRegression:
    def test_interpolates_noiseless_function(self):
        x = np.linspace(0, 1, 12)
        y = np.sin(2 * np.pi * x)
        gp = GPRegression(RBFKernel(length_scale=0.25), noise=1e-6).fit(x, y)
        mean, _ = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=1e-3)

    def test_recovers_smooth_function_from_noisy_data(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 120)
        y = x**2 + rng.normal(0, 0.03, size=120)
        gp = GPRegression(RBFKernel(length_scale=0.3), noise=1e-3).fit(x, y)
        grid = np.linspace(0.1, 0.9, 9)
        mean, _ = gp.predict(grid)
        np.testing.assert_allclose(mean, grid**2, atol=0.05)

    def test_uncertainty_grows_away_from_data(self):
        gp = GPRegression(RBFKernel(length_scale=0.1), noise=1e-4).fit(
            np.array([0.5]), np.array([1.0])
        )
        _, std_near = gp.predict(np.array([0.5]), return_std=True)
        _, std_far = gp.predict(np.array([0.0]), return_std=True)
        assert std_far[0] > std_near[0]

    def test_confidence_interval_contains_mean(self):
        gp = GPRegression().fit(np.linspace(0, 1, 10), np.linspace(0, 1, 10))
        lo, hi = gp.confidence_interval(np.array([0.3, 0.7]))
        mean, _ = gp.predict(np.array([0.3, 0.7]))
        assert (lo <= mean).all() and (mean <= hi).all()

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GPRegression().predict(np.array([0.0]))

    def test_fit_validates(self):
        with pytest.raises(ValueError):
            GPRegression().fit(np.array([0.0, 1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            GPRegression().fit(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            GPRegression(noise=0.0)

    def test_grid_search_prefers_reasonable_length_scale(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, 80)
        y = np.sin(2 * np.pi * x) + rng.normal(0, 0.05, 80)
        model = GPRegression.fit_with_grid_search(x, y)
        grid = np.linspace(0, 1, 20)
        mean, _ = model.predict(grid)
        np.testing.assert_allclose(mean, np.sin(2 * np.pi * grid), atol=0.2)

    def test_log_marginal_likelihood_finite(self):
        gp = GPRegression().fit(np.linspace(0, 1, 5), np.zeros(5))
        assert np.isfinite(gp.log_marginal_likelihood())

    @given(st.integers(0, 1000))
    @example(438)  # overshoots the data range: mean -0.5023 for y in [0.2, 0.8]
    @settings(max_examples=20, deadline=None)
    def test_property_posterior_mean_bounded_by_data_range(self, seed):
        """The posterior mean may overshoot the data range, but only by a
        bound set by the data's spread.

        With ``r = y - mean(y)`` and ``K`` the kernel matrix plus
        ``noise * I``, the mean minus ``mean(y)`` is ``f = sum(a_i k(x_i, .))``
        with ``a = K^-1 r``.  Cauchy-Schwarz in the kernel's RKHS gives

            |m(x) - mean(y)| <= sqrt(k(x, x)) * sqrt(r^T K^-1 r)
                             <= sqrt(k(x, x)) * ||r|| / sqrt(noise)

        for every ``x``, every data set and every positive noise.
        """
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, 15)
        y = rng.uniform(0.2, 0.8, 15)
        kernel = RBFKernel(length_scale=0.3)
        noise = 1e-2
        gp = GPRegression(kernel, noise=noise).fit(x, y)
        grid = np.linspace(0, 1, 11)
        mean, _ = gp.predict(grid)
        r = y - y.mean()
        x2 = x.reshape(-1, 1)
        quad = r @ np.linalg.solve(kernel(x2, x2) + noise * np.eye(len(x)), r)
        bound = np.sqrt(kernel.signal_variance * quad)
        assert bound <= np.sqrt(kernel.signal_variance / noise) * np.linalg.norm(r)
        assert np.all(np.abs(mean - y.mean()) <= bound + 1e-9)


class TestPiecewiseLinear:
    def test_interpolates_knots_exactly(self):
        pl = PiecewiseLinear(np.array([0.0, 0.5, 1.0]), np.array([0.0, 2.0, 1.0]))
        np.testing.assert_allclose(pl(np.array([0.0, 0.5, 1.0])), [0.0, 2.0, 1.0])

    def test_linear_between_knots(self):
        pl = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert pl(0.25) == pytest.approx(0.5)

    def test_clamps_outside_domain(self):
        pl = PiecewiseLinear(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
        assert pl(-5.0) == pytest.approx(1.0)
        assert pl(5.0) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            PiecewiseLinear(np.array([0.0, 0.0]), np.array([1.0, 2.0]))

    def test_num_segments(self):
        pl = PiecewiseLinear(np.linspace(0, 1, 11), np.zeros(11))
        assert pl.num_segments == 10

    def test_rejects_non_finite_knots(self):
        # Regression: NaN/inf knots used to slip through and poison every
        # later evaluation; they must be refused at construction.
        with pytest.raises(ValueError, match="knots_x must be finite"):
            PiecewiseLinear(np.array([0.0, np.nan]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="knots_x must be finite"):
            PiecewiseLinear(np.array([0.0, np.inf]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="knots_y must be finite"):
            PiecewiseLinear(np.array([0.0, 1.0]), np.array([np.nan, 1.0]))
        with pytest.raises(ValueError, match="knots_y must be finite"):
            PiecewiseLinear(np.array([0.0, 1.0]), np.array([1.0, -np.inf]))


class TestApproximateGP:
    def test_close_to_gp_on_smooth_target(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, 100)
        y = 0.3 + 0.6 * x + rng.normal(0, 0.02, 100)
        gp = GPRegression(RBFKernel(length_scale=0.3), noise=1e-3).fit(x, y)
        pl = approximate_gp(gp, num_points=10)
        grid = np.linspace(0, 1, 101)
        gp_mean, _ = gp.predict(grid)
        np.testing.assert_allclose(pl(grid), gp_mean, atol=0.02)

    def test_uses_m_plus_one_profiling_points(self):
        gp = GPRegression().fit(np.linspace(0, 1, 5), np.zeros(5))
        pl = approximate_gp(gp, num_points=10)
        assert len(pl.knots_x) == 11
        np.testing.assert_allclose(pl.knots_x, np.linspace(0, 1, 11))

    def test_is_much_faster_than_gp(self):
        import time

        x = np.random.default_rng(3).uniform(0, 1, 800)
        y = x.copy()
        gp = GPRegression(noise=1e-2).fit(x, y)
        pl = approximate_gp(gp)
        queries = np.random.default_rng(4).uniform(0, 1, 2000)
        t0 = time.perf_counter()
        gp.predict(queries)
        gp_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        pl(queries)
        pl_time = time.perf_counter() - t0
        assert pl_time < gp_time

    def test_validation(self):
        gp = GPRegression().fit(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            approximate_gp(gp, num_points=0)
        with pytest.raises(ValueError):
            approximate_gp(gp, domain=(1.0, 0.0))

    def test_non_finite_domain_rejected(self):
        gp = GPRegression().fit(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            approximate_gp(gp, domain=(0.0, np.inf))
        with pytest.raises(ValueError, match="finite"):
            approximate_gp(gp, domain=(np.nan, 1.0))

    def test_degenerate_gp_raises_a_clear_error(self):
        # Regression: a GP whose posterior went non-finite used to hand
        # NaN knots straight to PiecewiseLinear; the profiling step must
        # fail loudly and name the cause instead.
        class DegenerateGP:
            def predict(self, xs):
                return np.full_like(xs, np.nan), np.zeros_like(xs)

        with pytest.raises(ValueError, match="non-finite"):
            approximate_gp(DegenerateGP(), num_points=4)
