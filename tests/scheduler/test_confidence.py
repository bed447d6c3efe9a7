"""Tests for the confidence-curve predictors (GP-based and constant slope)."""

import pickle

import numpy as np
import pytest

from repro.scheduler import ConstantSlopePredictor, GPConfidencePredictor


def synthetic_confidence_matrix(n=400, seed=0):
    """Three stages with increasing, correlated confidences in [0, 1]."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.2, 0.8, size=n)
    s1 = np.clip(base + rng.normal(0, 0.03, n), 0, 1)
    s2 = np.clip(base + 0.12 + rng.normal(0, 0.03, n), 0, 1)
    s3 = np.clip(base + 0.2 + rng.normal(0, 0.03, n), 0, 1)
    return np.stack([s1, s2, s3])


class TestGPConfidencePredictor:
    @pytest.fixture(scope="class")
    def fitted(self):
        return GPConfidencePredictor(num_classes=10, seed=0).fit(
            synthetic_confidence_matrix()
        )

    def test_prior_matches_training_means(self, fitted):
        mat = synthetic_confidence_matrix()
        for s in range(3):
            assert fitted.prior(s) == pytest.approx(mat[s].mean())

    def test_baseline_is_chance(self, fitted):
        assert fitted.baseline() == pytest.approx(0.1)

    def test_predicts_monotone_shift(self, fitted):
        """On this workload stage confidences rise ~0.12 then ~0.08."""
        pred = fitted.predict(0, 0.5, 1)
        assert pred == pytest.approx(0.62, abs=0.05)
        pred13 = fitted.predict(0, 0.5, 2)
        assert pred13 == pytest.approx(0.70, abs=0.06)

    def test_prediction_clipped_to_unit_interval(self, fitted):
        assert 0.0 <= fitted.predict(0, 1.0, 2) <= 1.0
        assert 0.0 <= fitted.predict(0, 0.0, 1) <= 1.0

    def test_exact_and_approximate_agree(self):
        mat = synthetic_confidence_matrix()
        approx = GPConfidencePredictor(seed=0).fit(mat)
        exact = GPConfidencePredictor(seed=0, use_approximation=False).fit(mat)
        for conf in np.linspace(0.2, 0.9, 8):
            assert approx.predict(0, conf, 2) == pytest.approx(
                exact.predict(0, conf, 2), abs=0.02
            )

    def test_validation(self, fitted):
        with pytest.raises(ValueError):
            fitted.predict(1, 0.5, 1)
        with pytest.raises(IndexError):
            fitted.predict(0, 0.5, 7)
        with pytest.raises(IndexError):
            fitted.prior(9)
        with pytest.raises(RuntimeError):
            GPConfidencePredictor().predict(0, 0.5, 1)
        with pytest.raises(ValueError):
            GPConfidencePredictor().fit(np.zeros(5))

    def test_subsampling_respected(self):
        pred = GPConfidencePredictor(max_fit_points=50, seed=1).fit(
            synthetic_confidence_matrix(n=500)
        )
        gp = pred.exact_gp(0, 1)
        assert len(gp._x_train) == 50



class TestPickledPredictor:
    """What the replica transport ships: the runtime path, not the GPs."""

    @pytest.fixture(scope="class")
    def fitted(self):
        return GPConfidencePredictor(max_fit_points=120, seed=0).fit(
            synthetic_confidence_matrix()
        )

    def test_round_trip_predicts_identically(self, fitted):
        clone = pickle.loads(pickle.dumps(fitted))
        grid = np.linspace(0.0, 1.0, 41)
        for l_from, l_to in ((0, 1), (0, 2), (1, 2)):
            before = [fitted.predict(l_from, c, l_to) for c in grid]
            after = [clone.predict(l_from, c, l_to) for c in grid]
            assert after == before
        assert [clone.prior(s) for s in range(3)] == [
            fitted.prior(s) for s in range(3)
        ]

    def test_pickle_leaves_the_exact_gps_behind(self, fitted):
        assert len(pickle.dumps(fitted)) <= 10_000
        clone = pickle.loads(pickle.dumps(fitted))
        with pytest.raises(RuntimeError, match="exact GPs"):
            clone.exact_gp(1, 2)
        # The process that fit the predictor keeps them.
        assert fitted.exact_gp(1, 2) is not None

    def test_exact_predictor_keeps_its_gps(self):
        exact = GPConfidencePredictor(
            max_fit_points=60, use_approximation=False, seed=0
        ).fit(synthetic_confidence_matrix(n=100))
        clone = pickle.loads(pickle.dumps(exact))
        assert clone.predict(0, 0.5, 2) == exact.predict(0, 0.5, 2)

class TestConstantSlopePredictor:
    @pytest.fixture(scope="class")
    def fitted(self):
        return ConstantSlopePredictor(num_classes=10).fit(synthetic_confidence_matrix())

    def test_extrapolates_first_stage_slope(self, fitted):
        # observed stage 0 at 0.5: slope = 0.5 - 0.1 = 0.4, so stage1 -> 0.9
        assert fitted.predict(0, 0.5, 1) == pytest.approx(0.9)

    def test_clipping(self, fitted):
        assert fitted.predict(0, 0.9, 2) == 1.0

    def test_predict_with_slope(self, fitted):
        assert fitted.predict_with_slope(0.5, 0.1, 3) == pytest.approx(0.8)
        assert fitted.predict_with_slope(0.9, 0.2, 2) == 1.0

    def test_validation(self, fitted):
        with pytest.raises(ValueError):
            fitted.predict(2, 0.5, 1)
        with pytest.raises(RuntimeError):
            ConstantSlopePredictor().predict(0, 0.5, 1)
        with pytest.raises(IndexError):
            fitted.prior(5)
