"""Dynamic confidence-curve prediction (Sec. III-B).

The scheduler needs, for every task, an estimate of the confidence its
classifier would report *after* stages that have not executed yet.  The
paper trains one Gaussian-process regressor per (observed stage, future
stage) pair — GP1→2, GP1→3, GP2→3 for a three-stage network — on the
confidence curves of the training data, then approximates each fitted GP
with a piecewise-linear function for cheap runtime evaluation.

Two predictor families are provided:

- :class:`GPConfidencePredictor` — the full method (exact GP fit +
  piecewise-linear runtime approximation; set ``use_approximation=False`` to
  query the exact GP for the ablation benchmark);
- :class:`ConstantSlopePredictor` — the paper's RTDeepIoT-DC simplification:
  assume confidence keeps increasing with the same slope observed so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..gp import GPRegression, PiecewiseLinear, approximate_gp


class ConfidencePredictor:
    """Interface: predict confidence at a future stage given observations."""

    num_stages: int

    def prior(self, stage: int) -> float:
        """Predicted confidence at ``stage`` before any stage has executed."""
        raise NotImplementedError  # pragma: no cover

    def baseline(self) -> float:
        """Confidence attributed to a task with no completed stage."""
        raise NotImplementedError  # pragma: no cover

    def predict(self, observed_stage: int, observed_conf: float, target_stage: int) -> float:
        """Predicted confidence at ``target_stage`` given stage
        ``observed_stage`` reported ``observed_conf``."""
        raise NotImplementedError  # pragma: no cover


@dataclass
class GPConfidencePredictor(ConfidencePredictor):
    """GP-based confidence-curve predictor with piecewise-linear runtime path.

    Parameters
    ----------
    max_fit_points:
        Exact GP fitting is O(n^3); training confidences are subsampled to
        at most this many points (uniformly, seeded).
    num_profile_points:
        M of the paper's profiling grid {0, 1/M, ..., 1}.
    use_approximation:
        If False, queries go to the exact GP — used by the ablation that
        measures what the piecewise-linear approximation costs/saves.
    """

    num_classes: int = 10
    max_fit_points: int = 300
    num_profile_points: int = 10
    use_approximation: bool = True
    seed: int = 0
    num_stages: int = field(default=0, init=False)
    _gps: Dict[Tuple[int, int], GPRegression] = field(default_factory=dict, init=False)
    _pls: Dict[Tuple[int, int], PiecewiseLinear] = field(default_factory=dict, init=False)
    _priors: np.ndarray = field(default=None, init=False)

    def fit(self, stage_confidences: np.ndarray) -> "GPConfidencePredictor":
        """Fit from a (num_stages, N) matrix of training-set confidences.

        Trains GP_{l→l'} for every pair l < l' (the paper's GP1→2, GP1→3,
        GP2→3 generalized to any stage count) and profiles each into a
        piecewise-linear function.
        """
        stage_confidences = np.asarray(stage_confidences, dtype=np.float64)
        if stage_confidences.ndim != 2:
            raise ValueError("stage_confidences must be (num_stages, N)")
        self.num_stages, n = stage_confidences.shape
        if self.num_stages < 1 or n < 2:
            raise ValueError("need at least one stage and two samples")
        rng = np.random.default_rng(self.seed)
        if n > self.max_fit_points:
            idx = rng.choice(n, size=self.max_fit_points, replace=False)
        else:
            idx = np.arange(n)
        sub = stage_confidences[:, idx]
        self._priors = stage_confidences.mean(axis=1)
        for l_from in range(self.num_stages):
            for l_to in range(l_from + 1, self.num_stages):
                gp = GPRegression.fit_with_grid_search(sub[l_from], sub[l_to])
                self._gps[(l_from, l_to)] = gp
                self._pls[(l_from, l_to)] = approximate_gp(
                    gp, num_points=self.num_profile_points
                )
        return self

    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        return self._priors is not None

    def _check_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError("call fit() first")

    def baseline(self) -> float:
        """A task with no executed stage carries chance-level confidence."""
        return 1.0 / self.num_classes

    def prior(self, stage: int) -> float:
        """Before any execution, predicted confidence is the same for all
        tasks, "based on overall statistics computed from training data"."""
        self._check_fitted()
        if not 0 <= stage < self.num_stages:
            raise IndexError(f"stage {stage} out of range")
        return float(self._priors[stage])

    def predict(self, observed_stage: int, observed_conf: float, target_stage: int) -> float:
        self._check_fitted()
        if target_stage <= observed_stage:
            raise ValueError("target stage must come after the observed stage")
        if not 0 <= target_stage < self.num_stages:
            raise IndexError(f"stage {target_stage} out of range")
        key = (observed_stage, target_stage)
        if self.use_approximation:
            value = float(self._pls[key](observed_conf))
        else:
            mean, _ = self.exact_gp(*key).predict(np.array([observed_conf]))
            value = float(mean[0])
        return float(np.clip(value, 0.0, 1.0))

    def exact_gp(self, observed_stage: int, target_stage: int) -> GPRegression:
        """Access the underlying GP (used by the Table III evaluation)."""
        self._check_fitted()
        if not self._gps:
            raise RuntimeError(
                "this predictor was unpickled without its exact GPs (an "
                "approximate predictor ships only its piecewise-linear "
                "tables); query exact_gp in the process that fit it"
            )
        return self._gps[(observed_stage, target_stage)]

    def __getstate__(self) -> Dict:
        # Queries of an approximate predictor read only ``_pls``; the exact
        # GPs (training points, weights and an n x n kernel matrix per
        # stage pair) would multiply every pickle and deep copy ~300x.
        state = dict(self.__dict__)
        if self.use_approximation:
            state["_gps"] = {}
        return state


@dataclass
class ConstantSlopePredictor(ConfidencePredictor):
    """The RTDeepIoT-DC simplification (Sec. III-C experiment list).

    "Instead of using dynamic confidence updates, it assumes that the
    confidence will continue to increase with the same slope.  Therefore it
    uses the confidence increase in the current stage as the predicted
    increase per each of the future stages."

    For a task that has executed no stage yet, the per-stage prior means of
    the training data are used (same cold-start as the GP predictor).
    """

    num_classes: int = 10
    num_stages: int = field(default=0, init=False)
    _priors: np.ndarray = field(default=None, init=False)

    def fit(self, stage_confidences: np.ndarray) -> "ConstantSlopePredictor":
        stage_confidences = np.asarray(stage_confidences, dtype=np.float64)
        if stage_confidences.ndim != 2:
            raise ValueError("stage_confidences must be (num_stages, N)")
        self.num_stages = stage_confidences.shape[0]
        self._priors = stage_confidences.mean(axis=1)
        return self

    def baseline(self) -> float:
        return 1.0 / self.num_classes

    def prior(self, stage: int) -> float:
        if self._priors is None:
            raise RuntimeError("call fit() first")
        if not 0 <= stage < self.num_stages:
            raise IndexError(f"stage {stage} out of range")
        return float(self._priors[stage])

    def predict(self, observed_stage: int, observed_conf: float, target_stage: int) -> float:
        if self._priors is None:
            raise RuntimeError("call fit() first")
        if target_stage <= observed_stage:
            raise ValueError("target stage must come after the observed stage")
        if not 0 <= target_stage < self.num_stages:
            raise IndexError(f"stage {target_stage} out of range")
        if observed_stage == 0:
            # Slope of the current (first) stage relative to chance level.
            slope = observed_conf - self.baseline()
        else:
            # The caller only knows the latest confidence; the DC policy
            # tracks the previous stage's value and passes the slope through
            # observed_conf bookkeeping at the policy level.  Here we fall
            # back to the prior inter-stage increment when unavailable.
            slope = float(self._priors[observed_stage] - self._priors[observed_stage - 1])
        steps = target_stage - observed_stage
        return float(np.clip(observed_conf + slope * steps, 0.0, 1.0))

    def predict_with_slope(
        self, observed_conf: float, slope: float, steps: int
    ) -> float:
        """Direct DC extrapolation used by the policy (which knows the
        actually-observed per-stage increase)."""
        return float(np.clip(observed_conf + slope * steps, 0.0, 1.0))
