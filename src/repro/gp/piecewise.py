"""Piecewise-linear approximation of a fitted GP (Sec. III-B, runtime path).

The paper's two-step recipe, verbatim:

1. profile the Gaussian-process regression model with a set of input
   confidences ``{0, 1/M, ..., 1}``;
2. connect these profiling points with a piecewise-linear function.

The resulting :class:`PiecewiseLinear` evaluates in O(log M) per query with
tiny constants, which is what the scheduler calls on its hot path: the
array ``__call__`` is ``np.interp``; the scalar :meth:`PiecewiseLinear.at`
(the scheduler's path) is a ``bisect`` over the knots with numpy's own
interpolation formula, so the two agree bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .regression import GPRegression


@dataclass(frozen=True)
class PiecewiseLinear:
    """Linear interpolation over fixed knots; clamps outside the domain."""

    knots_x: np.ndarray
    knots_y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.knots_x, dtype=np.float64)
        y = np.asarray(self.knots_y, dtype=np.float64)
        if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
            raise ValueError("need matching 1-D knot arrays with >= 2 knots")
        # A NaN/inf knot makes np.interp return garbage silently on every
        # later scheduler query — reject it here, at construction.
        if not np.isfinite(x).all():
            raise ValueError("knots_x must be finite (no NaN/inf values)")
        if not np.isfinite(y).all():
            raise ValueError("knots_y must be finite (no NaN/inf values)")
        if not (np.diff(x) > 0).all():
            raise ValueError("knots_x must be strictly increasing")
        object.__setattr__(self, "knots_x", x)
        object.__setattr__(self, "knots_y", y)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.interp(x, self.knots_x, self.knots_y)

    @cached_property
    def _knots(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        # Built on the first scalar query, not at construction.
        return tuple(self.knots_x.tolist()), tuple(self.knots_y.tolist())

    def at(self, x: float) -> float:
        """``self(x)`` for one finite float, without numpy's per-call cost.

        The branches and the formula are ``np.interp``'s: the first knot
        left of the domain, the last knot from the last abscissa on, the
        knot's own value on a knot, else ``slope*(x - x[j]) + y[j]``.
        """
        xs, ys = self._knots
        j = bisect_right(xs, x) - 1
        if j < 0:
            return ys[0]
        if j >= len(xs) - 1:
            return ys[-1]
        if xs[j] == x:
            return ys[j]
        slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
        return slope * (x - xs[j]) + ys[j]

    @property
    def num_segments(self) -> int:
        return len(self.knots_x) - 1


def approximate_gp(
    gp: GPRegression,
    num_points: int = 10,
    domain: Tuple[float, float] = (0.0, 1.0),
) -> PiecewiseLinear:
    """Profile ``gp`` at ``num_points + 1`` equispaced inputs and connect them.

    ``num_points`` is the M of the paper's grid {0, 1/M, ..., 1}.
    """
    if num_points < 1:
        raise ValueError("num_points must be >= 1")
    lo, hi = domain
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("domain bounds must be finite")
    if hi <= lo:
        raise ValueError("empty domain")
    xs = np.linspace(lo, hi, num_points + 1)
    ys, _ = gp.predict(xs)
    if not np.all(np.isfinite(ys)):
        raise ValueError(
            "GP profiling produced non-finite values; the fitted GP is "
            "degenerate (bad hyperparameters or non-finite training data) "
            "and cannot be approximated"
        )
    return PiecewiseLinear(xs, ys)
