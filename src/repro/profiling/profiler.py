"""FastDeepIoT-style piecewise-linear execution-time profiler.

The key insight of [9] is that execution time, while highly non-linear in
naive predictors like FLOPs, is accurately *piecewise linear* in the layer
parameters — so a profiler can (a) identify the region boundaries
automatically and (b) fit a plain linear regression inside each region.

We implement that as a small model tree: internal nodes split on one layer
feature at a learned threshold, leaves hold least-squares linear models.
Splits are chosen greedily to minimize summed squared error of the two child
regressions, which is exactly change-point detection in the one-feature
case and generalizes it to several features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from .cost_model import ConvLayerSpec, MobileDeviceCostModel


@dataclass(frozen=True)
class ProfileSample:
    """One profiling observation: a layer configuration and its measured time."""

    spec: ConvLayerSpec
    time_ms: float


def generate_profiling_samples(
    device: MobileDeviceCostModel,
    num_samples: int = 400,
    seed: int = 0,
    input_size: int = 224,
    repeats: int = 1,
) -> List[ProfileSample]:
    """Sweep random layer configurations on the device.

    This plays the role of FastDeepIoT's automated on-device profiling runs:
    sample (in, out) channel pairs log-uniformly, measure ``repeats`` times,
    keep the mean.
    """
    if num_samples < 1 or repeats < 1:
        raise ValueError("num_samples and repeats must be positive")
    rng = np.random.default_rng(seed)
    tel = telemetry.active()
    samples: List[ProfileSample] = []
    for _ in range(num_samples):
        in_ch = int(np.round(2 ** rng.uniform(0, 7.5)))
        out_ch = int(np.round(2 ** rng.uniform(0, 7.5)))
        spec = ConvLayerSpec(
            in_channels=max(in_ch, 1),
            out_channels=max(out_ch, 1),
            input_size=input_size,
        )
        t = float(np.mean([device.measure(spec) for _ in range(repeats)]))
        if tel is not None:
            # Measured stage costs feed the same registry the scheduler
            # reads, so profiled and served latencies share one export.
            tel.registry.counter("profiling.samples").inc()
            tel.registry.histogram("profiling.sample_time_ms").observe(t)
        samples.append(ProfileSample(spec, t))
    return samples


class _LinearLeaf:
    """Least-squares linear model over the feature vector (plus intercept)."""

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        design = np.column_stack([x, np.ones(len(x))])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        self.coef = coef
        residual = design @ coef - y
        self.sse = float(residual @ residual)

    def predict(self, x: np.ndarray) -> np.ndarray:
        design = np.column_stack([x, np.ones(len(x))])
        return design @ self.coef


@dataclass
class _Node:
    leaf: Optional[_LinearLeaf] = None
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None


class PiecewiseLinearProfiler:
    """Learns a piecewise-linear execution-time model from profiling samples.

    Parameters
    ----------
    max_depth:
        Maximum number of nested region splits.
    min_samples_leaf:
        Regions are never made smaller than this.
    min_improvement:
        Relative SSE reduction a split must achieve to be kept — this is the
        stopping rule that decides how many piecewise-linear regions exist.
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 20,
        min_improvement: float = 0.03,
    ) -> None:
        if max_depth < 0 or min_samples_leaf < 2:
            raise ValueError("invalid tree hyper-parameters")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_improvement = min_improvement
        self._root: Optional[_Node] = None
        self.feature_names = ConvLayerSpec.feature_names()

    # ------------------------------------------------------------------
    def fit(self, samples: Sequence[ProfileSample]) -> "PiecewiseLinearProfiler":
        if len(samples) < 2 * self.min_samples_leaf:
            raise ValueError(
                f"need at least {2 * self.min_samples_leaf} samples, got {len(samples)}"
            )
        x = np.stack([s.spec.features() for s in samples])
        y = np.array([s.time_ms for s in samples])
        self._root = self._build(x, y, depth=0)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        leaf = _LinearLeaf(x, y)
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return _Node(leaf=leaf)
        best: Optional[Tuple[float, int, float]] = None  # (sse, feature, threshold)
        for feature in range(x.shape[1]):
            values = np.unique(x[:, feature])
            if len(values) < 2:
                continue
            # Candidate thresholds: midpoints of up to 24 quantile cuts.
            quantiles = np.quantile(values, np.linspace(0.05, 0.95, 24))
            for threshold in np.unique(quantiles):
                mask = x[:, feature] <= threshold
                n_left = int(mask.sum())
                if n_left < self.min_samples_leaf or len(y) - n_left < self.min_samples_leaf:
                    continue
                sse = (
                    _LinearLeaf(x[mask], y[mask]).sse
                    + _LinearLeaf(x[~mask], y[~mask]).sse
                )
                if best is None or sse < best[0]:
                    best = (sse, feature, float(threshold))
        if best is None or best[0] > (1.0 - self.min_improvement) * leaf.sse:
            return _Node(leaf=leaf)
        _, feature, threshold = best
        mask = x[:, feature] <= threshold
        return _Node(
            feature=feature,
            threshold=threshold,
            left=self._build(x[mask], y[mask], depth + 1),
            right=self._build(x[~mask], y[~mask], depth + 1),
        )

    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        return self._root is not None

    def num_regions(self) -> int:
        """Number of piecewise-linear regions the profiler identified."""
        if not self.fitted:
            return 0

        def count(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)

        return count(self._root)

    def predict(self, specs: Sequence[ConvLayerSpec]) -> np.ndarray:
        """Predicted execution time (ms) for each layer spec."""
        if not self.fitted:
            raise RuntimeError("call fit() first")
        x = np.stack([s.features() for s in specs])
        out = np.empty(len(specs))
        for i, row in enumerate(x):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.leaf.predict(row[None, :])[0]
        return out

    def predict_one(self, spec: ConvLayerSpec) -> float:
        return float(self.predict([spec])[0])

    def describe_regions(self) -> List[str]:
        """Human-readable split structure, for docs and debugging."""
        if not self.fitted:
            return []
        lines: List[str] = []

        def walk(node: _Node, path: str) -> None:
            if node.is_leaf:
                lines.append(path or "(all)")
                return
            name = self.feature_names[node.feature]
            walk(node.left, f"{path} & {name}<={node.threshold:.3g}".lstrip(" &"))
            walk(node.right, f"{path} & {name}>{node.threshold:.3g}".lstrip(" &"))

        walk(self._root, "")
        return lines

    def evaluate(self, samples: Sequence[ProfileSample]) -> dict:
        """MAE / MAPE / R^2 of the fitted profiler on held-out samples."""
        y = np.array([s.time_ms for s in samples])
        pred = self.predict([s.spec for s in samples])
        residual = y - pred
        ss_res = float(residual @ residual)
        ss_tot = float(((y - y.mean()) ** 2).sum())
        return {
            "mae_ms": float(np.abs(residual).mean()),
            "mape": float(np.abs(residual / y).mean()),
            "r2": 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
        }
