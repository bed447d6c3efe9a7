"""Expected Calibration Error and reliability diagrams (Eq. 1-3, Fig. 2).

Following Section III-A of the paper: classification results are grouped into
``M`` equal-width confidence bins; per-bin average accuracy (Eq. 1) and
average confidence (Eq. 2) are compared; ECE is their weighted absolute
difference (Eq. 3).

Note on Eq. (3): the paper's formula divides ``|S_m|`` by ``m`` (the bin
index), which is a typesetting slip — the metric it cites ([13], Naeini et
al. 2015) and the standard definition weight each bin by ``|S_m| / n`` where
``n`` is the total sample count.  We implement the standard definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


def _validate(confidences: np.ndarray, correct: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    confidences = np.asarray(confidences, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    if confidences.shape != correct.shape or confidences.ndim != 1:
        raise ValueError("confidences and correct must be matching 1-D arrays")
    if confidences.size == 0:
        raise ValueError("cannot compute calibration of zero samples")
    if confidences.min() < 0.0 or confidences.max() > 1.0 + 1e-9:
        raise ValueError("confidences must lie in [0, 1]")
    return confidences, correct


def _bin_index(confidences: np.ndarray, num_bins: int) -> np.ndarray:
    """Bin sample i into ((m-1)/M, m/M] per the paper; conf==0 goes to bin 0."""
    idx = np.ceil(confidences * num_bins).astype(int) - 1
    return np.clip(idx, 0, num_bins - 1)


@dataclass
class ReliabilityDiagram:
    """Binned calibration data backing Fig. 2.

    Attributes mirror the paper's quantities: per-bin ``accuracy`` (Eq. 1),
    ``confidence`` (Eq. 2), sample ``counts``, and the bin ``centers``.
    Bins with no samples hold NaN accuracy/confidence.
    """

    centers: np.ndarray
    accuracy: np.ndarray
    confidence: np.ndarray
    counts: np.ndarray

    @property
    def num_bins(self) -> int:
        return len(self.centers)

    @property
    def gap(self) -> np.ndarray:
        """Per-bin |accuracy - confidence| (the red "gap" area in Fig. 2)."""
        return np.abs(self.accuracy - self.confidence)

    def ece(self) -> float:
        """ECE computed from the binned data (Eq. 3, standard weighting)."""
        n = self.counts.sum()
        mask = self.counts > 0
        return float(
            (self.counts[mask] / n * self.gap[mask]).sum()
        )

    def render_ascii(self, width: int = 40) -> str:
        """Text rendering of the reliability diagram for logs/CLI output."""
        lines = ["confidence bin | accuracy (# = observed, . = ideal)"]
        for c, a, n in zip(self.centers, self.accuracy, self.counts):
            if n == 0:
                lines.append(f"  ({c:4.2f})       | (empty)")
                continue
            bar = int(round(a * width))
            ideal = int(round(c * width))
            row = ["-"] * (width + 1)
            row[ideal] = "."
            for i in range(bar):
                row[i] = "#"
            lines.append(f"  ({c:4.2f})       | {''.join(row)} {a:4.2f} (n={int(n)})")
        return "\n".join(lines)


def reliability_diagram(
    confidences: np.ndarray, correct: np.ndarray, num_bins: int = 10
) -> ReliabilityDiagram:
    """Compute the reliability diagram of top-1 confidences vs correctness."""
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    confidences, correct = _validate(confidences, correct)
    idx = _bin_index(confidences, num_bins)
    counts = np.bincount(idx, minlength=num_bins).astype(float)
    acc_sum = np.bincount(idx, weights=correct.astype(float), minlength=num_bins)
    conf_sum = np.bincount(idx, weights=confidences, minlength=num_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        accuracy = np.where(counts > 0, acc_sum / counts, np.nan)
        confidence = np.where(counts > 0, conf_sum / counts, np.nan)
    centers = (np.arange(num_bins) + 0.5) / num_bins
    return ReliabilityDiagram(centers, accuracy, confidence, counts)


def expected_calibration_error(
    confidences: np.ndarray, correct: np.ndarray, num_bins: int = 10
) -> float:
    """ECE (Eq. 3): sum_m |S_m|/n * |acc(S_m) - conf(S_m)|."""
    return reliability_diagram(confidences, correct, num_bins).ece()


def maximum_calibration_error(
    confidences: np.ndarray, correct: np.ndarray, num_bins: int = 10
) -> float:
    """MCE: worst-bin |acc - conf| — a stricter companion metric."""
    diagram = reliability_diagram(confidences, correct, num_bins)
    gaps = diagram.gap[diagram.counts > 0]
    return float(gaps.max()) if gaps.size else 0.0


@dataclass
class CalibrationSummary:
    """Scalar calibration statistics for one classifier head."""

    ece: float
    mce: float
    accuracy: float
    mean_confidence: float

    @property
    def overconfident(self) -> bool:
        """True when acc(S) < conf(S) — the net overestimates (Sec. III-A)."""
        return self.accuracy < self.mean_confidence


def summarize_calibration(
    confidences: np.ndarray, correct: np.ndarray, num_bins: int = 10
) -> CalibrationSummary:
    """One-stop summary used by the calibration experiments and the α rule."""
    confidences, correct = _validate(confidences, correct)
    return CalibrationSummary(
        ece=expected_calibration_error(confidences, correct, num_bins),
        mce=maximum_calibration_error(confidences, correct, num_bins),
        accuracy=float(correct.mean()),
        mean_confidence=float(confidences.mean()),
    )
