"""Collaboration brokering (Sec. IV-C): discover FoV overlap autonomously.

"By operating on the metadata & higher-level inferences from individual
nodes, Eugene can discover and establish the relevant collaboration
parameters — e.g., instructing cameras A & B to apply the collaborative
tracking mechanism ... but with a time lag of 20 seconds."

The broker never sees camera poses.  It only sees each camera's per-frame
*inference stream* (here: detected-people counts over time) and finds camera
pairs whose streams are significantly correlated at some lag: concurrent
overlap shows up at lag 0; corridor-style temporal correlation shows up at
the transit lag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np


@dataclass(frozen=True)
class BrokerResult:
    """One discovered collaboration: cameras (a, b) correlated at ``lag``."""

    camera_a: int
    camera_b: int
    lag: int
    correlation: float


def _lagged_correlation(a: np.ndarray, b: np.ndarray, lag: int) -> float:
    """Pearson correlation of a[t] with b[t + lag]."""
    if lag > 0:
        a_seg, b_seg = a[:-lag], b[lag:]
    elif lag < 0:
        a_seg, b_seg = a[-lag:], b[:lag]
    else:
        a_seg, b_seg = a, b
    if len(a_seg) < 3 or a_seg.std() == 0 or b_seg.std() == 0:
        return 0.0
    return float(np.corrcoef(a_seg, b_seg)[0, 1])


class CollaborationBroker:
    """Finds correlated camera pairs from count streams.

    Parameters
    ----------
    max_lag:
        Largest time lag (frames) searched in either direction.
    threshold:
        Minimum |correlation| for a pair to be reported.
    """

    def __init__(self, max_lag: int = 0, threshold: float = 0.35) -> None:
        if max_lag < 0:
            raise ValueError("max_lag must be non-negative")
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.max_lag = max_lag
        self.threshold = threshold

    def discover(self, streams: Dict[int, np.ndarray]) -> List[BrokerResult]:
        """Return significant pairs sorted by descending correlation.

        ``streams`` maps camera id to a 1-D per-frame count series; all
        series must have equal length.
        """
        ids = sorted(streams)
        if len(ids) < 2:
            return []
        lengths = {len(streams[i]) for i in ids}
        if len(lengths) != 1:
            raise ValueError("all streams must have the same length")
        results: List[BrokerResult] = []
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                sa = np.asarray(streams[a], dtype=np.float64)
                sb = np.asarray(streams[b], dtype=np.float64)
                best_lag, best_corr = 0, 0.0
                for lag in range(-self.max_lag, self.max_lag + 1):
                    corr = _lagged_correlation(sa, sb, lag)
                    if abs(corr) > abs(best_corr):
                        best_lag, best_corr = lag, corr
                if abs(best_corr) >= self.threshold:
                    results.append(
                        BrokerResult(
                            camera_a=a, camera_b=b, lag=best_lag,
                            correlation=best_corr,
                        )
                    )
        return sorted(results, key=lambda r: -abs(r.correlation))

    @staticmethod
    def count_streams(results: Sequence, cameras: Sequence) -> Dict[int, np.ndarray]:
        """Build per-camera count streams from pipeline frame results."""
        streams: Dict[int, List[int]] = {c.camera_id: [] for c in cameras}
        for frame in results:
            for cam_id, dets in frame.detections.items():
                streams[cam_id].append(len(dets))
        return {cid: np.array(v, dtype=np.float64) for cid, v in streams.items()}
