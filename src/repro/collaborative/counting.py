"""People counting across camera regions (Sec. IV's first application).

"...applications such as people counting (estimating the aggregated
occupancy in different parts of the campus)..."

Counting from multiple overlapping cameras is not just summing per-camera
detections: a person seen by three cameras must count once.  This module
aggregates shared (world-remapped) detections into region-level occupancy:

- :class:`RegionGrid` — partitions the campus into rectangular regions;
- :func:`deduplicate_detections` — cross-camera merging of detections that
  refer to the same person (greedy radius clustering, highest confidence
  wins — the same rule the collaborative pipeline uses per camera, applied
  network-wide);
- :class:`OccupancyEstimator` — per-frame and time-averaged region counts,
  with evaluation against the simulator's ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .collaboration import CollaborativeFrameResult
from .detector import Detection
from .world import World


@dataclass(frozen=True)
class RegionGrid:
    """A rows x cols partition of the world rectangle."""

    width: float
    height: float
    rows: int = 2
    cols: int = 2

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("need at least one row and one column")

    @property
    def num_regions(self) -> int:
        return self.rows * self.cols

    def region_of(self, xy: np.ndarray) -> int:
        """Region index of a world point (points outside clamp to the edge)."""
        x, y = float(xy[0]), float(xy[1])
        col = int(np.clip(x / self.width * self.cols, 0, self.cols - 1))
        row = int(np.clip(y / self.height * self.rows, 0, self.rows - 1))
        return row * self.cols + col

    def region_name(self, index: int) -> str:
        if not 0 <= index < self.num_regions:
            raise IndexError(f"region {index} out of range")
        row, col = divmod(index, self.cols)
        return f"R{row}{col}"


def deduplicate_detections(
    detections: Sequence[Detection], merge_radius: float = 2.5
) -> List[Detection]:
    """Merge detections (across cameras) referring to the same person."""
    if merge_radius <= 0:
        raise ValueError("merge_radius must be positive")
    kept: List[Detection] = []
    for det in sorted(detections, key=lambda d: -d.confidence):
        xy = np.array(det.world_xy)
        if all(
            np.linalg.norm(np.array(k.world_xy) - xy) > merge_radius
            for k in kept
        ):
            kept.append(det)
    return kept


@dataclass
class OccupancyReport:
    """Counting quality over an evaluation window."""

    #: (num_frames, num_regions) estimated counts.
    estimated: np.ndarray
    #: (num_frames, num_regions) ground-truth counts.
    truth: np.ndarray

    @property
    def mean_absolute_error(self) -> float:
        return float(np.abs(self.estimated - self.truth).mean())

    @property
    def counting_accuracy(self) -> float:
        """1 - normalized absolute error, clamped at 0 (Table IV's metric)."""
        denom = np.maximum(self.truth, 1)
        return float(max(0.0, 1.0 - (np.abs(self.estimated - self.truth) / denom).mean()))

    @property
    def total_count_bias(self) -> float:
        """Mean (estimated - true) total occupancy; sign shows over/under-count."""
        return float((self.estimated.sum(axis=1) - self.truth.sum(axis=1)).mean())


class OccupancyEstimator:
    """Region-occupancy estimation from collaborative frame results."""

    def __init__(self, world: World, grid: RegionGrid, merge_radius: float = 2.5) -> None:
        self.world = world
        self.grid = grid
        self.merge_radius = merge_radius

    def counts_for_frame(self, frame: CollaborativeFrameResult) -> np.ndarray:
        """Per-region deduplicated head count for one frame."""
        all_dets = [d for dets in frame.detections.values() for d in dets]
        unique = deduplicate_detections(all_dets, self.merge_radius)
        counts = np.zeros(self.grid.num_regions, dtype=np.int64)
        for det in unique:
            counts[self.grid.region_of(np.array(det.world_xy))] += 1
        return counts

    def truth_for_time(self, t: float) -> np.ndarray:
        counts = np.zeros(self.grid.num_regions, dtype=np.int64)
        for point in self.world.positions_at(t):
            counts[self.grid.region_of(point)] += 1
        return counts

    def evaluate(self, frames: Sequence[CollaborativeFrameResult]) -> OccupancyReport:
        if not frames:
            raise ValueError("need at least one frame")
        estimated = np.stack([self.counts_for_frame(f) for f in frames])
        truth = np.stack([self.truth_for_time(f.t) for f in frames])
        return OccupancyReport(estimated=estimated, truth=truth)
