"""2-D campus world: pedestrians on waypoint trajectories plus occluders.

The PETS2009 substitute.  Everything is seeded and deterministic: given the
same config, ``positions_at(t)`` returns identical ground truth — which is
what lets the Table IV benchmark measure detection accuracy exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Occluder:
    """A circular obstacle (tree, kiosk) blocking lines of sight."""

    x: float
    y: float
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("occluder radius must be positive")

    def blocks(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Does the segment a->b pass through this occluder?"""
        center = np.array([self.x, self.y])
        d = b - a
        length_sq = float(d @ d)
        if length_sq == 0.0:
            return float(np.linalg.norm(a - center)) < self.radius
        t = float(np.clip(((center - a) @ d) / length_sq, 0.0, 1.0))
        closest = a + t * d
        return float(np.linalg.norm(closest - center)) < self.radius


@dataclass
class WorldConfig:
    width: float = 100.0
    height: float = 100.0
    num_people: int = 12
    num_occluders: int = 5
    occluder_radius: Tuple[float, float] = (2.0, 5.0)
    speed_range: Tuple[float, float] = (0.8, 1.8)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("world dimensions must be positive")
        if self.num_people < 0 or self.num_occluders < 0:
            raise ValueError("counts must be non-negative")


class Pedestrian:
    """A person walking between random waypoints at constant speed."""

    def __init__(self, person_id: int, rng: np.random.Generator,
                 config: WorldConfig, num_waypoints: int = 8) -> None:
        self.person_id = person_id
        self.speed = float(rng.uniform(*config.speed_range))
        self.waypoints = np.column_stack(
            [
                rng.uniform(0, config.width, num_waypoints),
                rng.uniform(0, config.height, num_waypoints),
            ]
        )
        # Cumulative path lengths let position_at run in O(#waypoints).
        deltas = np.diff(self.waypoints, axis=0)
        seg_lengths = np.linalg.norm(deltas, axis=1)
        self._cum = np.concatenate([[0.0], np.cumsum(seg_lengths)])

    @property
    def path_length(self) -> float:
        return float(self._cum[-1])

    def position_at(self, t: float) -> np.ndarray:
        """Position at time ``t`` (loops over the waypoint cycle)."""
        if self.path_length == 0.0:
            return self.waypoints[0].copy()
        s = (t * self.speed) % self.path_length
        idx = int(np.searchsorted(self._cum, s, side="right") - 1)
        idx = min(idx, len(self.waypoints) - 2)
        seg_start, seg_end = self.waypoints[idx], self.waypoints[idx + 1]
        seg_len = self._cum[idx + 1] - self._cum[idx]
        frac = (s - self._cum[idx]) / seg_len if seg_len > 0 else 0.0
        return seg_start + frac * (seg_end - seg_start)


class World:
    """The simulated campus."""

    def __init__(self, config: Optional[WorldConfig] = None) -> None:
        self.config = config or WorldConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.people = [Pedestrian(i, rng, cfg) for i in range(cfg.num_people)]
        self.occluders = [
            Occluder(
                x=float(rng.uniform(0.15 * cfg.width, 0.85 * cfg.width)),
                y=float(rng.uniform(0.15 * cfg.height, 0.85 * cfg.height)),
                radius=float(rng.uniform(*cfg.occluder_radius)),
            )
            for _ in range(cfg.num_occluders)
        ]

    def positions_at(self, t: float) -> np.ndarray:
        """(num_people, 2) ground-truth positions at time ``t``."""
        if not self.people:
            return np.zeros((0, 2))
        return np.stack([p.position_at(t) for p in self.people])

    def line_of_sight(self, a: np.ndarray, b: np.ndarray) -> bool:
        """True when no occluder blocks the segment a->b."""
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return not any(occ.blocks(a, b) for occ in self.occluders)
