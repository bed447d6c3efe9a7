"""Cameras with wedge-shaped fields of view and pose-based remapping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .world import World


def _wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return float((a + np.pi) % (2 * np.pi) - np.pi)


@dataclass(frozen=True)
class CameraPose:
    """Position, viewing direction (radians) and FoV of a camera."""

    x: float
    y: float
    orientation: float
    fov_degrees: float = 70.0
    max_range: float = 45.0

    def __post_init__(self) -> None:
        if not 0 < self.fov_degrees <= 360:
            raise ValueError("fov_degrees must be in (0, 360]")
        if self.max_range <= 0:
            raise ValueError("max_range must be positive")

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    @property
    def half_fov(self) -> float:
        return np.deg2rad(self.fov_degrees) / 2.0


class Camera:
    """One surveillance camera.

    World points are converted to *camera-local* observations
    ``(bearing, distance)`` — the 2-D analogue of an image-plane bounding
    box (bearing = box center x, 1/distance = box height).  Cameras share
    detections with peers by remapping local observations back to the common
    world frame through their known pose (Sec. IV-B's "suitably remapped to
    a common coordinate space").
    """

    def __init__(self, camera_id: int, pose: CameraPose) -> None:
        self.camera_id = camera_id
        self.pose = pose

    # ------------------------------------------------------------------
    def bearing_distance(self, point: np.ndarray) -> Tuple[float, float]:
        """Camera-local observation of a world point."""
        delta = np.asarray(point, dtype=np.float64) - self.pose.position
        distance = float(np.linalg.norm(delta))
        bearing = _wrap_angle(float(np.arctan2(delta[1], delta[0])) - self.pose.orientation)
        return bearing, distance

    def in_fov(self, point: np.ndarray) -> bool:
        """Within the wedge and range (ignores occlusion)."""
        bearing, distance = self.bearing_distance(point)
        return abs(bearing) <= self.pose.half_fov and 0 < distance <= self.pose.max_range

    def can_see(self, point: np.ndarray, world: World) -> bool:
        """Within FoV and with clear line of sight."""
        return self.in_fov(point) and world.line_of_sight(
            self.pose.position, np.asarray(point, dtype=np.float64)
        )

    def to_world(self, bearing: float, distance: float) -> np.ndarray:
        """Remap a camera-local observation into world coordinates."""
        angle = self.pose.orientation + bearing
        return self.pose.position + distance * np.array([np.cos(angle), np.sin(angle)])

    # ------------------------------------------------------------------
    def fov_overlap(self, other: "Camera", world: World, samples: int = 400,
                    seed: int = 0) -> float:
        """Monte-Carlo estimate of |FoV_a intersect FoV_b| / |FoV_a|.

        This is the *ground truth* the collaboration broker tries to
        discover from inference streams alone.
        """
        rng = np.random.default_rng(seed)
        cfg = world.config
        points = np.column_stack(
            [rng.uniform(0, cfg.width, samples), rng.uniform(0, cfg.height, samples)]
        )
        mine = np.array([self.in_fov(p) for p in points])
        if not mine.any():
            return 0.0
        both = np.array([self.in_fov(p) and other.in_fov(p) for p in points])
        return float(both.sum() / mine.sum())


def ring_of_cameras(
    num_cameras: int,
    world: World,
    fov_degrees: float = 70.0,
    max_range: float = 55.0,
    margin: float = 5.0,
) -> List[Camera]:
    """Place cameras evenly around the world boundary, all facing the center.

    With eight cameras (the PETS2009 setup) neighbouring FoVs overlap
    substantially near the center — the geometry the Table IV experiment
    relies on.
    """
    if num_cameras < 1:
        raise ValueError("need at least one camera")
    cfg = world.config
    cx, cy = cfg.width / 2, cfg.height / 2
    radius = min(cfg.width, cfg.height) / 2 - margin
    cameras = []
    for i in range(num_cameras):
        angle = 2 * np.pi * i / num_cameras
        x = cx + radius * np.cos(angle)
        y = cy + radius * np.sin(angle)
        orientation = _wrap_angle(angle + np.pi)  # face the center
        cameras.append(
            Camera(
                camera_id=i,
                pose=CameraPose(
                    x=x, y=y, orientation=orientation,
                    fov_degrees=fov_degrees, max_range=max_range,
                ),
            )
        )
    return cameras
