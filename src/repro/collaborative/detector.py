"""Simulated SSD-like people-detection pipeline with a calibrated latency model.

Per the paper's Sec. IV-B baseline: "executing 2 independent DNNs even on a
specialized edge node consumes ~550 msecs/frame" (MobileNet-SSD detection
followed by re-identification).  The simulator models, per camera per frame:

- **misses**: detection probability decays with distance, drops sharply for
  occluded targets, and is further reduced by a per-camera context artifact
  (poor lighting) — the effects the paper blames for individual cameras'
  lower accuracy;
- **false positives**: Poisson clutter inside the FoV;
- **localization noise** on (bearing, distance);
- **latency**: ``full_latency_ms`` for the 2-DNN path; ``prior_latency_ms``
  for the prior-guided path, where peer-supplied boxes let the camera run a
  light verification/tracking network instead of the full pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .camera import Camera
from .world import World


@dataclass(frozen=True)
class Detection:
    """One detection, in camera-local coordinates plus the world remap."""

    camera_id: int
    bearing: float
    distance: float
    world_xy: Tuple[float, float]
    confidence: float
    #: ground-truth person id, None for false positives (hidden from
    #: algorithms — only the evaluator reads it).
    true_person: Optional[int] = None


@dataclass
class DetectorConfig:
    #: detection probability at zero distance for an unoccluded target.
    base_detect_prob: float = 0.97
    #: linear decay of detection probability per meter of distance.
    distance_decay: float = 0.006
    #: multiplier applied when the line of sight is occluded.
    occlusion_factor: float = 0.1
    #: per-camera lighting artifact: multiplier in [1-artifact, 1].
    lighting_artifact: float = 0.2
    #: expected false positives per frame per camera.
    clutter_rate: float = 0.35
    #: standard deviation of bearing (radians) and relative distance noise.
    bearing_noise: float = 0.02
    distance_noise: float = 0.04
    #: latency of the full 2-DNN pipeline (detection + re-identification).
    full_latency_ms: float = 550.0
    #: latency of the prior-guided verification path.
    prior_latency_ms: float = 12.0
    #: per-shared-box verification cost added to the prior path.
    per_prior_ms: float = 0.15

    def __post_init__(self) -> None:
        if not 0 < self.base_detect_prob <= 1:
            raise ValueError("base_detect_prob must be in (0, 1]")
        if self.full_latency_ms <= 0 or self.prior_latency_ms <= 0:
            raise ValueError("latencies must be positive")


class SSDDetector:
    """Per-camera detection simulator."""

    def __init__(self, config: Optional[DetectorConfig] = None, seed: int = 0) -> None:
        self.config = config or DetectorConfig()
        self._rng = np.random.default_rng(seed)
        self._lighting: dict = {}

    def _camera_lighting(self, camera_id: int) -> float:
        """Deterministic per-camera lighting multiplier."""
        if camera_id not in self._lighting:
            rng = np.random.default_rng(1000 + camera_id)
            self._lighting[camera_id] = 1.0 - rng.uniform(0, self.config.lighting_artifact)
        return self._lighting[camera_id]

    def detection_probability(
        self, camera: Camera, point: np.ndarray, world: World
    ) -> float:
        """Probability this camera detects a person at ``point`` this frame."""
        if not camera.in_fov(point):
            return 0.0
        _, distance = camera.bearing_distance(point)
        p = self.config.base_detect_prob - self.config.distance_decay * distance
        p *= self._camera_lighting(camera.camera_id)
        if not world.line_of_sight(camera.pose.position, point):
            p *= self.config.occlusion_factor
        return float(np.clip(p, 0.0, 1.0))

    # ------------------------------------------------------------------
    def detect(self, camera: Camera, world: World, t: float) -> List[Detection]:
        """Run the full detection DNN on this camera's current frame."""
        cfg = self.config
        detections: List[Detection] = []
        positions = world.positions_at(t)
        for person_id, point in enumerate(positions):
            p = self.detection_probability(camera, point, world)
            if self._rng.random() >= p:
                continue
            bearing, distance = camera.bearing_distance(point)
            bearing += self._rng.normal(0, cfg.bearing_noise)
            distance *= 1.0 + self._rng.normal(0, cfg.distance_noise)
            world_xy = camera.to_world(bearing, distance)
            detections.append(
                Detection(
                    camera_id=camera.camera_id,
                    bearing=float(bearing),
                    distance=float(distance),
                    world_xy=(float(world_xy[0]), float(world_xy[1])),
                    confidence=float(np.clip(p + self._rng.normal(0, 0.05), 0.05, 0.99)),
                    true_person=person_id,
                )
            )
        # Clutter false positives, uniform over the FoV wedge.
        for _ in range(self._rng.poisson(cfg.clutter_rate)):
            bearing = self._rng.uniform(-camera.pose.half_fov, camera.pose.half_fov)
            distance = self._rng.uniform(2.0, camera.pose.max_range)
            world_xy = camera.to_world(bearing, distance)
            detections.append(
                Detection(
                    camera_id=camera.camera_id,
                    bearing=float(bearing),
                    distance=float(distance),
                    world_xy=(float(world_xy[0]), float(world_xy[1])),
                    confidence=float(self._rng.uniform(0.3, 0.7)),
                    true_person=None,
                )
            )
        return detections

    def verify_prior(
        self, camera: Camera, world: World, t: float, prior_xy: np.ndarray
    ) -> Optional[Detection]:
        """Prior-guided path: verify a peer-shared box inside a small ROI.

        Much cheaper than :meth:`detect` and much more sensitive inside the
        ROI — the verification network only needs to confirm/localize, not
        search.  Returns a detection when a real person is near the prior.
        """
        cfg = self.config
        prior_xy = np.asarray(prior_xy, dtype=np.float64)
        if not camera.in_fov(prior_xy):
            return None
        positions = world.positions_at(t)
        if len(positions) == 0:
            return None
        dists = np.linalg.norm(positions - prior_xy, axis=1)
        nearest = int(dists.argmin())
        if dists[nearest] > 4.0:
            return None
        point = positions[nearest]
        if not camera.in_fov(point):
            return None
        # ROI verification recovers heavily-occluded targets: only a full
        # occlusion (probability factor below) defeats it.
        p = 0.95
        if not world.line_of_sight(camera.pose.position, point):
            p = 0.55
        if self._rng.random() >= p:
            return None
        bearing, distance = camera.bearing_distance(point)
        bearing += self._rng.normal(0, cfg.bearing_noise / 2)
        distance *= 1.0 + self._rng.normal(0, cfg.distance_noise / 2)
        world_xy = camera.to_world(bearing, distance)
        return Detection(
            camera_id=camera.camera_id,
            bearing=float(bearing),
            distance=float(distance),
            world_xy=(float(world_xy[0]), float(world_xy[1])),
            confidence=0.9,
            true_person=nearest,
        )

    # ------------------------------------------------------------------
    def full_frame_latency_ms(self) -> float:
        return self.config.full_latency_ms

    def prior_frame_latency_ms(self, num_priors: int) -> float:
        return self.config.prior_latency_ms + self.config.per_prior_ms * num_priors
