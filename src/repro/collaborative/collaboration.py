"""Collaborative inferencing pipeline (Sec. IV-B, Table IV).

Two operating modes over the same simulated world:

- **individual**: every camera runs the full 2-DNN pipeline on every frame
  (the paper's non-collaborative baseline: ~550 ms/frame, accuracy limited
  by per-camera occlusion and lighting artifacts);
- **collaborative**: cameras exchange detected boxes (remapped to the shared
  world frame).  Each camera runs the full detector only every
  ``refresh_every`` frames (staggered across cameras); on other frames it
  runs the cheap prior-guided verification path over (a) its own previous
  detections (temporal priors) and (b) boxes shared by peers.  Peer boxes
  recover occlusion misses (higher accuracy) and the cheap path slashes the
  average per-frame latency — the two Table IV effects.

The optional ``monitor`` (a :class:`~repro.collaborative.resilience.
ResilienceMonitor`) and ``rogues`` hooks implement the Sec. IV-C resilience
experiment: rogue cameras inject false boxes; the monitor learns per-source
trust from verification outcomes and filters untrusted sources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .camera import Camera
from .detector import Detection, SSDDetector
from .world import World


def match_detections(
    detections: Sequence[Detection],
    truth_positions: np.ndarray,
    tolerance: float = 3.5,
) -> Tuple[int, int, int]:
    """Greedy nearest-distance matching of detections to ground truth.

    Returns ``(true_positives, false_positives, false_negatives)``.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    remaining = list(range(len(truth_positions)))
    tp = 0
    fp = 0
    for det in sorted(detections, key=lambda d: -d.confidence):
        if not remaining:
            fp += 1
            continue
        xy = np.array(det.world_xy)
        dists = [float(np.linalg.norm(truth_positions[i] - xy)) for i in remaining]
        best = int(np.argmin(dists))
        if dists[best] <= tolerance:
            tp += 1
            remaining.pop(best)
        else:
            fp += 1
    return tp, fp, len(remaining)


@dataclass
class CollaborativeFrameResult:
    """Per-frame record of detections, latency and mode for every camera."""

    t: float
    detections: Dict[int, List[Detection]]
    latency_ms: Dict[int, float]
    mode: Dict[int, str]  # "full" or "prior"


@dataclass
class EvaluationSummary:
    """Aggregated Table IV metrics."""

    precision: float
    recall: float
    detection_accuracy: float  # F1
    counting_accuracy: float
    mean_latency_ms: float
    frames: int

    def as_row(self) -> Dict[str, float]:
        return {
            "detection_accuracy": self.detection_accuracy,
            "recognition_latency_ms": self.mean_latency_ms,
        }


class CollaborativePipeline:
    """Runs the camera network in individual or collaborative mode."""

    def __init__(
        self,
        world: World,
        cameras: Sequence[Camera],
        detector: SSDDetector,
        refresh_every: int = 40,
        merge_radius: float = 2.5,
        accept_unverified: bool = True,
        unverified_discount: float = 0.5,
        #: only detections at least this confident enter the shared pool —
        #: unverified hand-me-downs and low-confidence clutter are NOT
        #: re-shared, which prevents false positives from echoing through
        #: the network forever.
        share_threshold: float = 0.6,
        #: a failed verification keeps the peer box only when the sharing
        #: camera was at least this confident (fully-occluded real people).
        unverified_min_confidence: float = 0.75,
        monitor=None,
        rogues: Sequence = (),
    ) -> None:
        if not cameras:
            raise ValueError("need at least one camera")
        if refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        if not 0.0 <= share_threshold <= 1.0:
            raise ValueError("share_threshold must be in [0, 1]")
        self.world = world
        self.cameras = list(cameras)
        self.detector = detector
        self.refresh_every = refresh_every
        self.merge_radius = merge_radius
        self.accept_unverified = accept_unverified
        self.unverified_discount = unverified_discount
        self.share_threshold = share_threshold
        self.unverified_min_confidence = unverified_min_confidence
        self.monitor = monitor
        self.rogues = list(rogues)

    # ------------------------------------------------------------------
    def _merge(self, detections: List[Detection]) -> List[Detection]:
        """Deduplicate detections that refer to the same world position."""
        kept: List[Detection] = []
        for det in sorted(detections, key=lambda d: -d.confidence):
            xy = np.array(det.world_xy)
            if all(
                np.linalg.norm(np.array(k.world_xy) - xy) > self.merge_radius
                for k in kept
            ):
                kept.append(det)
        return kept

    def run_individual(self, num_frames: int, dt: float = 1.0) -> List[CollaborativeFrameResult]:
        """Baseline: full pipeline on every camera, every frame."""
        results = []
        for frame in range(num_frames):
            t = frame * dt
            dets = {c.camera_id: self.detector.detect(c, self.world, t) for c in self.cameras}
            results.append(
                CollaborativeFrameResult(
                    t=t,
                    detections=dets,
                    latency_ms={
                        c.camera_id: self.detector.full_frame_latency_ms()
                        for c in self.cameras
                    },
                    mode={c.camera_id: "full" for c in self.cameras},
                )
            )
        return results

    def run_collaborative(
        self, num_frames: int, dt: float = 1.0
    ) -> List[CollaborativeFrameResult]:
        """Collaborative mode with box sharing and prior-guided inference."""
        results: List[CollaborativeFrameResult] = []
        previous: Dict[int, List[Detection]] = {c.camera_id: [] for c in self.cameras}
        n = len(self.cameras)
        for frame in range(num_frames):
            t = frame * dt
            frame_dets: Dict[int, List[Detection]] = {}
            latency: Dict[int, float] = {}
            mode: Dict[int, str] = {}

            # Which cameras run a full refresh this frame (staggered; all at
            # frame 0 so the system bootstraps with complete coverage).
            full_this_frame = {
                c.camera_id
                for i, c in enumerate(self.cameras)
                if frame == 0 or frame % self.refresh_every == i % self.refresh_every
            }

            # Shared pool: everything detected last frame by anyone, plus
            # this frame's refresh outputs, plus rogue injections.  Entries
            # are (source_id, world_xy, confidence).
            shared: List[Tuple[int, np.ndarray, float]] = []
            for cam_id, dets in previous.items():
                for d in dets:
                    if d.confidence >= self.share_threshold:
                        shared.append((cam_id, np.array(d.world_xy), d.confidence))
            for rogue in self.rogues:
                for xy in rogue.fake_boxes(self.world, t):
                    shared.append((rogue.camera_id, np.asarray(xy), 0.9))

            refreshed: Dict[int, List[Detection]] = {}
            for camera in self.cameras:
                if camera.camera_id in full_this_frame:
                    dets = self.detector.detect(camera, self.world, t)
                    refreshed[camera.camera_id] = dets
                    frame_dets[camera.camera_id] = self._merge(dets)
                    latency[camera.camera_id] = self.detector.full_frame_latency_ms()
                    mode[camera.camera_id] = "full"
            for cam_id, dets in refreshed.items():
                for d in dets:
                    if d.confidence >= self.share_threshold:
                        shared.append((cam_id, np.array(d.world_xy), d.confidence))

            for camera in self.cameras:
                if camera.camera_id in full_this_frame:
                    continue
                priors = [
                    (src, xy, conf)
                    for src, xy, conf in shared
                    if camera.in_fov(xy)
                    and (self.monitor is None or self.monitor.trusted(src))
                ]
                dets: List[Detection] = []
                for src, xy, conf in priors:
                    verified = self.detector.verify_prior(camera, self.world, t, xy)
                    if self.monitor is not None and src != camera.camera_id:
                        self.monitor.record(src, verified is not None)
                    if verified is not None:
                        dets.append(verified)
                    elif (
                        self.accept_unverified
                        and src != camera.camera_id
                        and conf >= self.unverified_min_confidence
                    ):
                        dets.append(
                            Detection(
                                camera_id=camera.camera_id,
                                bearing=camera.bearing_distance(xy)[0],
                                distance=camera.bearing_distance(xy)[1],
                                world_xy=(float(xy[0]), float(xy[1])),
                                confidence=conf * self.unverified_discount,
                                true_person=None,
                            )
                        )
                frame_dets[camera.camera_id] = self._merge(dets)
                latency[camera.camera_id] = self.detector.prior_frame_latency_ms(
                    len(priors)
                )
                mode[camera.camera_id] = "prior"

            previous = frame_dets
            results.append(
                CollaborativeFrameResult(
                    t=t, detections=frame_dets, latency_ms=latency, mode=mode
                )
            )
        return results

    # ------------------------------------------------------------------
    def evaluate(
        self, results: Sequence[CollaborativeFrameResult], tolerance: float = 3.5
    ) -> EvaluationSummary:
        """Score detection quality against ground truth visible in each FoV."""
        tp = fp = fn = 0
        counting_errors: List[float] = []
        latencies: List[float] = []
        for frame in results:
            positions = self.world.positions_at(frame.t)
            for camera in self.cameras:
                visible = np.array(
                    [p for p in positions if camera.in_fov(p)]
                ).reshape(-1, 2)
                dets = frame.detections[camera.camera_id]
                t_, f_, n_ = match_detections(dets, visible, tolerance)
                tp += t_
                fp += f_
                fn += n_
                true_count = len(visible)
                est_count = len(dets)
                counting_errors.append(
                    abs(est_count - true_count) / max(true_count, 1)
                )
                latencies.append(frame.latency_ms[camera.camera_id])
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        return EvaluationSummary(
            precision=precision,
            recall=recall,
            detection_accuracy=f1,
            counting_accuracy=max(0.0, 1.0 - float(np.mean(counting_errors))),
            mean_latency_ms=float(np.mean(latencies)),
            frames=len(results),
        )
