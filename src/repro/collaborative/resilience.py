"""Resilient collaboration (Sec. IV-C): rogue peers and trust monitoring.

"False or noisy bounding box estimates by one camera can reduce the people
detection accuracy of other peer cameras by over 20%.  To promote practical
use ... Eugene must also provide resiliency services."

:class:`RogueCamera` injects fabricated boxes into the shared pool.
:class:`ResilienceMonitor` is the defense: it tracks, per source camera, how
often that source's shared boxes survive local ROI verification, and stops
trusting sources whose verification rate is anomalously low.  Plugged into
:class:`~repro.collaborative.collaboration.CollaborativePipeline`, it
filters rogue boxes before they pollute the cheap inference path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .world import World


@dataclass
class RogueCamera:
    """A compromised node flooding the shared pool with fake boxes."""

    camera_id: int
    rate: float = 3.0
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("rate must be non-negative")
        self._rng = np.random.default_rng(self.seed)

    def fake_boxes(self, world: World, t: float) -> List[np.ndarray]:
        """Fabricated world-coordinate boxes for this frame."""
        cfg = world.config
        count = self._rng.poisson(self.rate)
        return [
            np.array(
                [self._rng.uniform(0, cfg.width), self._rng.uniform(0, cfg.height)]
            )
            for _ in range(count)
        ]


class ResilienceMonitor:
    """Per-source trust from verification outcomes.

    A source is *trusted* until it has at least ``min_observations`` recorded
    verification attempts with a success rate below ``min_verify_rate``.
    Honest cameras' boxes verify most of the time (the box really is a
    person, merely observed from a different angle); rogue boxes almost
    never verify, so their rate collapses quickly.
    """

    def __init__(self, min_verify_rate: float = 0.3, min_observations: int = 12) -> None:
        if not 0.0 <= min_verify_rate <= 1.0:
            raise ValueError("min_verify_rate must be in [0, 1]")
        if min_observations < 1:
            raise ValueError("min_observations must be positive")
        self.min_verify_rate = min_verify_rate
        self.min_observations = min_observations
        self._success: Dict[int, int] = {}
        self._total: Dict[int, int] = {}

    def record(self, source_id: int, verified: bool) -> None:
        self._total[source_id] = self._total.get(source_id, 0) + 1
        if verified:
            self._success[source_id] = self._success.get(source_id, 0) + 1

    def verify_rate(self, source_id: int) -> float:
        total = self._total.get(source_id, 0)
        if total == 0:
            return 1.0
        return self._success.get(source_id, 0) / total

    def trusted(self, source_id: int) -> bool:
        if self._total.get(source_id, 0) < self.min_observations:
            return True
        return self.verify_rate(source_id) >= self.min_verify_rate

    def distrusted_sources(self) -> List[int]:
        return sorted(s for s in self._total if not self.trusted(s))
