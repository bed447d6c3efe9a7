"""Model caching on edge devices (Sec. II-B's smart-refrigerator mechanism).

Pipeline automated here, answering the paper's open questions with concrete
(configurable) policies:

1. *When are items frequent?* — a sliding-window :class:`FrequencyTracker`
   declares the smallest class set covering ``coverage_target`` of recent
   traffic frequent, provided the window is full.
2. *How large should the cached set/model be?* — bounded by the
   :class:`DeviceProfile` (parameter budget picks the width fraction; class
   set capped at ``max_cached_classes``).
3. *Adaptation to device capability / link bandwidth* — the profile's
   ``bandwidth_kbps`` sets the modelled download cost; the service only
   installs a model whose download amortizes over expected hits.
4. *When is the cached model removed?* — when its observed hit rate over the
   last window drops below ``min_hit_rate`` the cache invalidates itself and
   the tracker starts over.

A **cache miss** is a reduced-model output that is either the "other" class
or below the confidence threshold; the query then falls back to the full
server model, exactly like "the identification of an uncommon occurrence ...
triggers full network execution on the server".
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..nn.data import Dataset
from ..nn.resnet import StagedResNet
from .pruning import shrink_staged_resnet


@dataclass
class DeviceProfile:
    """Capabilities of the edge device hosting the cache."""

    #: maximum parameters the device can host.
    max_parameters: int = 20_000
    #: downlink bandwidth for model pushes.
    bandwidth_kbps: float = 1_000.0
    #: modelled per-inference latency ratio device/server compute (device is
    #: slower per op but skips the network round trip).
    compute_slowdown: float = 4.0
    #: network round-trip latency to the server, ms.
    network_rtt_ms: float = 80.0

    def __post_init__(self) -> None:
        if self.max_parameters < 1 or self.bandwidth_kbps <= 0:
            raise ValueError("invalid device profile")

    def width_fraction_for(self, full_parameters: int) -> float:
        """Largest width fraction whose parameter count fits the device.

        Parameter count of a CNN scales roughly quadratically with width, so
        the fraction is sqrt of the parameter ratio, clamped to [0.1, 1].
        """
        ratio = self.max_parameters / max(full_parameters, 1)
        return float(np.clip(np.sqrt(ratio), 0.1, 1.0))

    def download_time_ms(self, parameters: int) -> float:
        bits = parameters * 32
        return bits / (self.bandwidth_kbps * 1000.0) * 1000.0


class FrequencyTracker:
    """Sliding-window class-frequency tracker."""

    def __init__(self, window: int = 200, coverage_target: float = 0.8,
                 max_classes: int = 4) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        if not 0.0 < coverage_target <= 1.0:
            raise ValueError("coverage_target must be in (0, 1]")
        if max_classes < 1:
            raise ValueError("max_classes must be positive")
        self.window = window
        self.coverage_target = coverage_target
        self.max_classes = max_classes
        self._events: Deque[int] = deque(maxlen=window)

    def observe(self, label: int) -> None:
        self._events.append(int(label))

    @property
    def full(self) -> bool:
        return len(self._events) == self.window

    def counts(self) -> Counter:
        return Counter(self._events)

    def frequent_classes(self) -> Optional[List[int]]:
        """Smallest class set covering the target, or None if not detectable.

        None is returned when the window is not yet full, or when covering
        the target would need more than ``max_classes`` classes (traffic too
        diverse — caching would not pay).
        """
        if not self.full:
            return None
        counts = self.counts().most_common()
        total = len(self._events)
        chosen: List[int] = []
        covered = 0
        for label, count in counts:
            if len(chosen) == self.max_classes:
                break
            chosen.append(label)
            covered += count
            if covered / total >= self.coverage_target:
                return sorted(chosen)
        return None

    def reset(self) -> None:
        self._events.clear()


@dataclass
class ReducedClassModel:
    """A cached, reduced model specialized to a frequent-class subset."""

    model: StagedResNet
    class_map: Dict[int, int]
    confidence_threshold: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence threshold must be in [0, 1]")
        self._inverse = {v: k for k, v in self.class_map.items()}
        self._other_index = len(self.class_map)

    @property
    def cached_classes(self) -> List[int]:
        return sorted(self.class_map)

    def predict(self, x: np.ndarray) -> Tuple[Optional[int], float]:
        """(original-class prediction, confidence) — prediction None on miss."""
        probs = self.model.predict_proba(x[None] if x.ndim == 3 else x)[-1][0]
        idx = int(probs.argmax())
        conf = float(probs.max())
        if idx == self._other_index or conf < self.confidence_threshold:
            return None, conf
        return self._inverse[idx], conf


@dataclass
class CacheStats:
    """Counters for the caching service."""

    local_hits: int = 0
    local_misses: int = 0
    server_only: int = 0
    installs: int = 0
    invalidations: int = 0

    @property
    def total_queries(self) -> int:
        return self.local_hits + self.local_misses + self.server_only

    @property
    def hit_rate(self) -> float:
        served = self.local_hits + self.local_misses
        return self.local_hits / served if served else 0.0

    @property
    def offload_fraction(self) -> float:
        """Fraction of queries that had to travel to the server."""
        if not self.total_queries:
            return 0.0
        return (self.local_misses + self.server_only) / self.total_queries


class CachedInferenceService:
    """End-to-end caching service: observe traffic, install, serve, invalidate."""

    def __init__(
        self,
        server_model: StagedResNet,
        train_set: Dataset,
        device: Optional[DeviceProfile] = None,
        tracker: Optional[FrequencyTracker] = None,
        confidence_threshold: float = 0.6,
        min_hit_rate: float = 0.3,
        hit_window: int = 50,
        reduce_epochs: int = 4,
        seed: int = 0,
    ) -> None:
        self.server_model = server_model
        self.train_set = train_set
        self.device = device or DeviceProfile()
        self.tracker = tracker or FrequencyTracker()
        self.confidence_threshold = confidence_threshold
        self.min_hit_rate = min_hit_rate
        self.reduce_epochs = reduce_epochs
        self.seed = seed
        self.stats = CacheStats()
        self.cached: Optional[ReducedClassModel] = None
        self._recent_hits: Deque[bool] = deque(maxlen=hit_window)
        #: parameter ratio (reduced/full) of the most recently *installed*
        #: reduced model.  Survives invalidation: latency accounting for a
        #: "server-after-miss" query must charge the cost of the small
        #: model that actually ran at miss time, not the full device cost.
        self._cached_ratio: Optional[float] = None

    # ------------------------------------------------------------------
    def _maybe_install(self) -> None:
        frequent = self.tracker.frequent_classes()
        if frequent is None:
            return
        width = self.device.width_fraction_for(self.server_model.num_parameters())
        reduced, class_map = shrink_staged_resnet(
            self.server_model,
            self.train_set,
            width_fraction=width,
            class_subset=frequent,
            epochs=self.reduce_epochs,
            seed=self.seed,
        )
        self.cached = ReducedClassModel(
            model=reduced,
            class_map=class_map,
            confidence_threshold=self.confidence_threshold,
        )
        self._cached_ratio = (
            reduced.num_parameters() / self.server_model.num_parameters()
        )
        self.stats.installs += 1
        self._recent_hits.clear()

    def _maybe_invalidate(self) -> None:
        if self.cached is None or len(self._recent_hits) < self._recent_hits.maxlen:
            return
        rate = sum(self._recent_hits) / len(self._recent_hits)
        if rate < self.min_hit_rate:
            self.cached = None
            self.stats.invalidations += 1
            self.tracker.reset()
            self._recent_hits.clear()

    def _server_predict(self, x: np.ndarray) -> Tuple[int, float]:
        probs = self.server_model.predict_proba(x[None] if x.ndim == 3 else x)[-1][0]
        return int(probs.argmax()), float(probs.max())

    def query(self, x: np.ndarray) -> Dict[str, object]:
        """Serve one input; returns prediction, confidence, and provenance."""
        if self.cached is not None:
            prediction, confidence = self.cached.predict(x)
            if prediction is not None:
                self.stats.local_hits += 1
                self._recent_hits.append(True)
                self.tracker.observe(prediction)
                return {
                    "prediction": prediction,
                    "confidence": confidence,
                    "source": "cache",
                }
            self.stats.local_misses += 1
            self._recent_hits.append(False)
            prediction, confidence = self._server_predict(x)
            self.tracker.observe(prediction)
            self._maybe_invalidate()
            return {
                "prediction": prediction,
                "confidence": confidence,
                "source": "server-after-miss",
            }
        self.stats.server_only += 1
        prediction, confidence = self._server_predict(x)
        self.tracker.observe(prediction)
        self._maybe_install()
        return {
            "prediction": prediction,
            "confidence": confidence,
            "source": "server",
        }

    # ------------------------------------------------------------------
    def estimated_latency_ms(self, source: str, server_infer_ms: float = 30.0) -> float:
        """Modelled per-query latency for each provenance class."""
        device_infer = server_infer_ms * self.device.compute_slowdown
        if source == "cache":
            # Reduced model is far smaller; scale by parameter ratio.  With
            # no model currently installed, fall back to the ratio of the
            # last one installed: an invalidated cache's miss-time local
            # attempts ran *that* model, so charging the full device cost
            # (ratio 1.0) would overstate the miss penalty.
            if self.cached is not None:
                ratio = (
                    self.cached.model.num_parameters()
                    / self.server_model.num_parameters()
                )
            elif self._cached_ratio is not None:
                ratio = self._cached_ratio
            else:
                ratio = 1.0
            return device_infer * ratio
        if source == "server-after-miss":
            return self.estimated_latency_ms("cache") + (
                self.device.network_rtt_ms + server_infer_ms
            )
        return self.device.network_rtt_ms + server_infer_ms
