"""Per-replica health tracking: heartbeats plus error/latency EWMAs.

The router judges a replica on two independent signals:

- **Heartbeats** — :meth:`ReplicaHealth.heartbeat_missed` counts beats
  the replica failed to answer (see ``ServiceRouter.tick``); past the
  configured budget the replica is *down* and gets ejected.
- **Call outcomes** — every routed call feeds the latency EWMA (used by
  the utility-aware balancing policy) and the error EWMA; a replica whose
  error rate climbs past the threshold turns *suspect* and is only used
  when no healthy holder of the model remains, which is what lets a
  flaky-but-alive replica recover instead of being starved forever.

Status is derived, never stored: ``DOWN`` beats ``SUSPECT`` beats
``HEALTHY``, and a replica explicitly marked down (a crash observed
mid-call) stays down regardless of later signals.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

HEALTHY = "healthy"
SUSPECT = "suspect"
DOWN = "down"

#: Ordering used by routing policies: prefer lower ranks.
STATUS_RANK = {HEALTHY: 0, SUSPECT: 1, DOWN: 2}

#: weight of the newest observation in the latency and error EWMAs.
EWMA_ALPHA = 0.3
#: error EWMA past which a replica turns *suspect*.
ERROR_RATE_THRESHOLD = 0.5
#: seeds the latency EWMA so a replica that has never served still gets a
#: finite expected wait in the utility policy.
LATENCY_PRIOR_S = 0.005


@dataclass(frozen=True)
class HealthConfig:
    """The one knob of the health judgment: the heartbeat budget."""

    max_missed_heartbeats: int = 3

    def __post_init__(self) -> None:
        if self.max_missed_heartbeats < 1:
            raise ValueError("max_missed_heartbeats must be >= 1")


class ReplicaHealth:
    """Thread-safe health state of one replica, as seen by the router."""

    def __init__(
        self, replica_id: str, config: Optional[HealthConfig] = None
    ) -> None:
        self.replica_id = replica_id
        self.config = config or HealthConfig()
        self._lock = threading.Lock()
        self._latency_ewma_s = LATENCY_PRIOR_S
        self._error_ewma = 0.0
        self._missed_heartbeats = 0
        self._down_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def record_success(self, latency_s: float) -> None:
        """A routed call succeeded: proof of life plus a latency sample."""
        with self._lock:
            self._latency_ewma_s += EWMA_ALPHA * (latency_s - self._latency_ewma_s)
            self._error_ewma *= 1.0 - EWMA_ALPHA
            self._missed_heartbeats = 0

    def record_error(self) -> None:
        with self._lock:
            self._error_ewma += EWMA_ALPHA * (1.0 - self._error_ewma)

    def heartbeat_ok(self) -> None:
        with self._lock:
            self._missed_heartbeats = 0

    def heartbeat_missed(self) -> int:
        """Count one missed beat; returns the consecutive-miss total."""
        with self._lock:
            self._missed_heartbeats += 1
            return self._missed_heartbeats

    def mark_down(self, reason: str) -> None:
        """Permanently condemn the replica (crash seen, ejection)."""
        with self._lock:
            if self._down_reason is None:
                self._down_reason = reason

    # ------------------------------------------------------------------
    # Judgment
    # ------------------------------------------------------------------
    @property
    def latency_ewma_s(self) -> float:
        with self._lock:
            return self._latency_ewma_s

    @property
    def error_ewma(self) -> float:
        with self._lock:
            return self._error_ewma

    @property
    def down_reason(self) -> Optional[str]:
        with self._lock:
            return self._down_reason

    @property
    def status(self) -> str:
        with self._lock:
            if (
                self._down_reason is not None
                or self._missed_heartbeats >= self.config.max_missed_heartbeats
            ):
                return DOWN
            if (
                self._missed_heartbeats > 0
                or self._error_ewma > ERROR_RATE_THRESHOLD
            ):
                return SUSPECT
            return HEALTHY

    @property
    def routable(self) -> bool:
        return self.status != DOWN

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            status = (
                DOWN
                if (
                    self._down_reason is not None
                    or self._missed_heartbeats
                    >= self.config.max_missed_heartbeats
                )
                else SUSPECT
                if (
                    self._missed_heartbeats > 0
                    or self._error_ewma > ERROR_RATE_THRESHOLD
                )
                else HEALTHY
            )
            return {
                "replica_id": self.replica_id,
                "status": status,
                "latency_ewma_ms": self._latency_ewma_s * 1000.0,
                "error_ewma": self._error_ewma,
                "missed_heartbeats": self._missed_heartbeats,
                "down_reason": self._down_reason,
            }
