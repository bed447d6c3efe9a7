"""Elastic replica autoscaling for the serving tier.

A controller that watches router telemetry — queue depth, shed
fraction, latency — and grows or shrinks the fleet online through
:meth:`ServiceRouter.add_replica` / :meth:`ServiceRouter.drain_replica`.
The design splits cleanly in two:

- **Policy** (:func:`decide`) is a *pure function* of
  ``(LoadSnapshot, ControllerState, AutoscalerConfig)``.  No clock
  reads, no router access, no side effects — every cooldown, hysteresis
  window, and step bound is unit-testable on a virtual timestamp with
  zero real sleeps: the controller cannot flake because it cannot wait.
- **Actuation** (:class:`Autoscaler`) owns the messy parts: building
  snapshots from live telemetry, spawning replicas (with a configurable
  *pre-warm pool* that hides process spawn latency), draining victims
  with zero lost requests, measuring cold starts, integrating
  replica-seconds (the cost metric the experiment gate charges), and
  parking idle models (*scale-to-zero*).

The policy is target-utilization with hysteresis and per-direction
cooldowns, the shape DeepServe and peers converge on: scale up when
``outstanding / serving_replicas`` breaches the target for
``hysteresis_up`` consecutive observations (or when shed fraction / p99
breach their own triggers), scale down only after a longer streak of
quiet *and* a longer cooldown, so a flash crowd's trailing edge never
triggers an immediate shrink that the next spike has to undo.

Cold start is modelled as the sum of its two real components: replica
spawn (thread construction vs ``multiprocessing`` fork/spawn + handshake)
and model re-replication (rendezvous hashing pulls ~1/N of placements
onto the newcomer).  Both are measured per scale-up into
``autoscaler.cold_start_ms.{spawned|prewarmed}`` histograms; a pre-warm
pool converts the spawn component into background work paid before the
spike.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..clock import MONOTONIC, Clock, stopwatch

#: Decision actions.
SCALE_UP = "scale_up"
SCALE_DOWN = "scale_down"
HOLD = "hold"
ACTIONS = (SCALE_UP, SCALE_DOWN, HOLD)


@dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs for the target-utilization policy and its actuator.

    The defaults are deliberately asymmetric: scaling up is cheap to
    undo and expensive to miss (shed requests), scaling down is the
    reverse, so up reacts on a short streak/cooldown and down on a long
    one.
    """

    #: fleet bounds the controller may never leave.
    min_replicas: int = 1
    max_replicas: int = 8
    #: utilization target: desired in-flight requests per serving replica.
    target_outstanding_per_replica: float = 4.0
    #: scale up when utilization >= target * this ratio.
    scale_up_ratio: float = 1.0
    #: scale down when utilization <= target * this ratio.
    scale_down_ratio: float = 0.3
    #: consecutive breaching observations required before acting.
    hysteresis_up: int = 2
    hysteresis_down: int = 5
    #: minimum seconds between actions, per direction.
    up_cooldown_s: float = 5.0
    down_cooldown_s: float = 30.0
    #: per-decision step bounds.
    max_step_up: int = 2
    max_step_down: int = 1
    #: immediate scale-up trigger: fraction of calls shed since the last
    #: observation (admission rejections / calls).
    shed_fraction_trigger: float = 0.05
    #: optional immediate scale-up trigger on cluster p99 latency (ms);
    #: ``None`` disables the latency trigger.
    p99_trigger_ms: Optional[float] = None
    #: replicas kept spawned-but-unregistered, ready to join instantly.
    prewarm_pool_size: int = 0
    #: park models unserved for this long (seconds); ``None`` disables
    #: scale-to-zero.
    idle_model_ttl_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.target_outstanding_per_replica <= 0:
            raise ValueError("target_outstanding_per_replica must be > 0")
        if not 0 < self.scale_down_ratio < self.scale_up_ratio:
            raise ValueError(
                "need 0 < scale_down_ratio < scale_up_ratio"
            )
        if self.hysteresis_up < 1 or self.hysteresis_down < 1:
            raise ValueError("hysteresis streaks must be >= 1")
        if self.up_cooldown_s < 0 or self.down_cooldown_s < 0:
            raise ValueError("cooldowns must be >= 0")
        if self.max_step_up < 1 or self.max_step_down < 1:
            raise ValueError("step bounds must be >= 1")
        if self.prewarm_pool_size < 0:
            raise ValueError("prewarm_pool_size must be >= 0")
        if self.idle_model_ttl_s is not None and self.idle_model_ttl_s <= 0:
            raise ValueError("idle_model_ttl_s must be > 0 when set")


@dataclass(frozen=True)
class LoadSnapshot:
    """One observation of cluster load — pure data, no live handles.

    ``replicas`` counts serving capacity (alive, not ejected, not
    draining); ``draining`` counts replicas on their way out, which still
    burn replica-seconds but take no new placements.
    """

    now: float
    replicas: int
    draining: int = 0
    outstanding: int = 0
    shed_fraction: float = 0.0
    p99_latency_ms: float = 0.0

    @property
    def utilization(self) -> float:
        """In-flight requests per serving replica."""
        return self.outstanding / max(1, self.replicas)


@dataclass(frozen=True)
class ControllerState:
    """The controller's memory between observations (immutable)."""

    high_streak: int = 0
    low_streak: int = 0
    #: timestamps of the last actions; ``-inf`` = never, so the first
    #: decision is never cooldown-blocked.
    last_scale_up_at: float = float("-inf")
    last_scale_down_at: float = float("-inf")


@dataclass(frozen=True)
class Decision:
    """What the policy wants done, and why (for the decision log)."""

    action: str
    amount: int
    reason: str
    utilization: float


def decide(
    snapshot: LoadSnapshot,
    state: ControllerState,
    config: AutoscalerConfig,
) -> Tuple[Decision, ControllerState]:
    """The pure scaling policy: ``(snapshot, state, config) -> decision``.

    Deterministic and side-effect free — time only enters through
    ``snapshot.now``, so a virtual clock exercises every cooldown and
    hysteresis path without sleeping.  Returns the decision and the
    successor state (streak counters updated, action timestamps stamped
    when an action fires).
    """
    util = snapshot.utilization
    target = config.target_outstanding_per_replica
    up_edge = target * config.scale_up_ratio
    down_edge = target * config.scale_down_ratio

    shed_hot = snapshot.shed_fraction >= config.shed_fraction_trigger
    p99_hot = (
        config.p99_trigger_ms is not None
        and snapshot.p99_latency_ms >= config.p99_trigger_ms
    )
    pressure = util >= up_edge or shed_hot or p99_hot
    quiet = util <= down_edge and not shed_hot and not p99_hot

    high = state.high_streak + 1 if pressure else 0
    low = state.low_streak + 1 if quiet else 0
    state = replace(state, high_streak=high, low_streak=low)

    def hold(reason: str) -> Tuple[Decision, ControllerState]:
        return Decision(HOLD, 0, reason, util), state

    if pressure:
        if snapshot.replicas + snapshot.draining >= config.max_replicas:
            return hold("pressure but at max_replicas")
        if high < config.hysteresis_up:
            return hold(
                f"pressure streak {high}/{config.hysteresis_up}"
            )
        since_up = snapshot.now - state.last_scale_up_at
        if since_up < config.up_cooldown_s:
            return hold(
                f"up-cooldown ({since_up:.3g}s < "
                f"{config.up_cooldown_s:.3g}s)"
            )
        # Size the step toward the utilization target, bounded.
        want = max(1, int(-(-snapshot.outstanding // target)) - snapshot.replicas)
        room = config.max_replicas - snapshot.replicas - snapshot.draining
        amount = max(1, min(want, config.max_step_up, room))
        reasons = []
        if util >= up_edge:
            reasons.append(f"utilization {util:.3g} >= {up_edge:.3g}")
        if shed_hot:
            reasons.append(
                f"shed {snapshot.shed_fraction:.3g} >= "
                f"{config.shed_fraction_trigger:.3g}"
            )
        if p99_hot:
            reasons.append(
                f"p99 {snapshot.p99_latency_ms:.3g}ms >= "
                f"{config.p99_trigger_ms:.3g}ms"
            )
        state = replace(
            state, high_streak=0, low_streak=0,
            last_scale_up_at=snapshot.now,
        )
        return Decision(SCALE_UP, amount, "; ".join(reasons), util), state

    if quiet:
        if snapshot.replicas <= config.min_replicas:
            return hold("quiet but at min_replicas")
        if low < config.hysteresis_down:
            return hold(
                f"quiet streak {low}/{config.hysteresis_down}"
            )
        last_action = max(state.last_scale_up_at, state.last_scale_down_at)
        since = snapshot.now - last_action
        if since < config.down_cooldown_s:
            return hold(
                f"down-cooldown ({since:.3g}s < "
                f"{config.down_cooldown_s:.3g}s)"
            )
        amount = max(
            1,
            min(
                config.max_step_down,
                snapshot.replicas - config.min_replicas,
            ),
        )
        state = replace(
            state, high_streak=0, low_streak=0,
            last_scale_down_at=snapshot.now,
        )
        return (
            Decision(
                SCALE_DOWN, amount,
                f"utilization {util:.3g} <= {down_edge:.3g}", util,
            ),
            state,
        )

    return hold("within band")


class Autoscaler:
    """Actuate :func:`decide` against a live :class:`ServiceRouter`.

    Call :meth:`step` periodically (the experiment does it once per
    trace step; production would do it from a control loop).  Each step:
    integrates replica-seconds since the last step, builds a
    :class:`LoadSnapshot` from router telemetry, runs the pure policy,
    and executes the decision — spawn-and-add for scale-up (pre-warm
    pool first), drain-and-remove for scale-down, plus idle-model
    parking when scale-to-zero is enabled.

    ``replica_factory`` is a ``(replica_id, index) -> replica`` callable;
    :func:`make_cluster` attaches a matching one to the router, so the
    common case is just ``Autoscaler(router, config)``.
    """

    def __init__(
        self,
        router,
        config: Optional[AutoscalerConfig] = None,
        *,
        clock: Optional[Clock] = None,
        replica_factory: Optional[Callable[[str, int], object]] = None,
    ) -> None:
        self.router = router
        self.config = config or AutoscalerConfig()
        self.clock = clock or getattr(router, "clock", MONOTONIC)
        factory = replica_factory or getattr(router, "replica_factory", None)
        if factory is None:
            raise ValueError(
                "no replica_factory: pass one, or build the router with "
                "make_cluster()"
            )
        self._factory = factory
        self.state = ControllerState()
        self.decisions: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._spawn_seq = itertools.count(1000)
        self._prewarm: List = []
        #: cost accounting: ∫ (active replicas + pre-warm pool) dt.
        self.replica_seconds = 0.0
        self._last_accounted: float = self.clock.now()
        self._last_calls = 0.0
        self._last_rejected = 0.0
        self._refill_prewarm()

    # ------------------------------------------------------------------
    # Telemetry in
    # ------------------------------------------------------------------
    def observe(self) -> LoadSnapshot:
        """Snapshot current load from router telemetry.

        Shed fraction is a *windowed* signal — rejections/calls since
        the previous observation — so a burst of shedding an hour ago
        does not keep the controller scaled up forever.
        """
        router = self.router
        draining = set(router.draining())
        serving = [
            rid for rid in router.active_replica_ids() if rid not in draining
        ]
        outstanding = 0
        for rid in serving:
            replica = router.replicas.get(rid)
            if replica is not None:
                outstanding += replica.outstanding

        counters = router.metrics.counters()
        calls = sum(
            v for k, v in counters.items() if k.startswith("router.calls.")
        )
        rejected = sum(
            v for k, v in counters.items() if k.startswith("router.rejected.")
        )
        d_calls = max(0.0, calls - self._last_calls)
        d_rejected = max(0.0, rejected - self._last_rejected)
        self._last_calls, self._last_rejected = calls, rejected
        shed = d_rejected / d_calls if d_calls > 0 else 0.0

        p99 = 0.0
        if self.config.p99_trigger_ms is not None:
            snap = router.cluster_snapshot()
            hist = snap.get("histograms", {}).get("replica.latency_ms")
            if hist:
                p99 = float(hist.get("p99", 0.0))

        return LoadSnapshot(
            now=self.clock.now(),
            replicas=len(serving),
            draining=len(draining),
            outstanding=outstanding,
            shed_fraction=shed,
            p99_latency_ms=p99,
        )

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def step(self) -> Decision:
        """One control iteration: account → observe → decide → act."""
        with self._lock:
            self._account()
            snapshot = self.observe()
            decision, self.state = decide(snapshot, self.state, self.config)
            before = snapshot.replicas
            if decision.action == SCALE_UP:
                self.scale_up(decision.amount)
            elif decision.action == SCALE_DOWN:
                self.scale_down(decision.amount)
            if self.config.idle_model_ttl_s is not None:
                self._park_idle()
            self.decisions.append(
                {
                    "t": snapshot.now,
                    "action": decision.action,
                    "amount": decision.amount,
                    "reason": decision.reason,
                    "utilization": decision.utilization,
                    "replicas_before": before,
                    "replicas_after": len(
                        [
                            rid
                            for rid in self.router.active_replica_ids()
                            if rid not in set(self.router.draining())
                        ]
                    ),
                }
            )
            self.router.metrics.counter(
                f"autoscaler.decisions.{decision.action}"
            ).inc()
            return decision

    def _account(self) -> None:
        now = self.clock.now()
        dt = max(0.0, now - self._last_accounted)
        fleet = len(self.router.active_replica_ids()) + len(self._prewarm)
        self.replica_seconds += dt * fleet
        self._last_accounted = now

    def finalize(self) -> float:
        """Close the replica-seconds integral and drop the pre-warm pool."""
        with self._lock:
            self._account()
            for replica in self._prewarm:
                replica.shutdown()
            self._prewarm.clear()
            return self.replica_seconds

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------
    def scale_up(self, amount: int) -> List[str]:
        """Add ``amount`` replicas (pre-warmed first), measuring cold start.

        Cold start = join latency the *traffic* observes: replica
        acquisition (zero for a pre-warmed one, full spawn otherwise)
        plus registration and the ~1/N placement re-replication
        ``add_replica``/``rebalance`` perform.  Each join lands in
        ``autoscaler.cold_start_ms.{prewarmed|spawned}``.
        """
        added: List[str] = []
        for _ in range(max(0, amount)):
            elapsed = stopwatch()
            if self._prewarm:
                replica, source = self._prewarm.pop(0), "prewarmed"
            else:
                replica, source = self._spawn(), "spawned"
            self.router.add_replica(replica)
            moved = self.router.rebalance()
            elapsed_ms = elapsed() * 1000.0
            self.router.metrics.histogram(
                f"autoscaler.cold_start_ms.{source}", lo=1e-3
            ).observe(elapsed_ms)
            self.router.metrics.counter(
                f"autoscaler.joins.{source}"
            ).inc()
            if moved.get("copies_installed"):
                self.router.metrics.counter(
                    "autoscaler.join_copies"
                ).inc(moved["copies_installed"])
            added.append(replica.replica_id)
        self._refill_prewarm()
        return added

    def scale_down(self, amount: int) -> List[str]:
        """Drain ``amount`` victims (least-loaded first), zero requests lost."""
        removed: List[str] = []
        for _ in range(max(0, amount)):
            victim = self._pick_victim()
            if victim is None:
                break
            try:
                self.router.drain_replica(victim)
            except (KeyError, ValueError):
                # Lost a race with a crash/ejection — the health plane
                # already handled it; nothing to undo.
                continue
            removed.append(victim)
        return removed

    def _pick_victim(self) -> Optional[str]:
        draining = set(self.router.draining())
        serving = [
            rid
            for rid in self.router.active_replica_ids()
            if rid not in draining
        ]
        if len(serving) <= self.config.min_replicas:
            return None
        placement = self.router.status()["placement"]
        load: Dict[str, Tuple[int, int]] = {}
        for rid in serving:
            replica = self.router.replicas.get(rid)
            if replica is None:
                continue
            models = sum(1 for holders in placement.values() if rid in holders)
            load[rid] = (replica.outstanding, models)
        if not load:
            return None
        return min(sorted(load), key=lambda rid: load[rid])

    def _spawn(self):
        while True:
            rid = f"as{next(self._spawn_seq)}"
            if rid not in self.router.replicas:
                return self._factory(rid, int(rid[2:]))

    def _refill_prewarm(self) -> None:
        while len(self._prewarm) < self.config.prewarm_pool_size:
            elapsed = stopwatch()
            self._prewarm.append(self._spawn())
            self.router.metrics.histogram(
                "autoscaler.prewarm_spawn_ms", lo=1e-3
            ).observe(elapsed() * 1000.0)

    def _park_idle(self) -> None:
        ttl = self.config.idle_model_ttl_s
        for gid in self.router.idle_models(ttl):
            try:
                if self.router.park_model(gid):
                    self.router.metrics.counter(
                        "autoscaler.models_parked"
                    ).inc()
            except Exception:
                # No live holder to fetch from (mid-failover) — the
                # model is someone else's problem right now, not idle
                # capacity to reclaim.
                continue

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cost_snapshot(self) -> Dict[str, float]:
        with self._lock:
            self._account()
            return {
                "replica_seconds": self.replica_seconds,
                "prewarm_pool": float(len(self._prewarm)),
            }

    def decision_log(self) -> List[Dict[str, object]]:
        with self._lock:
            return list(self.decisions)
