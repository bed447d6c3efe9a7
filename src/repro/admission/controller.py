"""Admission decisions for the service ingress (per endpoint / model / tenant).

The controller is the front door of :class:`~repro.service.EugeneService`:
every gated endpoint asks it before doing any work.  The answer is a typed
:class:`AdmissionDecision` — never an exception and never a silent queue —
so a saturated service degrades into explicit, retry-hinted rejections
(:class:`~repro.service.messages.RejectedResponse` on the wire).

Limits compose: a request must clear the *tenant* limiter (when it carries
a tenant id and tenant quotas are configured), the *endpoint* limiter and,
when it names a model, the *model* limiter.  Each limiter is a token
bucket (sustained rate + burst) plus an optional concurrency bound.

**Tenancy (weighted-fair sharing).**  ``tenant_capacity_per_s`` declares a
total admission capacity C shared by the tenants in ``per_tenant``; each
declared tenant i holds a *guaranteed* bucket refilling at C·wᵢ/Σw, and a
shared *borrow* bucket refills at C.  A request is admitted if its
tenant's own bucket yields a token (its guaranteed share — never blocked
by other tenants), or, when ``work_conserving``, if the borrow bucket does
(capacity other tenants left idle).  An abusive tenant can therefore burn
only the *spare* capacity, never another tenant's guaranteed share —
that's the isolation property ``make isolation`` gates.

Telemetry (when enabled) counts admissions and rejections per key and
traces each rejection with its retry-after hint, stamped from the
controller's injected ``clock``.  Tenant-labelled counter names pass
through a :class:`~repro.telemetry.metrics.BoundedLabels` space so
unbounded tenant cardinality cannot grow the registry without bound; the
controller's own per-tenant accounting (:meth:`tenant_stats`) stays exact
for every declared tenant and aggregates undeclared overflow under
``__other__`` so totals always reconcile.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .. import telemetry
from ..clock import MONOTONIC, Clock
from ..telemetry.metrics import BoundedLabels
from .limits import ConcurrencyLimiter, TokenBucket

#: Rejection reasons carried by decisions and :class:`RejectedResponse`.
RATE_LIMIT = "rate-limit"
CONCURRENCY = "concurrency"
QUEUE_FULL = "queue-full"
SHED = "shed"
TENANT_QUOTA = "tenant-quota"
REJECT_REASONS = (RATE_LIMIT, CONCURRENCY, QUEUE_FULL, SHED, TENANT_QUOTA)

#: Accounting key for requests that carry no tenant id.
NO_TENANT = "__none__"
#: Accounting key aggregating undeclared tenants past ``max_tenant_keys``.
OTHER_TENANTS = "__other__"


@dataclass(frozen=True)
class EndpointLimits:
    """Ingress limits for one admission key (an endpoint or a model)."""

    #: sustained admission rate; ``None`` = unlimited.
    rate_per_s: Optional[float] = None
    #: bucket size (burst tolerance); defaults to ``max(1, rate_per_s)``.
    burst: Optional[float] = None
    #: concurrent requests past admission; ``None`` = unlimited.
    max_concurrent: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive when given")
        if self.burst is not None:
            if self.rate_per_s is None:
                raise ValueError("burst requires rate_per_s")
            if self.burst < 1:
                raise ValueError("burst must allow at least one request")
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1 when given")

    @property
    def unlimited(self) -> bool:
        return self.rate_per_s is None and self.max_concurrent is None


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's share of the controller's tenant capacity.

    ``weight`` sets the guaranteed fraction of ``tenant_capacity_per_s``
    (wᵢ/Σw); ``rate_per_s``/``burst`` optionally cap the tenant's *total*
    admission rate (guaranteed + borrowed) below its fair reach, and
    ``max_concurrent`` bounds its in-flight requests.
    """

    weight: float = 1.0
    rate_per_s: Optional[float] = None
    burst: Optional[float] = None
    max_concurrent: Optional[int] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive when given")
        if self.burst is not None:
            if self.rate_per_s is None:
                raise ValueError("burst requires rate_per_s")
            if self.burst < 1:
                raise ValueError("burst must allow at least one request")
        if self.max_concurrent is not None and self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1 when given")


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    key: str
    reason: Optional[str] = None
    #: hint for the client's retry-after aware RetryPolicy; 0 = retry freely.
    retry_after_s: float = 0.0
    #: True when the request was admitted on borrowed (idle) capacity
    #: rather than its tenant's guaranteed share.
    borrowed: bool = False


class _KeyState:
    """The live limiters for one admission key."""

    __slots__ = ("bucket", "concurrency")

    def __init__(self, limits: EndpointLimits) -> None:
        self.bucket = (
            TokenBucket(limits.rate_per_s, limits.burst)
            if limits.rate_per_s is not None
            else None
        )
        self.concurrency = (
            ConcurrencyLimiter(limits.max_concurrent)
            if limits.max_concurrent is not None
            else None
        )


class _TenantState:
    """The live limiters for one tenant."""

    __slots__ = ("guaranteed", "ceiling", "concurrency")

    def __init__(
        self,
        guaranteed_rate: Optional[float],
        quota: TenantQuota,
    ) -> None:
        self.guaranteed = (
            TokenBucket(guaranteed_rate) if guaranteed_rate is not None else None
        )
        self.ceiling = (
            TokenBucket(quota.rate_per_s, quota.burst)
            if quota.rate_per_s is not None
            else None
        )
        self.concurrency = (
            ConcurrencyLimiter(quota.max_concurrent)
            if quota.max_concurrent is not None
            else None
        )


class _TenantCounts:
    """Exact per-tenant accounting (independent of telemetry)."""

    __slots__ = ("admitted", "rejected", "borrowed")

    def __init__(self) -> None:
        self.admitted = 0
        self.rejected = 0
        self.borrowed = 0


class AdmissionController:
    """Checks (and meters) every gated request against its limits.

    ``default`` applies to every endpoint without an explicit entry in
    ``per_endpoint``; ``per_model`` keys are model ids.  A ``None`` default
    leaves unlisted endpoints ungated.

    ``clock`` supplies the decision time handed to every internal token
    bucket and stamped onto rejection trace events; virtual-time callers
    (the workload engine) pass ``now=`` to :meth:`admit` instead.
    """

    def __init__(
        self,
        default: Optional[EndpointLimits] = None,
        per_endpoint: Optional[Dict[str, EndpointLimits]] = None,
        per_model: Optional[Dict[str, EndpointLimits]] = None,
        retry_after_floor_s: float = 0.01,
        per_tenant: Optional[Dict[str, TenantQuota]] = None,
        tenant_default: Optional[TenantQuota] = None,
        tenant_capacity_per_s: Optional[float] = None,
        tenant_capacity_burst: Optional[float] = None,
        work_conserving: bool = True,
        clock: Clock = MONOTONIC,
        max_tenant_keys: int = 1024,
    ) -> None:
        if retry_after_floor_s < 0:
            raise ValueError("retry_after_floor_s must be non-negative")
        if tenant_capacity_per_s is not None and tenant_capacity_per_s <= 0:
            raise ValueError("tenant_capacity_per_s must be positive when given")
        if tenant_capacity_burst is not None and tenant_capacity_burst < 1:
            raise ValueError("tenant_capacity_burst must be >= 1 when given")
        if max_tenant_keys < 1:
            raise ValueError("max_tenant_keys must be >= 1")
        self.default = default
        self.per_endpoint = dict(per_endpoint or {})
        self.per_model = dict(per_model or {})
        self.retry_after_floor_s = retry_after_floor_s
        self.per_tenant = dict(per_tenant or {})
        self.tenant_default = tenant_default
        self.tenant_capacity_per_s = tenant_capacity_per_s
        self.tenant_capacity_burst = tenant_capacity_burst
        self.work_conserving = work_conserving
        self.max_tenant_keys = max_tenant_keys
        self._clock = clock
        self._states: Dict[Tuple[str, str], _KeyState] = {}
        #: hot-path cache: (scope, key) -> resolved state (None = ungated);
        #: a lock-free dict read replacing limit lookup + lock per call.
        self._resolved: Dict[Tuple[str, str], Optional[_KeyState]] = {}
        self._lock = threading.Lock()
        # --- tenancy -------------------------------------------------
        self._tenant_states: Dict[str, _TenantState] = {}
        self._tenant_stats: Dict[str, _TenantCounts] = {}
        self._tenant_lock = threading.Lock()
        self._tenant_labels = BoundedLabels(max_tenant_keys)
        total_w = sum(q.weight for q in self.per_tenant.values())
        self._total_weight = total_w
        self._borrow = (
            TokenBucket(tenant_capacity_per_s, burst=tenant_capacity_burst)
            if tenant_capacity_per_s is not None
            else None
        )
        #: per-session cached Counter objects (registry.counter takes the
        #: registry lock on every call; this skips it on the hot path).
        self._counters: Dict[str, Tuple[object, object]] = {}

    # ------------------------------------------------------------------
    def _counter(self, tel, name: str):
        entry = self._counters.get(name)
        if entry is not None and entry[0] is tel:
            return entry[1]
        counter = tel.registry.counter(name)
        self._counters[name] = (tel, counter)
        return counter

    def _limits_for(self, scope: str, key: str) -> Optional[EndpointLimits]:
        if scope == "model":
            return self.per_model.get(key)
        return self.per_endpoint.get(key, self.default)

    def _state_for(self, scope: str, key: str) -> Optional[_KeyState]:
        cache_key = (scope, key)
        try:
            return self._resolved[cache_key]
        except KeyError:
            pass
        limits = self._limits_for(scope, key)
        if limits is None or limits.unlimited:
            self._resolved[cache_key] = None
            return None
        with self._lock:
            state = self._states.get(cache_key)
            if state is None:
                state = self._states[cache_key] = _KeyState(limits)
            self._resolved[cache_key] = state
            return state

    def invalidate_cache(self) -> None:
        """Drop pre-resolved states after mutating the limit tables."""
        self._resolved.clear()

    # ------------------------------------------------------------------
    def _tenant_key(self, tenant: Optional[str]) -> str:
        """Accounting key for a tenant id (bounded; exact for declared)."""
        if tenant is None:
            return NO_TENANT
        if tenant in self.per_tenant:
            return tenant
        with self._tenant_lock:
            if tenant in self._tenant_stats:
                return tenant
            if len(self._tenant_stats) < self.max_tenant_keys:
                return tenant
        return OTHER_TENANTS

    def _tenant_state_for(self, tenant: str) -> Optional[_TenantState]:
        state = self._tenant_states.get(tenant)
        if state is not None:
            return state
        quota = self.per_tenant.get(tenant)
        declared = quota is not None
        if quota is None:
            quota = self.tenant_default
        if quota is None and self._borrow is None:
            return None
        if quota is None:
            quota = TenantQuota()
        guaranteed_rate = None
        if (
            declared
            and self.tenant_capacity_per_s is not None
            and self._total_weight > 0
        ):
            guaranteed_rate = (
                self.tenant_capacity_per_s * quota.weight / self._total_weight
            )
        with self._tenant_lock:
            state = self._tenant_states.get(tenant)
            if state is None:
                if (
                    not declared
                    and len(self._tenant_states) >= self.max_tenant_keys
                ):
                    # Undeclared tenants past the bound share one state.
                    state = self._tenant_states.get(OTHER_TENANTS)
                    if state is None:
                        state = self._tenant_states[OTHER_TENANTS] = _TenantState(
                            None, quota
                        )
                else:
                    state = self._tenant_states[tenant] = _TenantState(
                        guaranteed_rate, quota
                    )
            return state

    def _account(self, tenant: Optional[str], admitted: bool, borrowed: bool) -> str:
        key = self._tenant_key(tenant)
        with self._tenant_lock:
            counts = self._tenant_stats.get(key)
            if counts is None:
                counts = self._tenant_stats[key] = _TenantCounts()
            if admitted:
                counts.admitted += 1
                if borrowed:
                    counts.borrowed += 1
            else:
                counts.rejected += 1
        return key

    def tenant_stats(self) -> Dict[str, Dict[str, int]]:
        """Exact per-tenant admission accounting since construction.

        The sums of ``admitted`` and ``rejected`` across all keys
        (including ``__none__`` and ``__other__``) equal the controller's
        totals — nothing is sampled or dropped.
        """
        with self._tenant_lock:
            return {
                t: {
                    "admitted": c.admitted,
                    "rejected": c.rejected,
                    "borrowed": c.borrowed,
                }
                for t, c in self._tenant_stats.items()
            }

    # ------------------------------------------------------------------
    def _reject(
        self, key: str, reason: str, retry_after_s: float, now: float
    ) -> AdmissionDecision:
        retry_after_s = max(retry_after_s, self.retry_after_floor_s)
        tel = telemetry.active()
        if tel is not None:
            self._counter(tel, f"admission.rejected.{key}").inc()
            self._counter(tel, f"admission.rejected_by_reason.{reason}").inc()
            tel.trace.admission_reject(now, key, reason, retry_after_s)
        return AdmissionDecision(
            admitted=False, key=key, reason=reason, retry_after_s=retry_after_s
        )

    def _admit_tenant(
        self, tenant: Optional[str], now: float
    ) -> Tuple[Optional[AdmissionDecision], bool, Optional[_TenantState]]:
        """Run the tenant gate; returns (rejection, borrowed, state)."""
        if tenant is None:
            return None, False, None
        state = self._tenant_state_for(tenant)
        if state is None:
            return None, False, None
        label = f"tenant:{self._tenant_labels.resolve(tenant)}"
        if state.ceiling is not None and not state.ceiling.try_acquire(now=now):
            return (
                self._reject(
                    label, TENANT_QUOTA, state.ceiling.retry_after(now=now), now
                ),
                False,
                state,
            )
        if state.concurrency is not None and not state.concurrency.try_acquire():
            return (
                self._reject(label, TENANT_QUOTA, self.retry_after_floor_s, now),
                False,
                state,
            )
        borrowed = False
        if state.guaranteed is not None:
            if state.guaranteed.try_acquire(now=now):
                # Own share: debt-charge the shared pool (the balance may
                # go negative) so borrowers only ever see capacity that is
                # genuinely unused — a best-effort charge that fails when
                # the pool is drained would let guaranteed + borrowed
                # admissions exceed the configured capacity.
                if self._borrow is not None:
                    self._borrow.charge(now=now)
            elif (
                self.work_conserving
                and self._borrow is not None
                and self._borrow.try_acquire(now=now)
            ):
                borrowed = True
            else:
                if state.concurrency is not None:
                    state.concurrency.release()
                retry = state.guaranteed.retry_after(now=now)
                if self.work_conserving and self._borrow is not None:
                    retry = min(retry, self._borrow.retry_after(now=now))
                return self._reject(label, TENANT_QUOTA, retry, now), False, state
        elif self._borrow is not None:
            # Undeclared tenant with no guaranteed share: borrow only.
            if self.work_conserving and self._borrow.try_acquire(now=now):
                borrowed = True
            else:
                if state.concurrency is not None:
                    state.concurrency.release()
                return (
                    self._reject(
                        label,
                        TENANT_QUOTA,
                        self._borrow.retry_after(now=now),
                        now,
                    ),
                    False,
                    state,
                )
        return None, borrowed, state

    # ------------------------------------------------------------------
    def admit(
        self,
        endpoint: str,
        model_id: Optional[str] = None,
        tenant: Optional[str] = None,
        now: Optional[float] = None,
    ) -> AdmissionDecision:
        """Admit or reject one request; admitted requests hold one
        concurrency slot per matched limiter until :meth:`release`.

        ``now`` overrides the controller clock for this decision
        (virtual-time callers pass their own timeline; all internal
        buckets and the rejection trace see the same timestamp).
        """
        ts = self._clock.now() if now is None else now
        gated_tenant = tenant is not None and (
            self.per_tenant
            or self.tenant_default is not None
            or self._borrow is not None
        )
        tenant_state: Optional[_TenantState] = None
        borrowed = False
        if gated_tenant:
            rejection, borrowed, tenant_state = self._admit_tenant(tenant, ts)
            if rejection is not None:
                self._account(tenant, admitted=False, borrowed=False)
                return rejection
        checks = [("endpoint", endpoint)]
        if model_id is not None:
            checks.append(("model", model_id))
        acquired = []
        for scope, key in checks:
            state = self._state_for(scope, key)
            if state is None:
                continue
            label = key if scope == "endpoint" else f"model:{key}"
            if state.bucket is not None and not state.bucket.try_acquire(now=ts):
                decision = self._reject(
                    label, RATE_LIMIT, state.bucket.retry_after(now=ts), ts
                )
                break
            if state.concurrency is not None and not state.concurrency.try_acquire():
                decision = self._reject(
                    label, CONCURRENCY, self.retry_after_floor_s, ts
                )
                break
            acquired.append(state)
        else:
            tel = telemetry.active()
            if tel is not None:
                self._counter(tel, f"admission.admitted.{endpoint}").inc()
                if gated_tenant:
                    bounded = self._tenant_labels.resolve(tenant)
                    self._counter(
                        tel, f"admission.tenant_admitted.{bounded}"
                    ).inc()
            if gated_tenant:
                self._account(tenant, admitted=True, borrowed=borrowed)
            elif tenant is not None:
                self._account(tenant, admitted=True, borrowed=False)
            return AdmissionDecision(
                admitted=True, key=endpoint, borrowed=borrowed
            )
        # Roll back concurrency slots taken before the failing check.
        for state in acquired:
            if state.concurrency is not None:
                state.concurrency.release()
        if tenant_state is not None and tenant_state.concurrency is not None:
            tenant_state.concurrency.release()
        if tenant is not None:
            self._account(tenant, admitted=False, borrowed=False)
        return decision

    def release(
        self,
        endpoint: str,
        model_id: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> None:
        """Return the concurrency slots an admitted request held."""
        checks = [("endpoint", endpoint)]
        if model_id is not None:
            checks.append(("model", model_id))
        for scope, key in checks:
            state = self._state_for(scope, key)
            if state is not None and state.concurrency is not None:
                state.concurrency.release()
        if tenant is not None:
            tstate = self._tenant_states.get(tenant) or (
                self._tenant_states.get(OTHER_TENANTS)
            )
            if tstate is not None and tstate.concurrency is not None:
                tstate.concurrency.release()

    # ------------------------------------------------------------------
    def in_flight(self, endpoint: str) -> int:
        """Requests currently past admission for ``endpoint`` (0 if the
        endpoint has no concurrency limiter)."""
        state = self._state_for("endpoint", endpoint)
        if state is None or state.concurrency is None:
            return 0
        return state.concurrency.in_flight
