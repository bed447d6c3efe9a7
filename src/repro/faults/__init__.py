"""repro.faults — deterministic fault injection + the resilience layer.

Eugene's pitch is *predictable* intelligence-as-a-service; this package
provides the machinery that lets the test suite prove the serving stack
keeps its promises when the substrate misbehaves:

- :class:`FaultPlan` / :class:`FaultSpec` — a seeded, deterministic plan
  of faults (latency spikes, hangs, replica crashes, dropped responses,
  corrupted payloads, transient errors) fired at *named sites* in the
  runtime, the service endpoints, the cluster replicas and the client;
- :class:`RetryPolicy` / :class:`CircuitBreaker` — the client-side
  recovery the injections exercise;
- :func:`install` / :func:`uninstall` / :func:`active` /
  :func:`plan_session` — the global session, mirroring
  :mod:`repro.telemetry`.

**Disarmed by default.**  Every injection site reduces to one
module-attribute read and a ``None`` check when no plan is installed, so
the serving fast path (guarded by ``make bench-fast``) is untouched until a plan is explicitly armed::

    from repro import faults

    plan = faults.FaultPlan(seed=7, specs=[
        faults.FaultSpec("runtime.stage", faults.CORRUPT, at=(1,)),
        faults.FaultSpec("service.classify", faults.ERROR, probability=0.3),
    ])
    with faults.plan_session(plan):
        ... drive the stack; inspect plan.log ...
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from ..clock import MONOTONIC
from .errors import (
    BackpressureError,
    CircuitOpenError,
    CorruptedPayload,
    InjectedFault,
    RequestTimeoutError,
    ResilienceError,
    RetriesExhaustedError,
    TransientServiceError,
    WorkerCrash,
)
from .plan import (
    CORRUPT,
    CRASH,
    DROP,
    ERROR,
    FAULT_KINDS,
    HANG,
    LATENCY,
    FaultDecision,
    FaultLog,
    FaultPlan,
    FaultSpec,
)
from .resilience import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, RetryPolicy

#: The module-global plan; ``None`` means injection is disarmed.  Sites
#: read this exactly once per invocation (via :func:`active`).
_plan: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` globally; replaces any previously installed plan."""
    global _plan
    _plan = plan
    return plan


def uninstall() -> None:
    """Disarm injection; every site reverts to a no-op."""
    global _plan
    _plan = None


def active() -> Optional[FaultPlan]:
    """The armed plan, or ``None`` when injection is disarmed."""
    return _plan


def armed() -> bool:
    return _plan is not None


@contextmanager
def plan_session(plan: Optional[FaultPlan] = None) -> Iterator[FaultPlan]:
    """Arm a plan for a scope, restoring the prior state on exit."""
    global _plan
    previous = _plan
    _plan = plan if plan is not None else FaultPlan()
    try:
        yield _plan
    finally:
        _plan = previous


def inject(site: str) -> Optional[FaultDecision]:
    """Consult the armed plan at ``site``; the disarmed fast path is one
    global read and a ``None`` check."""
    plan = _plan
    if plan is None:
        return None
    return plan.decide(site)


def perform(decision: Optional[FaultDecision]) -> Optional[FaultDecision]:
    """Apply the *generic* behaviours of a decision at the current site.

    ``latency``/``hang`` sleep; ``error`` raises
    :class:`TransientServiceError`; ``crash`` raises :class:`WorkerCrash`.
    ``drop`` and ``corrupt`` are returned unhandled — their meaning is
    site-specific (what exactly gets swallowed or mangled), so the call
    site must act on them itself.
    """
    if decision is None:
        return None
    if decision.kind in (LATENCY, HANG):
        MONOTONIC.sleep(decision.latency_s)
        return None
    if decision.kind == ERROR:
        raise TransientServiceError(
            f"injected transient error at {decision.site} "
            f"(invocation {decision.index})"
        )
    if decision.kind == CRASH:
        raise WorkerCrash(
            f"injected worker crash at {decision.site} "
            f"(invocation {decision.index})"
        )
    return decision


def endpoint(site: str) -> Callable:
    """Decorator arming a service endpoint as an injection site.

    Stacks *under* ``@telemetry.timed`` so injected errors are counted by
    the endpoint's ``service.errors.*`` telemetry.  Only the generic kinds
    make sense at an endpoint boundary: ``latency``/``hang`` stall the
    call, ``error`` raises a retryable :class:`TransientServiceError`.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            plan = _plan
            if plan is not None:
                perform(plan.decide(site))
            return fn(*args, **kwargs)

        return wrapper

    return decorate


__all__ = [
    # plan
    "FaultPlan",
    "FaultSpec",
    "FaultDecision",
    "FaultLog",
    "FAULT_KINDS",
    "LATENCY",
    "HANG",
    "CRASH",
    "DROP",
    "CORRUPT",
    "ERROR",
    # session
    "install",
    "uninstall",
    "active",
    "armed",
    "plan_session",
    "inject",
    "perform",
    "endpoint",
    # resilience
    "RetryPolicy",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    # errors
    "InjectedFault",
    "TransientServiceError",
    "WorkerCrash",
    "CorruptedPayload",
    "ResilienceError",
    "RetriesExhaustedError",
    "RequestTimeoutError",
    "CircuitOpenError",
    "BackpressureError",
]
