"""repro.admission — admission control and overload management.

The serving stack accepts work at three doors, and this package bounds
all of them (DeepRT-style admission control + DeepServe-style shedding,
see PAPERS.md, applied to the RTDeepIoT scheduler):

- **Service ingress** — :class:`AdmissionController` meters every gated
  endpoint with per-endpoint / per-model token buckets and concurrency
  limits; a refused request gets a typed
  :class:`~repro.service.messages.RejectedResponse` with a retry-after
  hint instead of silently queueing.
- **Scheduler queues** — :class:`AdmissionConfig` bounds the admitted-
  but-not-executing queue of the runtime and the simulator; excess work
  is degraded to an earlier exit stage (degrade-before-drop) and, past
  the hard bound, shed explicitly.
- **Which work to drop** — :mod:`repro.admission.shedding` ranks queued
  tasks by *expected utility* using the scheduler's own confidence
  predictions, so overload costs the least-valuable work first (the
  paper's utility objective, extended to the overloaded regime).

**Off by default.**  Every integration point is ``None``-guarded exactly
like :mod:`repro.telemetry` and :mod:`repro.faults`: with no controller
on the service and no :class:`AdmissionConfig` on a runtime/simulator
config, behaviour and performance are unchanged::

    from repro import admission

    service = EugeneService(
        admission=admission.AdmissionController(
            per_endpoint={"infer": admission.EndpointLimits(rate_per_s=50)},
            per_model={"m1": admission.EndpointLimits(max_concurrent=2)},
        )
    )
"""

from .config import AdmissionConfig
from .controller import (
    CONCURRENCY,
    NO_TENANT,
    OTHER_TENANTS,
    QUEUE_FULL,
    RATE_LIMIT,
    REJECT_REASONS,
    SHED,
    TENANT_QUOTA,
    AdmissionController,
    AdmissionDecision,
    EndpointLimits,
    TenantQuota,
)
from .limits import ConcurrencyLimiter, TokenBucket
from .shedding import (
    SHED_POLICIES,
    TAIL,
    UTILITY,
    expected_utility,
    reachable_stage,
    select_shed,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "EndpointLimits",
    "TenantQuota",
    "TokenBucket",
    "ConcurrencyLimiter",
    "expected_utility",
    "reachable_stage",
    "select_shed",
    "RATE_LIMIT",
    "CONCURRENCY",
    "QUEUE_FULL",
    "SHED",
    "TENANT_QUOTA",
    "NO_TENANT",
    "OTHER_TENANTS",
    "REJECT_REASONS",
    "SHED_POLICIES",
    "UTILITY",
    "TAIL",
]
