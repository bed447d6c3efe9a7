"""repro.workload — million-request workload engine with tenancy.

The north star claims "heavy traffic from millions of users"; this
package is the layer that makes the claim testable instead of a slogan
(IBM Deep Learning Service — PAPERS.md — is the reference shape for the
multi-tenant cloud tier):

- :mod:`repro.workload.tenants` — tenant populations: per-tenant arrival
  rates, fair-share weights and endpoint mixes over all 11 service
  endpoints.
- :mod:`repro.workload.trace` — seeded trace generators (inhomogeneous
  Poisson by thinning): diurnal cycles, MMPP bursts and correlated flash
  crowds, producing packed numpy arrival arrays that scale to millions
  of requests.
- :mod:`repro.workload.engine` — a purpose-built discrete-event
  simulator pushing a trace through the *real*
  :class:`~repro.admission.AdmissionController` on virtual time, with
  deficit-round-robin dispatch and per-tenant latency/goodput/shed
  accounting.  ≥10⁶ requests in seconds of wall clock.
- :mod:`repro.workload.driver` — the live half: the same trace replayed
  against a real :func:`~repro.cluster.make_cluster` router through
  tenant-stamped :class:`~repro.service.EugeneClient`\\ s, with exact
  per-tenant accounting cross-checked against the router's
  ``cluster_snapshot()``.

The isolation experiment (:mod:`repro.experiments.isolation`, gated by
``make isolation``) composes all four: it proves one abusive tenant at
10x its quota cannot degrade a compliant tenant's p99 by more than 25%
nor its goodput by more than 5% versus running alone.
"""

from .driver import ClusterDriver, DriverReport, TenantOutcome
from .engine import EngineConfig, TenantReport, WorkloadEngine, WorkloadReport
from .tenants import ENDPOINTS, TenantSpec, uniform_mix
from .trace import FlashCrowd, Trace, generate_trace

__all__ = [
    "ENDPOINTS",
    "TenantSpec",
    "uniform_mix",
    "FlashCrowd",
    "Trace",
    "generate_trace",
    "EngineConfig",
    "WorkloadEngine",
    "WorkloadReport",
    "TenantReport",
    "ClusterDriver",
    "DriverReport",
    "TenantOutcome",
]
