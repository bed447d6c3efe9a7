"""Seeded, deterministic fault plans.

A :class:`FaultPlan` is the chaos counterpart of a telemetry session: a
single object installed globally (see :func:`repro.faults.install`) that
every named injection site consults.  Determinism is the design center —
whether a given invocation of a site faults is a *pure function* of
``(plan seed, site name, invocation index)``:

- probabilistic specs draw their uniform from a generator seeded with
  exactly that triple, so thread interleaving between sites cannot change
  any decision;
- scheduled specs (``at=(0, 3)``) fire at fixed invocation indices;
- the :class:`FaultLog` export is sorted by ``(site, index)``, so two runs
  whose sites are invoked the same number of times produce byte-identical
  logs regardless of thread timing.

Fault kinds are a closed vocabulary; what each kind *means* is defined by
the site that handles the decision (see ``docs/FAULTS.md`` for the site
catalogue):

========== ==========================================================
``latency``  stall the site for ``latency_s`` seconds, then proceed
``hang``     stall long enough to look dead (call timeouts fire)
``crash``    kill the executing process (a replica; the router fails over)
``drop``     swallow the site's result (nothing is ever reported back)
``corrupt``  deliver a mangled payload (NaN confidences) downstream
``error``    raise :class:`~repro.faults.errors.TransientServiceError`
========== ==========================================================
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: The closed set of fault kinds a spec may request.
LATENCY = "latency"
HANG = "hang"
CRASH = "crash"
DROP = "drop"
CORRUPT = "corrupt"
ERROR = "error"

FAULT_KINDS = frozenset({LATENCY, HANG, CRASH, DROP, CORRUPT, ERROR})


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: *at this site, fire this kind, this often*.

    Either ``probability`` (per-invocation Bernoulli, deterministic per
    index) or ``at`` (explicit invocation indices) — or both — select the
    invocations that fault.  ``max_injections`` caps the total number of
    times the spec fires; ``latency_s`` parameterizes ``latency``/``hang``.
    """

    site: str
    kind: str
    probability: float = 0.0
    at: Tuple[int, ...] = ()
    latency_s: float = 0.01
    max_injections: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("spec needs a site name")
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {sorted(FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.probability == 0.0 and not self.at:
            raise ValueError("spec fires never: give probability > 0 or at=(...)")
        if any(i < 0 for i in self.at):
            raise ValueError("schedule indices must be non-negative")
        if self.latency_s < 0:
            raise ValueError("latency_s must be non-negative")
        if self.max_injections is not None and self.max_injections < 1:
            raise ValueError("max_injections must be >= 1 when given")
        object.__setattr__(self, "at", tuple(sorted(set(self.at))))


@dataclass(frozen=True)
class FaultDecision:
    """One fired fault: which site invocation faulted, and how."""

    site: str
    index: int
    kind: str
    latency_s: float = 0.0


class FaultLog:
    """Thread-safe record of every fired fault, with deterministic export."""

    def __init__(self) -> None:
        self._decisions: List[FaultDecision] = []
        self._lock = threading.Lock()

    def append(self, decision: FaultDecision) -> None:
        with self._lock:
            self._decisions.append(decision)

    def decisions(self) -> List[FaultDecision]:
        with self._lock:
            return list(self._decisions)

    def counts(self) -> Dict[str, int]:
        """Fired faults per site."""
        out: Dict[str, int] = {}
        for d in self.decisions():
            out[d.site] = out.get(d.site, 0) + 1
        return dict(sorted(out.items()))

    def export_text(self) -> str:
        """One line per fired fault, sorted by ``(site, index)``.

        Sorting (not arrival order) is what makes the export byte-identical
        across runs: thread timing may reorder *when* decisions land in the
        log, but never *which* decisions are made.
        """
        rows = sorted(self.decisions(), key=lambda d: (d.site, d.index))
        return "\n".join(
            f"{d.site}\t{d.index}\t{d.kind}\t{d.latency_s:.6f}" for d in rows
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._decisions)

    def clear(self) -> None:
        with self._lock:
            self._decisions.clear()


def _site_uniform(seed: int, site: str, index: int) -> float:
    """The deterministic U[0,1) draw for one site invocation.

    ``zlib.crc32`` (not ``hash``) keys the site so the stream survives
    process restarts and ``PYTHONHASHSEED``.
    """
    return float(
        np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(site.encode()), index])
        .random()
    )


class FaultPlan:
    """A seeded set of :class:`FaultSpec` rules plus the log they feed.

    The plan is consulted through :meth:`decide`: each call accounts for one
    invocation of ``site`` and returns the fired :class:`FaultDecision` (the
    first matching spec wins, in spec order) or ``None``.  Decisions are
    recorded in :attr:`log` and — when a telemetry session is live — as
    ``faults.injected.*`` counters and ``fault-inject`` trace events.
    """

    def __init__(self, seed: int = 0, specs: Sequence[FaultSpec] = ()) -> None:
        self.seed = int(seed)
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.log = FaultLog()
        self._by_site: Dict[str, List[Tuple[int, FaultSpec]]] = {}
        for position, spec in enumerate(self.specs):
            self._by_site.setdefault(spec.site, []).append((position, spec))
        self._invocations: Dict[str, int] = {}
        self._fired: Dict[int, int] = {}  # spec position -> times fired
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def sites(self) -> List[str]:
        return sorted(self._by_site)

    def invocations(self, site: str) -> int:
        with self._lock:
            return self._invocations.get(site, 0)

    def reset(self) -> None:
        """Forget all counters and the log (specs and seed stay)."""
        with self._lock:
            self._invocations.clear()
            self._fired.clear()
        self.log.clear()

    # ------------------------------------------------------------------
    def decide(self, site: str) -> Optional[FaultDecision]:
        """Account one invocation of ``site``; maybe fire a fault."""
        specs = self._by_site.get(site)
        if not specs:
            return None
        with self._lock:
            index = self._invocations.get(site, 0)
            self._invocations[site] = index + 1
            decision: Optional[FaultDecision] = None
            for position, spec in specs:
                fired = self._fired.get(position, 0)
                if spec.max_injections is not None and fired >= spec.max_injections:
                    continue
                scheduled = index in spec.at
                drawn = (
                    spec.probability > 0.0
                    and _site_uniform(self.seed, site, index) < spec.probability
                )
                if not (scheduled or drawn):
                    continue
                self._fired[position] = fired + 1
                decision = FaultDecision(
                    site=site,
                    index=index,
                    kind=spec.kind,
                    latency_s=spec.latency_s
                    if spec.kind in (LATENCY, HANG)
                    else 0.0,
                )
                break
        if decision is not None:
            self.log.append(decision)
            self._record_telemetry(decision)
        return decision

    @staticmethod
    def _record_telemetry(decision: FaultDecision) -> None:
        from .. import telemetry

        tel = telemetry.active()
        if tel is None:
            return
        tel.registry.counter(f"faults.injected.{decision.site}").inc()
        tel.registry.counter(f"faults.injected.kind.{decision.kind}").inc()
        # A plan is process-wide and outlives any one episode, so a fired
        # fault is stamped from the telemetry session's clock.
        tel.trace.fault_inject(
            tel.now(), decision.site, decision.kind, decision.index
        )
