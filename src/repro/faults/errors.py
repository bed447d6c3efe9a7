"""Exception taxonomy of the fault-injection and resilience layer.

Two families:

- *Injected* faults — raised (or simulated) at a :func:`repro.faults.inject`
  site because the installed :class:`~repro.faults.plan.FaultPlan` decided
  to fire.  They model failures of the underlying system (a flaky network
  hop, a crashing worker process), not bugs in the caller.
- *Resilience* errors — raised by the recovery machinery itself when its
  budget runs out (retries exhausted, request deadline passed, circuit
  open).  These are the errors a well-behaved client surfaces to its user.
"""

from __future__ import annotations


class InjectedFault(RuntimeError):
    """Base class of every failure produced by an armed fault plan."""


class TransientServiceError(InjectedFault):
    """A retryable endpoint failure (the RPC analogue of a 503).

    :class:`~repro.faults.resilience.RetryPolicy` treats exactly this type
    (and its subclasses) as retryable; anything else propagates unchanged.
    """


class WorkerCrash(InjectedFault):
    """A worker dies mid-call (the generic ``crash`` of ``perform``)."""


class CorruptedPayload(InjectedFault):
    """A stage result arrived mangled (NaN confidences, wrong shapes)."""


class BackpressureError(RuntimeError):
    """A typed admission rejection (the RPC analogue of a 429).

    Raised client-side when the service answers with a
    :class:`~repro.service.messages.RejectedResponse` — not an injected
    fault and not a caller bug, but the service explicitly refusing work
    under overload.  :class:`~repro.faults.resilience.RetryPolicy` treats
    it as retryable and honours ``retry_after_s`` when backing off.
    """

    def __init__(
        self,
        message: str,
        retry_after_s: float = 0.0,
        reason: str = "overload",
        endpoint: str = "",
    ) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)
        self.reason = reason
        self.endpoint = endpoint

    def __reduce__(self):
        # Default exception pickling only replays ``args`` (the message),
        # silently resetting the typed fields; a rejection crossing the
        # process-replica boundary must keep its retry_after_s.
        return (
            type(self),
            (self.args[0], self.retry_after_s, self.reason, self.endpoint),
        )


class ResilienceError(RuntimeError):
    """Base class of errors raised when recovery budgets are exhausted."""


class RetriesExhaustedError(ResilienceError):
    """Every retry attempt failed; carries the last underlying error."""

    def __init__(self, message: str, last_error: Exception) -> None:
        super().__init__(message)
        self.last_error = last_error

    def __reduce__(self):
        # ``args`` holds only the message while ``__init__`` demands two
        # positionals — without this, unpickling (e.g. crossing the
        # process-replica boundary) raises TypeError instead of
        # reconstructing the error.
        return (type(self), (self.args[0], self.last_error))


class RequestTimeoutError(ResilienceError, TimeoutError):
    """The per-request time budget ran out before an attempt succeeded."""


class CircuitOpenError(ResilienceError):
    """The endpoint's circuit breaker is open; the call was not attempted."""
