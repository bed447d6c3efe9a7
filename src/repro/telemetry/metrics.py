"""Metric instruments: counters, gauges and streaming histograms.

The serving paths of this repo are measured by three instrument kinds,
mirroring what production inference services (IBM DLaaS, DeepServe — see
PAPERS.md) expose per request:

- :class:`Counter` — monotone accumulator (requests served, deadline
  misses, utility accrued).  Float increments are allowed so confidence
  utility can accrue directly.
- :class:`Gauge` — last-written value (current queue depth).
- :class:`Histogram` — streaming quantile sketch over log-spaced buckets:
  p50/p95/p99 (any quantile, in fact) without storing samples, with
  relative error bounded by the bucket growth factor (~5% by default).

Everything is dependency-free and thread-safe: worker threads in
:class:`~repro.scheduler.runtime.StagedInferenceRuntime` observe stage
latencies concurrently with the scheduler thread updating queue gauges.

Two cluster-tier guarantees live here too:

- **Read consistency.**  Every instrument a :class:`MetricsRegistry`
  creates shares the registry's single lock, so :meth:`MetricsRegistry.
  snapshot` and :meth:`MetricsRegistry.merge` capture *all* instruments
  at one instant: a writer that increments counter A before counter B
  can never be observed with B ahead of A.  Process-backed replicas ship
  snapshots back asynchronously, which is exactly when a torn multi-
  instrument read would otherwise go unnoticed.
- **Picklability.**  Instruments and registries drop their locks on
  pickle (capturing a consistent state) and grow fresh ones on unpickle,
  so a child process can send its whole registry through a pipe and the
  router can fold it into the cluster view with :meth:`merge`.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple


class Counter:
    """Monotonically increasing accumulator (float-valued)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge instead")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def __getstate__(self):
        with self._lock:
            return {"name": self.name, "value": self._value}

    def __setstate__(self, state) -> None:
        self.name = state["name"]
        self._value = state["value"]
        self._lock = threading.Lock()


class Gauge:
    """Last-written value (may move in either direction)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def __getstate__(self):
        with self._lock:
            return {"name": self.name, "value": self._value}

    def __setstate__(self, state) -> None:
        self.name = state["name"]
        self._value = state["value"]
        self._lock = threading.Lock()


def _quantile_of_state(state: Dict[str, object], q: float) -> float:
    """The quantile walk over a captured histogram state (lock-free)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    count = state["count"]
    if count == 0:
        return math.nan
    lo = state["lo"]
    growth = state["growth"]
    buckets: Dict[int, int] = state["buckets"]
    rank = q * count
    cumulative = float(state["underflow"])
    if cumulative >= rank and state["underflow"]:
        return min(lo, state["max"])
    for index in sorted(buckets):
        n = buckets[index]
        if cumulative + n >= rank:
            lower = lo * growth ** index
            upper = lower * growth
            fraction = (rank - cumulative) / n
            estimate = lower + fraction * (upper - lower)
            return max(state["min"], min(state["max"], estimate))
        cumulative += n
    return state["max"]


def _summary_of_state(
    state: Dict[str, object], ps: Tuple[float, ...] = (50.0, 95.0, 99.0)
) -> Dict[str, float]:
    count = state["count"]
    out: Dict[str, float] = {
        "count": float(count),
        "sum": state["sum"],
        "mean": state["sum"] / count if count else math.nan,
        "min": state["min"] if count else math.nan,
        "max": state["max"] if count else math.nan,
    }
    for p in ps:
        out[f"p{p:g}"] = _quantile_of_state(state, p / 100.0)
    return out


class Histogram:
    """Streaming quantile estimator over geometric buckets.

    Values are binned into buckets ``[lo * g^i, lo * g^(i+1))``; a quantile
    is answered by walking the cumulative bucket counts and interpolating
    linearly inside the target bucket, then clamping to the exact observed
    ``[min, max]``.  Memory is O(occupied buckets), never O(samples), and
    the relative error of any quantile is at most ``growth - 1``.

    Values at or below zero land in a dedicated underflow bucket (latency
    instruments never produce them, but the sketch must not crash on a
    zero-duration timer tick).
    """

    __slots__ = (
        "name", "_lo", "_log_growth", "_growth", "_buckets", "_underflow",
        "_count", "_sum", "_min", "_max", "_lock",
    )

    def __init__(
        self,
        name: str,
        lo: float = 1e-6,
        growth: float = 1.05,
        lock: Optional[threading.Lock] = None,
    ) -> None:
        if lo <= 0:
            raise ValueError("lo must be positive")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.name = name
        self._lo = lo
        self._growth = growth
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}
        self._underflow = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = lock if lock is not None else threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value <= self._lo:
                self._underflow += 1
                return
            index = int(math.log(value / self._lo) / self._log_growth)
            self._buckets[index] = self._buckets.get(index, 0) + 1

    def _state_locked(self) -> Dict[str, object]:
        """Raw state capture; the caller must hold ``self._lock``."""
        return {
            "lo": self._lo,
            "growth": self._growth,
            "buckets": dict(self._buckets),
            "underflow": self._underflow,
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
        }

    def _state(self) -> Dict[str, object]:
        with self._lock:
            return self._state_locked()

    def _apply_state(self, state: Dict[str, object]) -> None:
        """Fold a captured state into this sketch (the merge primitive)."""
        if state["lo"] != self._lo or state["growth"] != self._growth:
            raise ValueError(
                "histograms with different bucket layouts cannot be merged "
                f"(lo {self._lo:g}/{state['lo']:g}, "
                f"growth {self._growth:g}/{state['growth']:g})"
            )
        with self._lock:
            for index, n in state["buckets"].items():
                self._buckets[index] = self._buckets.get(index, 0) + n
            self._underflow += state["underflow"]
            self._count += state["count"]
            self._sum += state["sum"]
            if state["min"] < self._min:
                self._min = state["min"]
            if state["max"] > self._max:
                self._max = state["max"]

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        """Mean of all observations; ``nan`` before the first one."""
        with self._lock:
            return self._sum / self._count if self._count else math.nan

    @property
    def min(self) -> float:
        """Smallest observation; ``nan`` before the first one."""
        with self._lock:
            return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        """Largest observation; ``nan`` before the first one."""
        with self._lock:
            return self._max if self._count else math.nan

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile of everything observed so far.

        An empty histogram has no quantiles: the documented sentinel is
        ``nan`` (never a fabricated 0.0, which reads as a real latency).
        """
        return _quantile_of_state(self._state(), q)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram, in place.

        The multi-replica aggregation primitive: each replica keeps its own
        sketch and the cluster view is the merge.  Bucket semantics are
        preserved exactly — merged counts are the per-bucket sums, so any
        quantile of the merge carries the same bounded relative error as a
        single sketch would have over the union of observations.  Both
        sketches must share ``lo`` and ``growth`` (the bucket boundaries),
        otherwise counts cannot be combined without re-binning.
        """
        if not isinstance(other, Histogram):
            raise TypeError("can only merge another Histogram")
        # Snapshot under the source lock first, then apply under ours —
        # never hold both locks at once, so concurrent a.merge(b) /
        # b.merge(a) cannot deadlock.
        self._apply_state(other._state())
        return self

    def percentiles(self, ps: Tuple[float, ...] = (50.0, 95.0, 99.0)) -> Dict[str, float]:
        state = self._state()
        return {f"p{p:g}": _quantile_of_state(state, p / 100.0) for p in ps}

    def summary(self) -> Dict[str, float]:
        """count/sum/mean/min/max plus the standard latency quantiles.

        On an empty histogram every statistic except ``count``/``sum`` is
        the ``nan`` sentinel (see :meth:`quantile`).
        """
        return _summary_of_state(self._state())

    def __getstate__(self):
        return {"name": self.name, "state": self._state()}

    def __setstate__(self, payload) -> None:
        state = payload["state"]
        self.name = payload["name"]
        self._lo = state["lo"]
        self._growth = state["growth"]
        self._log_growth = math.log(self._growth)
        self._buckets = dict(state["buckets"])
        self._underflow = state["underflow"]
        self._count = state["count"]
        self._sum = state["sum"]
        self._min = state["min"]
        self._max = state["max"]
        self._lock = threading.Lock()


class BoundedLabels:
    """A bounded label space with an overflow bucket.

    Metric names in this repo embed identifiers (``admission.rejected.
    {key}``, per-replica metrics) — fine while keys are endpoints or model
    ids, but tenant ids are caller-controlled and unbounded: a million
    distinct tenants would mint a million registry instruments and OOM
    the process.  ``resolve`` admits the first ``capacity`` distinct
    labels verbatim and maps every later novel label onto ``overflow``
    (default ``__other__``), so the registry's cardinality is bounded by
    construction while the heavy hitters that arrive early keep their own
    series.
    """

    __slots__ = ("capacity", "overflow", "_known", "_overflowed", "_lock")

    def __init__(self, capacity: int, overflow: str = "__other__") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.overflow = overflow
        self._known: Dict[str, str] = {}
        self._overflowed = 0
        self._lock = threading.Lock()

    def resolve(self, label: str) -> str:
        """The bounded form of ``label`` (itself, or the overflow bucket)."""
        known = self._known.get(label)
        if known is not None:
            return known
        with self._lock:
            known = self._known.get(label)
            if known is not None:
                return known
            if len(self._known) < self.capacity:
                self._known[label] = label
                return label
            self._overflowed += 1
            return self.overflow

    @property
    def overflowed(self) -> int:
        """Distinct novel labels that landed in the overflow bucket."""
        with self._lock:
            return self._overflowed

    def known(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._known)


class MetricsRegistry:
    """Thread-safe get-or-create home of every named instrument.

    All instruments created through a registry share its lock, which is
    what makes :meth:`snapshot` and :meth:`merge` *read-consistent*: the
    capture happens in one critical section, so no concurrently running
    writer can be observed half-way through a multi-instrument update.
    The per-operation cost is unchanged (one uncontended lock acquire,
    same as the previous per-instrument locks).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name, lock=self._lock)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name, lock=self._lock)
            return instrument

    def histogram(self, name: str, lo: float = 1e-6, growth: float = 1.05) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name, lo=lo, growth=growth, lock=self._lock
                )
            return instrument

    # -- read side -----------------------------------------------------
    def _capture_locked(self) -> Dict[str, Dict]:
        """Raw consistent capture; the caller must hold ``self._lock``.

        Reads instrument internals directly — every registry-created
        instrument shares this lock, so taking it once freezes all of
        them simultaneously (no torn cross-instrument reads).
        """
        return {
            "counters": {n: c._value for n, c in self._counters.items()},
            "gauges": {n: g._value for n, g in self._gauges.items()},
            "histograms": {
                n: h._state_locked() for n, h in self._histograms.items()
            },
        }

    def _capture(self) -> Dict[str, Dict]:
        with self._lock:
            return self._capture_locked()

    def counters(self) -> Dict[str, float]:
        with self._lock:
            values = {n: c._value for n, c in self._counters.items()}
        return dict(sorted(values.items()))

    def gauges(self) -> Dict[str, float]:
        with self._lock:
            values = {n: g._value for n, g in self._gauges.items()}
        return dict(sorted(values.items()))

    def histograms(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            states = {n: h._state_locked() for n, h in self._histograms.items()}
        return {n: _summary_of_state(s) for n, s in sorted(states.items())}

    def snapshot(self) -> Dict[str, Dict]:
        """One nested dict of everything — the export formats build on this.

        The capture is atomic across every instrument in the registry:
        counters, gauges and histograms are all read in one critical
        section, so invariants a writer maintains across instruments
        (e.g. "``served`` never exceeds ``admitted``") hold in every
        snapshot even while writers race the reader.
        """
        capture = self._capture()
        return {
            "counters": dict(sorted(capture["counters"].items())),
            "gauges": dict(sorted(capture["gauges"].items())),
            "histograms": {
                n: _summary_of_state(s)
                for n, s in sorted(capture["histograms"].items())
            },
        }

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one, in place (cluster view).

        Per-replica registries are aggregated instrument-by-instrument:

        - counters add (total requests across replicas);
        - gauges add — the cluster reading of a per-replica level gauge
          (queue depth, in-flight) is the sum over replicas;
        - histograms :meth:`Histogram.merge` (bucket counts add, so
          cluster-wide p50/p95/p99 stay within the sketch's error bound).

        Instruments present only in ``other`` are created here first, with
        the same name (and, for histograms, the same bucket layout).  The
        source registry is captured in one critical section, so the merge
        folds a *consistent* instant of the source even while its writers
        keep racing — the property process-backed replicas rely on when
        their snapshots arrive asynchronously.
        """
        capture = other._capture()
        return self._merge_capture(capture)

    def _merge_capture(self, capture: Dict[str, Dict]) -> "MetricsRegistry":
        for name, value in capture["counters"].items():
            self.counter(name).inc(value)
        for name, value in capture["gauges"].items():
            self.gauge(name).inc(value)
        for name, state in capture["histograms"].items():
            self.histogram(
                name, lo=state["lo"], growth=state["growth"]
            )._apply_state(state)
        return self

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __getstate__(self):
        return self._capture()

    def __setstate__(self, capture) -> None:
        self._lock = threading.Lock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._merge_capture(capture)
