"""Data pools, authorization, and rogue-contributor detection (Sec. V).

"One service model would be to define data pools (e.g., the 'Downtown
Mall's Security Cameras Pool').  Only devices authorized to contribute to
the pool can add data and/or labels to it for purposes of neural network
model training. ...  how to handle rogue devices (or insider attacks) that
gain access to the data for the purpose of polluting the pool with
adversarial inputs (e.g., bad samples or wrong labels)?  Some form of
anomaly detection may be needed. ...  if samples arriving from one of the
devices are often misclassified based on models computed from other
devices' data, then one may suspect rogue behavior."

This module implements that service model:

- :class:`DataPool` — a named pool with an access-control list; every
  contribution is recorded with provenance (device id, timestamp index);
- :class:`ContributorAuditor` — the paper's suggested detection test,
  implemented as leave-one-contributor-out cross-validation: for each
  device, train a model on everyone else's data and measure how often that
  device's (sample, label) pairs are misclassified; devices whose
  misclassification rate is anomalously high relative to the population are
  flagged;
- quarantine: flagged devices' contributions can be excluded from the
  training view without deleting them (forensics stays possible).

The auditor is classifier-agnostic (any ``fit(x, y)`` / ``predict(x)``
factory); a fast multinomial-logistic default is provided so audits run in
milliseconds.  It also handles the paper's hard case — "malicious devices
that mix bad inputs with some amounts of good data to avoid suspicion" — by
thresholding on a robust z-score of per-device misclassification rates, so
a partially-poisoning device still stands out from the honest population.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from .. import faults
from ..nn.layers import Dense, Sequential
from ..nn.losses import cross_entropy
from ..nn.optim import Adam
from ..nn.tensor import Tensor


class PoolAuthorizationError(PermissionError):
    """Raised when an unauthorized device touches a pool."""


@dataclass(frozen=True)
class Contribution:
    """One (sample, label) contribution with provenance."""

    device_id: str
    index: int
    sample: np.ndarray
    label: int


class DataPool:
    """A named, access-controlled pool of labelled training data.

    Thread-safe: contributors are concurrent devices, so every mutation
    and every view holds the pool's re-entrant lock.  Two invariants the
    lock buys (and the concurrency regression tests pin):

    - no contribution is ever lost, whatever the interleaving;
    - one ``contribute`` call's provenance indices are *contiguous*, so a
      batch can always be attributed (and audited) as a unit.

    ``contribute`` additionally honours an idempotency key: a redelivered
    batch (a retry after a lost acknowledgement) is recognised inside a
    bounded dedup window and reports its original accepted count instead
    of inserting duplicates.
    """

    #: redelivery window: how many distinct idempotency keys are remembered.
    DEDUP_WINDOW = 512

    def __init__(self, name: str, authorized: Optional[Iterable[str]] = None) -> None:
        if not name:
            raise ValueError("pool needs a name")
        self.name = name
        self._authorized: Set[str] = set(authorized or ())
        self._contributions: List[Contribution] = []
        self._quarantined: Set[str] = set()
        self._counter = itertools.count()
        self._lock = threading.RLock()
        self._seen_keys: "OrderedDict[str, int]" = OrderedDict()

    # -- authorization -------------------------------------------------
    def authorize(self, device_id: str) -> None:
        with self._lock:
            self._authorized.add(device_id)

    def revoke(self, device_id: str) -> None:
        with self._lock:
            self._authorized.discard(device_id)

    def is_authorized(self, device_id: str) -> bool:
        with self._lock:
            return device_id in self._authorized

    # -- contribution --------------------------------------------------
    def contribute(
        self,
        device_id: str,
        samples: np.ndarray,
        labels: np.ndarray,
        idempotency_key: Optional[str] = None,
    ) -> int:
        """Add labelled samples; returns how many were accepted.

        The whole batch is inserted under the pool lock, so concurrent
        contributors cannot interleave inside it.  When ``idempotency_key``
        is given and was already accepted (within the dedup window), the
        batch is recognised as a redelivery: nothing is inserted and the
        original accepted count is returned.
        """
        if not self.is_authorized(device_id):
            raise PoolAuthorizationError(
                f"device {device_id!r} is not authorized for pool {self.name!r}"
            )
        decision = faults.perform(faults.inject("pools.contribute"))
        if decision is not None and decision.kind == faults.DROP:
            return 0  # the contribution is silently lost in transit
        samples = np.asarray(samples, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if len(samples) != len(labels):
            raise ValueError("samples and labels must align")
        with self._lock:
            if idempotency_key is not None:
                if idempotency_key in self._seen_keys:
                    return self._seen_keys[idempotency_key]
            for sample, label in zip(samples, labels):
                self._contributions.append(
                    Contribution(
                        device_id=device_id,
                        index=next(self._counter),
                        sample=sample,
                        label=int(label),
                    )
                )
            if idempotency_key is not None:
                self._seen_keys[idempotency_key] = len(samples)
                while len(self._seen_keys) > self.DEDUP_WINDOW:
                    self._seen_keys.popitem(last=False)
        return len(samples)

    # -- views -----------------------------------------------------------
    @property
    def size(self) -> int:
        with self._lock:
            return len(self._contributions)

    def contributors(self) -> List[str]:
        with self._lock:
            return sorted({c.device_id for c in self._contributions})

    def quarantine(self, device_id: str) -> None:
        """Exclude a device's data from training views (kept for forensics)."""
        with self._lock:
            self._quarantined.add(device_id)

    def release(self, device_id: str) -> None:
        with self._lock:
            self._quarantined.discard(device_id)

    @property
    def quarantined(self) -> Set[str]:
        with self._lock:
            return set(self._quarantined)

    def _select(self, include: Callable[[Contribution], bool]) -> Tuple[np.ndarray, np.ndarray]:
        with self._lock:
            chosen = [c for c in self._contributions if include(c)]
        if not chosen:
            return np.zeros((0,)), np.zeros((0,), dtype=np.int64)
        x = np.stack([c.sample for c in chosen])
        y = np.array([c.label for c in chosen], dtype=np.int64)
        return x, y

    def training_view(self) -> Tuple[np.ndarray, np.ndarray]:
        """All non-quarantined data, as (samples, labels)."""
        return self._select(lambda c: c.device_id not in self._quarantined)

    def device_view(self, device_id: str) -> Tuple[np.ndarray, np.ndarray]:
        return self._select(lambda c: c.device_id == device_id)

    def excluding_device(self, device_id: str) -> Tuple[np.ndarray, np.ndarray]:
        return self._select(
            lambda c: c.device_id != device_id and c.device_id not in self._quarantined
        )


# ----------------------------------------------------------------------
# Rogue-contributor auditing
# ----------------------------------------------------------------------
def _default_classifier_factory(num_classes: int, steps: int = 250, seed: int = 0):
    """Multinomial logistic regression on flattened samples."""

    class _Logistic:
        def __init__(self) -> None:
            self.model: Optional[Sequential] = None
            self.rng = np.random.default_rng(seed)

        def fit(self, x: np.ndarray, y: np.ndarray) -> "_Logistic":
            flat = x.reshape(len(x), -1)
            self.model = Sequential(Dense(flat.shape[1], num_classes, rng=self.rng))
            optimizer = Adam(self.model.parameters(), lr=5e-2)
            for _ in range(steps):
                idx = self.rng.choice(len(flat), size=min(64, len(flat)), replace=False)
                loss = cross_entropy(self.model(Tensor(flat[idx])), y[idx])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
            return self

        def predict(self, x: np.ndarray) -> np.ndarray:
            assert self.model is not None
            flat = x.reshape(len(x), -1)
            return self.model.infer(flat).argmax(axis=-1)

    return _Logistic()


@dataclass
class AuditReport:
    """Outcome of a pool audit."""

    misclassification_rates: Dict[str, float]
    flagged: List[str]
    threshold: float

    def rate(self, device_id: str) -> float:
        return self.misclassification_rates[device_id]


class ContributorAuditor:
    """Leave-one-contributor-out poisoning detection.

    Parameters
    ----------
    z_threshold:
        A device is flagged when its misclassification rate exceeds the
        population median by more than ``z_threshold`` robust standard
        deviations (median absolute deviation scaled), *and* exceeds
        ``min_rate`` absolutely (guards the all-honest case where rates are
        tiny and MAD is near zero).
    """

    def __init__(
        self,
        num_classes: int,
        classifier_factory: Optional[Callable[[], object]] = None,
        z_threshold: float = 3.0,
        min_rate: float = 0.3,
        seed: int = 0,
    ) -> None:
        if num_classes < 2:
            raise ValueError("need at least two classes")
        if z_threshold <= 0:
            raise ValueError("z_threshold must be positive")
        self.num_classes = num_classes
        self.classifier_factory = classifier_factory or (
            lambda: _default_classifier_factory(num_classes, seed=seed)
        )
        self.z_threshold = z_threshold
        self.min_rate = min_rate

    def audit(self, pool: DataPool) -> AuditReport:
        """Cross-validate every contributor against the others' data."""
        contributors = pool.contributors()
        if len(contributors) < 2:
            raise ValueError("auditing needs at least two contributors")
        rates: Dict[str, float] = {}
        for device in contributors:
            x_others, y_others = pool.excluding_device(device)
            x_dev, y_dev = pool.device_view(device)
            if len(x_others) == 0 or len(x_dev) == 0:
                rates[device] = 0.0
                continue
            model = self.classifier_factory().fit(x_others, y_others)
            predictions = model.predict(x_dev)
            rates[device] = float((predictions != y_dev).mean())

        values = np.array([rates[d] for d in contributors])
        median = float(np.median(values))
        mad = float(np.median(np.abs(values - median)))
        robust_std = 1.4826 * mad
        threshold = median + self.z_threshold * max(robust_std, 1e-6)
        flagged = [
            d
            for d in contributors
            if rates[d] > threshold and rates[d] >= self.min_rate
        ]
        return AuditReport(
            misclassification_rates=rates, flagged=flagged, threshold=threshold
        )

    def audit_and_quarantine(self, pool: DataPool) -> AuditReport:
        """Audit and quarantine every flagged device."""
        report = self.audit(pool)
        for device in report.flagged:
            pool.quarantine(device)
        return report
