"""Profiling-driven architecture optimization (Sec. II-C's payoff).

"Leveraging the identified nonlinear behavior, it might become possible to
increase neural network size and accuracy while at the same time reduce its
execution overhead (as illustrated by comparing CNN4 to CNN3 in Table I)."

:class:`LayerOptimizer` operationalizes that sentence: given a reference
layer configuration, it searches the (in, out) channel space with the
learned piecewise-linear profiler and returns configurations that
*dominate* the reference — strictly more capacity (MACs, our accuracy
proxy) at strictly lower predicted execution time — exactly the CNN3→CNN4
move.  A Pareto-front helper exposes the whole capacity/latency trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


from .cost_model import ConvLayerSpec, MobileDeviceCostModel
from .profiler import PiecewiseLinearProfiler


@dataclass(frozen=True)
class CandidateLayer:
    """One searched configuration with its predicted cost and capacity."""

    spec: ConvLayerSpec
    predicted_time_ms: float

    @property
    def capacity(self) -> float:
        """MACs as the capacity/accuracy proxy (more compute, more capacity)."""
        return self.spec.macs

    def dominates(self, other: "CandidateLayer") -> bool:
        """At least as much capacity and at most as much time, one strict."""
        ge_capacity = self.capacity >= other.capacity
        le_time = self.predicted_time_ms <= other.predicted_time_ms
        strict = (self.capacity > other.capacity) or (
            self.predicted_time_ms < other.predicted_time_ms
        )
        return ge_capacity and le_time and strict


class LayerOptimizer:
    """Search conv-layer configurations under a learned time predictor."""

    def __init__(
        self,
        profiler: PiecewiseLinearProfiler,
        channel_choices: Sequence[int] = (4, 8, 12, 16, 24, 32, 48, 64, 96, 128),
    ) -> None:
        if not profiler.fitted:
            raise ValueError("profiler must be fitted first")
        if not channel_choices:
            raise ValueError("need at least one channel choice")
        self.profiler = profiler
        self.channel_choices = sorted(set(int(c) for c in channel_choices))

    # ------------------------------------------------------------------
    def enumerate_candidates(self, reference: ConvLayerSpec) -> List[CandidateLayer]:
        """All (in, out) combinations at the reference's kernel/stride/size."""
        specs = [
            ConvLayerSpec(
                in_channels=cin,
                out_channels=cout,
                kernel=reference.kernel,
                stride=reference.stride,
                input_size=reference.input_size,
            )
            for cin in self.channel_choices
            for cout in self.channel_choices
        ]
        times = self.profiler.predict(specs)
        return [CandidateLayer(spec=s, predicted_time_ms=float(t))
                for s, t in zip(specs, times)]

    def improvements_over(self, reference: ConvLayerSpec) -> List[CandidateLayer]:
        """Configurations that dominate the reference (bigger AND faster),
        sorted by predicted time."""
        ref = CandidateLayer(
            spec=reference,
            predicted_time_ms=float(self.profiler.predict_one(reference)),
        )
        dominating = [c for c in self.enumerate_candidates(reference)
                      if c.dominates(ref)]
        return sorted(dominating, key=lambda c: c.predicted_time_ms)

    def pareto_front(self, reference: ConvLayerSpec) -> List[CandidateLayer]:
        """Non-dominated candidates over (capacity up, time down)."""
        candidates = self.enumerate_candidates(reference)
        front: List[CandidateLayer] = []
        for c in candidates:
            if any(other.dominates(c) for other in candidates):
                continue
            front.append(c)
        return sorted(front, key=lambda c: c.predicted_time_ms)

    def verify_on_device(
        self, candidate: CandidateLayer, device: MobileDeviceCostModel
    ) -> Tuple[float, float]:
        """(predicted, actual) time of a candidate on the true device —
        closes the loop between profiler and reality."""
        return (
            candidate.predicted_time_ms,
            device.execution_time_ms(candidate.spec),
        )
