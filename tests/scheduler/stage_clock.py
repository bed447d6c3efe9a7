"""Put the live runtime on virtual time, at a fixed cost per stage batch.

``on_virtual_clock(model, cost_s)`` returns a view of ``model`` whose every
``infer_stage`` call first advances a fresh :class:`VirtualClock` by
``cost_s`` and then runs the real stage, and that clock.  Hand both to a
:class:`~repro.scheduler.runtime.StagedInferenceRuntime`: whether a
workload overruns its latency constraint is then fixed by the arithmetic
of stage count x cost, not by the speed of the host.
"""

from repro.clock import VirtualClock


class _CostedModel:
    def __init__(self, model, clock, cost_s):
        self._model = model
        self._clock = clock
        self._cost_s = cost_s

    def __getattr__(self, name):
        return getattr(self._model, name)

    def infer_stage(self, feats, stage):
        self._clock.advance(self._cost_s)
        return self._model.infer_stage(feats, stage)


def on_virtual_clock(model, cost_s):
    """``(model view, clock)``: each stage batch costs ``cost_s`` virtual
    seconds."""
    clock = VirtualClock()
    return _CostedModel(model, clock, cost_s), clock
