"""Stage execution costs for the scheduler, derived from the cost model.

The Fig. 4 experiments need per-stage execution times.  The paper's
optimality condition assumes "equal stage execution times"; this helper
computes realistic per-stage costs by summing the cost model's per-layer
times over each stage of a :class:`~repro.nn.resnet.StagedResNet`, with a
``normalize`` option that rescales them to an equal-time schedule of the
same total duration (the configuration the paper's analysis assumes).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import telemetry
from ..nn.resnet import StagedResNet
from .cost_model import ConvLayerSpec, MobileDeviceCostModel


def stage_execution_times(
    model: StagedResNet,
    device: Optional[MobileDeviceCostModel] = None,
    time_unit_ms: float = 1.0,
    normalize: bool = False,
) -> List[float]:
    """Per-stage execution times (in units of ``time_unit_ms``).

    With ``normalize=True`` the total is preserved but spread equally across
    stages (the paper's equal-stage-time assumption).
    """
    device = device or MobileDeviceCostModel()
    times: List[float] = []
    for layer_specs in model.stage_layer_specs():
        total = 0.0
        for spec in layer_specs:
            total += device.execution_time_ms(
                ConvLayerSpec(
                    in_channels=spec["in_channels"],
                    out_channels=spec["out_channels"],
                    kernel=spec["kernel"],
                    stride=spec["stride"],
                    input_size=spec["input_size"],
                )
            )
        times.append(total / time_unit_ms)
    if normalize:
        mean = float(np.mean(times))
        times = [mean] * len(times)
    tel = telemetry.active()
    if tel is not None:
        for stage, t in enumerate(times):
            tel.registry.histogram(f"profiling.stage_time_ms.stage{stage}").observe(
                t * time_unit_ms
            )
    return times
