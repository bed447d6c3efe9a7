"""E2 — Fig. 2: reliability diagrams without / with entropy calibration."""

from __future__ import annotations

from typing import Dict, List

from ..calibration.ece import ReliabilityDiagram, reliability_diagram
from .common import BenchmarkArtifacts, get_benchmark_artifacts
from .experiment import Experiment, failed


def run_fig2(
    artifacts: BenchmarkArtifacts = None, stage: int = -1, num_bins: int = 10
) -> Dict[str, ReliabilityDiagram]:
    """Reliability diagrams of the final-stage classifier on the test set.

    Returns ``{"uncalibrated": ..., "calibrated": ...}`` — the two panels of
    Fig. 2.  The calibrated diagram must hug the diagonal far more closely.
    """
    artifacts = artifacts or get_benchmark_artifacts()
    stage = stage % artifacts.num_stages
    before = artifacts.uncalibrated_test_outputs
    after = artifacts.test_outputs
    return {
        "uncalibrated": reliability_diagram(
            before["confidences"][stage], before["correct"][stage], num_bins
        ),
        "calibrated": reliability_diagram(
            after["confidences"][stage], after["correct"][stage], num_bins
        ),
    }


def format_fig2(diagrams: Dict[str, ReliabilityDiagram]) -> str:
    parts = []
    for name, diagram in diagrams.items():
        parts.append(f"=== {name} (ECE={diagram.ece():.4f}) ===")
        parts.append(diagram.render_ascii())
    return "\n".join(parts)


def check_fig2(diagrams: Dict[str, ReliabilityDiagram]) -> List[str]:
    cal = diagrams["calibrated"]
    populated = cal.counts > 20
    return failed({
        "calibration lowers the final stage's ECE":
            cal.ece() < diagrams["uncalibrated"].ece(),
        "calibrated bins with > 20 samples lie within 0.25 of the diagonal":
            bool((abs(cal.accuracy[populated] - cal.centers[populated]) < 0.25).all()),
    })


FIG2 = Experiment(
    name="fig2",
    summary="E2 Fig. 2: reliability diagrams before/after entropy calibration",
    run=lambda args: run_fig2(),
    format=format_fig2,
    check=check_fig2,
    record="fig2_reliability",
)
