"""E6 — Table IV: individual vs collaborative deep IoT inferencing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..collaborative import (
    CollaborativePipeline,
    SSDDetector,
    World,
    WorldConfig,
    ring_of_cameras,
)
from .experiment import Experiment, failed


@dataclass
class Table4Config:
    num_cameras: int = 8  # the PETS2009 camera count
    num_people: int = 12
    num_occluders: int = 6
    num_frames: int = 120
    world_seed: int = 2
    detector_seed: int = 0


def run_table4(config: Table4Config = None) -> Dict[str, Dict[str, float]]:
    """Returns {"Individual": {...}, "Collaborative": {...}} rows."""
    config = config or Table4Config()
    world = World(
        WorldConfig(
            num_people=config.num_people,
            num_occluders=config.num_occluders,
            seed=config.world_seed,
        )
    )
    cameras = ring_of_cameras(config.num_cameras, world)

    individual = CollaborativePipeline(world, cameras, SSDDetector(seed=config.detector_seed))
    ind_eval = individual.evaluate(individual.run_individual(config.num_frames))

    collaborative = CollaborativePipeline(world, cameras, SSDDetector(seed=config.detector_seed))
    col_eval = collaborative.evaluate(collaborative.run_collaborative(config.num_frames))

    return {
        "Individual": {
            "detection_accuracy": ind_eval.detection_accuracy,
            "recognition_latency_ms": ind_eval.mean_latency_ms,
            "precision": ind_eval.precision,
            "recall": ind_eval.recall,
        },
        "Collaborative": {
            "detection_accuracy": col_eval.detection_accuracy,
            "recognition_latency_ms": col_eval.mean_latency_ms,
            "precision": col_eval.precision,
            "recall": col_eval.recall,
        },
    }


PAPER_TABLE4 = {
    "Individual": {"detection_accuracy": 0.68, "recognition_latency_ms": 550.0},
    "Collaborative": {"detection_accuracy": 0.755, "recognition_latency_ms": 25.0},
}


def format_table4(rows: Dict[str, Dict[str, float]]) -> str:
    header = (
        f"{'Approach':15} {'Detection Acc':>14} {'Latency (ms)':>13} "
        f"{'paper acc':>10} {'paper ms':>9}"
    )
    lines = [header, "-" * len(header)]
    for name, row in rows.items():
        paper = PAPER_TABLE4[name]
        lines.append(
            f"{name:15} {100 * row['detection_accuracy']:>13.1f}% "
            f"{row['recognition_latency_ms']:>13.1f} "
            f"{100 * paper['detection_accuracy']:>9.1f}% "
            f"{paper['recognition_latency_ms']:>9.1f}"
        )
    return "\n".join(lines)


def check_table4(rows: Dict[str, Dict[str, float]]) -> List[str]:
    ind, col = rows["Individual"], rows["Collaborative"]
    return failed({
        # Paper: 68% -> 75.5%.
        "collaboration lifts detection accuracy by > 4 points":
            col["detection_accuracy"] > ind["detection_accuracy"] + 0.04,
        # Paper: 550 ms -> 25 ms, ~22x.
        "collaboration cuts recognition latency > 10x":
            ind["recognition_latency_ms"] / col["recognition_latency_ms"] > 10.0,
        "individual accuracy in the paper's 55-80% range":
            0.55 < ind["detection_accuracy"] < 0.8,
    })


TABLE4 = Experiment(
    name="table4",
    summary="E6 Table IV: individual vs collaborative inferencing",
    run=lambda args: run_table4(),
    format=format_table4,
    check=check_table4,
    record="table4_collaborative",
)
