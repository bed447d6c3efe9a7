"""Human-readable rendering of scheduling episodes.

The paper's Fig. 1 shows tasks advancing along "dynamic confidence curves"
as the scheduler grants them stages.  These helpers render that picture as
text: a per-task table of stage allocations and confidence trajectories,
and a timeline strip showing which policy served whom.  Used by the
examples and handy when debugging scheduling behaviour.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .simulator import EpisodeResult


def episode_summary(result: EpisodeResult) -> str:
    """One-paragraph summary of an episode."""
    lines = [
        f"tasks: {result.num_tasks}  "
        f"completed: {result.num_fully_completed}  "
        f"evicted: {result.num_evicted}",
        f"service accuracy: {result.accuracy:.1%}  "
        f"mean confidence: {result.mean_final_confidence:.3f}",
        f"makespan: {result.makespan:.2f}  "
        f"utilization: {result.utilization:.1%}  "
        f"mean stages/task: {result.stages_executed.mean():.2f}",
    ]
    return "\n".join(lines)


def task_table(result: EpisodeResult, max_rows: Optional[int] = 20) -> str:
    """Per-task view: stages run, confidence trajectory, verdict."""
    header = f"{'task':>5} {'stages':>7} {'confidence trajectory':32} {'verdict':>8}"
    lines = [header, "-" * len(header)]
    records = result.records if max_rows is None else result.records[:max_rows]
    for record in records:
        trajectory = " -> ".join(f"{o.confidence:.2f}" for o in record.outcomes)
        if not trajectory:
            trajectory = "(no stage ran)"
        verdict = (
            "evicted" if record.evicted and not record.outcomes
            else ("right" if record.final_correct else "wrong")
        )
        lines.append(
            f"{record.task_id:>5} {record.stages_done:>7} {trajectory:32} {verdict:>8}"
        )
    hidden = result.num_tasks - len(records)
    if hidden > 0:
        lines.append(f"... {hidden} more tasks")
    return "\n".join(lines)


def stage_histogram(result: EpisodeResult, max_stages: Optional[int] = None) -> str:
    """Distribution of stages executed per task — the fairness picture."""
    stages = result.stages_executed
    top = max_stages if max_stages is not None else (int(stages.max()) if len(stages) else 0)
    counts = np.bincount(stages, minlength=top + 1)
    total = max(counts.sum(), 1)
    lines = ["stages | tasks"]
    for s in range(top + 1):
        bar = "#" * int(round(40 * counts[s] / total))
        lines.append(f"{s:>6} | {counts[s]:>5} {bar}")
    return "\n".join(lines)


def confidence_curve_plot(
    curves: np.ndarray, width: int = 50, labels: Optional[Sequence[str]] = None
) -> str:
    """ASCII rendering of confidence-vs-stage curves (Fig. 1's inset).

    ``curves`` is (num_tasks, num_stages) in [0, 1]; each row becomes one
    line of positions along a 0..1 axis, one marker per stage (1, 2, 3...).
    """
    curves = np.asarray(curves, dtype=np.float64)
    if curves.ndim != 2:
        raise ValueError("curves must be (num_tasks, num_stages)")
    if curves.min() < 0 or curves.max() > 1:
        raise ValueError("confidences must lie in [0, 1]")
    lines = ["0.0" + " " * (width - 5) + "1.0"]
    for i, row in enumerate(curves):
        strip = ["-"] * (width + 1)
        for stage, conf in enumerate(row):
            pos = int(round(conf * width))
            strip[pos] = str((stage + 1) % 10)
        label = labels[i] if labels is not None else f"task {i}"
        lines.append(f"{label:>10} |{''.join(strip)}|")
    return "\n".join(lines)


def render_episode(result: EpisodeResult, max_rows: int = 15) -> str:
    """Full report: summary + task table + fairness histogram."""
    return "\n\n".join(
        [
            episode_summary(result),
            task_table(result, max_rows=max_rows),
            stage_histogram(result),
        ]
    )
