"""E4 — Table III: MAE and R^2 of the GP confidence-curve predictors.

GP_{l->l'} models are fit on training-set stage confidences and evaluated on
the test set: GP1→2, GP1→3 and GP2→3 for a three-stage network.  The paper's
finding to reproduce: GP2→3 is the most accurate (more executed stages =
better predictions of the future).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from .common import BenchmarkArtifacts, get_benchmark_artifacts
from .experiment import Experiment, failed


def run_table3(artifacts: BenchmarkArtifacts = None) -> Dict[str, Dict[str, float]]:
    """Returns {"GP1->2": {"mae": ..., "r2": ...}, ...} on the test split."""
    artifacts = artifacts or get_benchmark_artifacts()
    train_conf = artifacts.train_outputs["confidences"]
    test_conf = artifacts.test_outputs["confidences"]
    predictor = artifacts.confidence_predictor()

    result: Dict[str, Dict[str, float]] = {}
    num_stages = artifacts.num_stages
    for l_from in range(num_stages):
        for l_to in range(l_from + 1, num_stages):
            gp = predictor.exact_gp(l_from, l_to)
            pred, _ = gp.predict(test_conf[l_from])
            truth = test_conf[l_to]
            residual = truth - pred
            mae = float(np.abs(residual).mean())
            ss_res = float(residual @ residual)
            ss_tot = float(((truth - truth.mean()) ** 2).sum())
            r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
            result[f"GP{l_from + 1}->{l_to + 1}"] = {"mae": mae, "r2": r2}
    return result


def format_table3(table: Dict[str, Dict[str, float]]) -> str:
    names = list(table)
    header = f"{'':6}" + "".join(f"{n:>10}" for n in names)
    lines = [header, "-" * len(header)]
    lines.append(f"{'MAE':6}" + "".join(f"{table[n]['mae']:>10.3f}" for n in names))
    lines.append(f"{'R2':6}" + "".join(f"{table[n]['r2']:>10.2f}" for n in names))
    return "\n".join(lines)


def check_table3(table: Dict[str, Dict[str, float]]) -> List[str]:
    # More observed stages => a better prediction of the future stage.
    best = table["GP2->3"]
    return failed({
        "GP2->3 MAE below GP1->3": best["mae"] < table["GP1->3"]["mae"],
        "GP2->3 MAE below GP1->2": best["mae"] < table["GP1->2"]["mae"],
        "GP2->3 R2 above GP1->3": best["r2"] > table["GP1->3"]["r2"],
        "GP2->3 R2 above GP1->2": best["r2"] > table["GP1->2"]["r2"],
        "GP2->3 R2 above 0.3": best["r2"] > 0.3,
    })


TABLE3 = Experiment(
    name="table3",
    summary="E4 Table III: MAE / R2 of the GP confidence-curve predictors",
    run=lambda args: run_table3(),
    format=format_table3,
    check=check_table3,
    record="table3_gp",
)
