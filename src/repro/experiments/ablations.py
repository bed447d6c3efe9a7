"""E8 + design ablations (DESIGN.md §5).

- resilience: rogue peer degrades collaborative accuracy >20%; the trust
  monitor restores it (Sec. IV-C's motivating numbers);
- compression: node pruning vs edge pruning at matched parameter budgets
  (the Sec. II-B argument for removing nodes instead of edges);
- GP approximation: fidelity and speedup of the piecewise-linear runtime
  path vs exact GP inference (Sec. III-B's two-step recipe).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..clock import stopwatch
from ..collaborative import (
    CollaborativePipeline,
    ResilienceMonitor,
    RogueCamera,
    SSDDetector,
    World,
    WorldConfig,
    ring_of_cameras,
)
from ..compression.pruning import (
    magnitude_edge_prune,
    node_prune_mlp,
    sparse_time_ratio,
)
from ..gp import GPRegression, RBFKernel, approximate_gp
from ..nn.layers import Dense, ReLU, Sequential
from ..nn.losses import cross_entropy
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from .common import get_benchmark_artifacts
from .experiment import Experiment, failed


# ----------------------------------------------------------------------
# E8: resilience
# ----------------------------------------------------------------------
def run_resilience(
    num_frames: int = 100, rogue_rate: float = 25.0, seed: int = 2
) -> Dict[str, float]:
    """Collaborative accuracy: clean vs attacked vs defended."""
    world = World(WorldConfig(num_people=12, num_occluders=6, seed=seed))
    cameras = ring_of_cameras(8, world)

    def evaluate(rogues=(), monitor=None) -> float:
        pipeline = CollaborativePipeline(
            world, cameras, SSDDetector(seed=0), rogues=rogues, monitor=monitor
        )
        return pipeline.evaluate(pipeline.run_collaborative(num_frames)).detection_accuracy

    clean = evaluate()
    rogue = RogueCamera(camera_id=99, rate=rogue_rate, seed=7)
    attacked = evaluate(rogues=[rogue])
    monitor = ResilienceMonitor()
    defended = evaluate(rogues=[RogueCamera(camera_id=99, rate=rogue_rate, seed=7)],
                        monitor=monitor)
    return {
        "clean_accuracy": clean,
        "attacked_accuracy": attacked,
        "defended_accuracy": defended,
        "attack_drop_fraction": 1.0 - attacked / clean,
        "rogue_detected": float(99 in monitor.distrusted_sources()),
    }


def check_resilience(result: Dict[str, float]) -> List[str]:
    return failed({
        # The paper's motivating number: false boxes cut accuracy by > 20%.
        "the rogue camera cuts accuracy by > 15%": result["attack_drop_fraction"] > 0.15,
        "the trust monitor identifies the rogue": result["rogue_detected"] == 1.0,
        "the defense restores > 90% of clean accuracy":
            result["defended_accuracy"] > 0.9 * result["clean_accuracy"],
    })


RESILIENCE = Experiment(
    name="resilience",
    summary="E8 Sec. IV-C: a rogue camera's attack and the trust-based defense",
    run=lambda args: run_resilience(),
    format=lambda result: "\n".join(f"{k:24} {v:.3f}" for k, v in result.items()),
    check=check_resilience,
    record="resilience",
)


# ----------------------------------------------------------------------
# Compression ablation: node vs edge pruning
# ----------------------------------------------------------------------
def run_compression_ablation(seed: int = 0) -> List[Dict[str, float]]:
    """Accuracy and modelled execution time of both pruning families.

    A 2-hidden-layer MLP is trained on flattened benchmark images, then
    compressed to a range of parameter budgets by (a) node pruning and
    (b) magnitude edge pruning.  Execution-time ratios use dense scaling for
    node pruning and the sparse-overhead model for edge pruning.
    """
    artifacts = get_benchmark_artifacts()
    rng = np.random.default_rng(seed)
    x = artifacts.train_set.inputs.reshape(len(artifacts.train_set), -1)
    y = artifacts.train_set.labels
    xt = artifacts.test_set.inputs.reshape(len(artifacts.test_set), -1)
    yt = artifacts.test_set.labels

    mlp = Sequential(
        Dense(x.shape[1], 128, rng=rng), ReLU(),
        Dense(128, 128, rng=rng), ReLU(),
        Dense(128, 10, rng=rng),
    )

    def train(model, steps: int = 120, lr: float = 5e-4) -> None:
        opt = Adam(model.parameters(), lr=lr)
        for _ in range(steps):
            idx = rng.choice(len(x), size=128, replace=False)
            loss = cross_entropy(model(Tensor(x[idx])), y[idx])
            opt.zero_grad()
            loss.backward()
            opt.step()

    def accuracy(model) -> float:
        return float((model(Tensor(xt)).data.argmax(-1) == yt).mean())

    train(mlp, steps=300, lr=1e-3)

    rows: List[Dict[str, float]] = [
        {
            "method": "dense (original)",
            "param_fraction": 1.0,
            "accuracy": accuracy(mlp),
            "time_ratio": 1.0,
        }
    ]
    for keep in (0.5, 0.25):
        pruned = node_prune_mlp(mlp, keep_fraction=keep)
        train(pruned.model)
        rows.append(
            {
                "method": f"node prune keep={keep}",
                "param_fraction": pruned.parameter_ratio,
                "accuracy": accuracy(pruned.model),
                "time_ratio": pruned.time_ratio,
            }
        )
        # Edge pruning to the same parameter budget.
        sparse_model = Sequential(
            Dense(x.shape[1], 128), ReLU(), Dense(128, 128), ReLU(), Dense(128, 10)
        )
        sparse_model.load_state_dict(mlp.state_dict())
        sparsity = 1.0 - pruned.parameter_ratio
        result = magnitude_edge_prune(sparse_model, sparsity)
        train(sparse_model)
        rows.append(
            {
                "method": f"edge prune sparsity={sparsity:.2f}",
                "param_fraction": 1.0 - result.achieved_sparsity,
                "accuracy": accuracy(sparse_model),
                "time_ratio": sparse_time_ratio(result.achieved_sparsity),
            }
        )
    return rows


def format_compression_ablation(rows: List[Dict[str, float]]) -> str:
    header = f"{'method':28} {'params':>8} {'accuracy':>9} {'time ratio':>11}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['method']:28} {r['param_fraction']:>8.2f} "
            f"{r['accuracy']:>9.3f} {r['time_ratio']:>11.2f}"
        )
    return "\n".join(lines)


def check_compression_ablation(rows: List[Dict[str, float]]) -> List[str]:
    by = {r["method"]: r for r in rows}
    node50 = by["node prune keep=0.5"]
    edge50 = next(
        r for r in rows
        if r["method"].startswith("edge prune")
        and abs(r["param_fraction"] - node50["param_fraction"]) < 0.1
    )
    # At a matched parameter budget, node pruning delivers real (dense)
    # speedups while sparse edge pruning does not.
    return failed({
        "node pruning runs faster than edge pruning at 50% parameters":
            node50["time_ratio"] < edge50["time_ratio"],
        "node pruning keeps accuracy within 5 points of edge pruning":
            node50["accuracy"] > edge50["accuracy"] - 0.05,
    })


COMPRESSION = Experiment(
    name="compression",
    summary="Ablation: node vs edge pruning at matched parameter budgets",
    run=lambda args: run_compression_ablation(),
    format=format_compression_ablation,
    check=check_compression_ablation,
    record="compression_ablation",
)


# ----------------------------------------------------------------------
# GP approximation ablation
# ----------------------------------------------------------------------
def run_gp_approx_ablation(
    num_train: int = 400, num_queries: int = 5000, seed: int = 0
) -> Dict[str, float]:
    """Fidelity (max abs deviation) and speedup of the piecewise-linear path."""
    artifacts = get_benchmark_artifacts()
    conf = artifacts.train_outputs["confidences"]
    rng = np.random.default_rng(seed)
    idx = rng.choice(conf.shape[1], size=min(num_train, conf.shape[1]), replace=False)
    gp = GPRegression(RBFKernel(length_scale=0.2), noise=1e-2).fit(
        conf[0][idx], conf[-1][idx]
    )
    pl = approximate_gp(gp, num_points=10)
    grid = np.linspace(0, 1, 201)
    gp_mean, _ = gp.predict(grid)
    max_dev = float(np.abs(pl(grid) - gp_mean).max())

    queries = rng.uniform(0, 1, num_queries)
    elapsed = stopwatch()
    gp.predict(queries)
    gp_time = elapsed()
    elapsed = stopwatch()
    pl(queries)
    pl_time = elapsed()
    return {
        "max_abs_deviation": max_dev,
        "gp_time_s": gp_time,
        "piecewise_time_s": pl_time,
        "speedup": gp_time / max(pl_time, 1e-9),
    }


def check_gp_approx_ablation(result: Dict[str, float]) -> List[str]:
    return failed({
        "approximation within 0.05 of the exact GP on [0, 1]":
            result["max_abs_deviation"] < 0.05,
        "approximation > 10x faster than exact GP inference": result["speedup"] > 10.0,
    })


GP_APPROX = Experiment(
    name="gp-approx",
    summary="Ablation: fidelity and speed of the piecewise-linear GP path",
    run=lambda args: run_gp_approx_ablation(),
    format=lambda result: "\n".join(f"{k:20} {v:.6f}" for k, v in result.items()),
    check=check_gp_approx_ablation,
    record="gp_approx_ablation",
)
