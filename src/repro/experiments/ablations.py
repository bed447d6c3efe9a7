"""E8 + design ablations (DESIGN.md §5).

- resilience: rogue peer degrades collaborative accuracy >20%; the trust
  monitor restores it (Sec. IV-C's motivating numbers);
- compression: node pruning vs edge pruning at matched parameter budgets
  (the Sec. II-B argument for removing nodes instead of edges);
- GP approximation: fidelity and speedup of the piecewise-linear runtime
  path vs exact GP inference (Sec. III-B's two-step recipe).
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .common import BenchmarkArtifacts, get_benchmark_artifacts


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
    opt = Adam(mlp.parameters(), lr=1e-3)
    for _ in range(300):
        idx = rng.choice(len(x), size=128, replace=False)
        loss = cross_entropy(mlp(Tensor(x[idx])), y[idx])
        opt.zero_grad()
        loss.backward()
        opt.step()

    def accuracy(model) -> float:
        return float((model(Tensor(xt)).data.argmax(-1) == yt).mean())

    def finetune(model, steps=120) -> None:
        opt = Adam(model.parameters(), lr=5e-4)
        for _ in range(steps):
            idx = rng.choice(len(x), size=128, replace=False)
            loss = cross_entropy(model(Tensor(x[idx])), y[idx])
            opt.zero_grad()
            loss.backward()
            opt.step()

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
        finetune(pruned.model)
        rows.append(
            {
                "method": f"node prune keep={keep}",
                "param_fraction": pruned.parameter_ratio,
                "accuracy": accuracy(pruned.model),
                "time_ratio": pruned.time_ratio,
            }
        )
        # Edge pruning to the same parameter budget.
        import copy

        sparse_model = Sequential(
            Dense(x.shape[1], 128), ReLU(), Dense(128, 128), ReLU(), Dense(128, 10)
        )
        sparse_model.load_state_dict(mlp.state_dict())
        sparsity = 1.0 - pruned.parameter_ratio
        result = magnitude_edge_prune(sparse_model, sparsity)
        finetune(sparse_model)
        rows.append(
            {
                "method": f"edge prune sparsity={sparsity:.2f}",
                "param_fraction": 1.0 - result.achieved_sparsity,
                "accuracy": accuracy(sparse_model),
                "time_ratio": sparse_time_ratio(result.achieved_sparsity),
            }
        )
    return rows


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
