"""Extension experiment: the inference fast path's throughput gains.

The seed served every image by building a full autograd graph, one image
per stage execution.  The fast path removes both costs: the no-grad
raw-ndarray ``infer_*`` methods skip graph construction entirely, and
micro-batching amortises each stage's im2col + matmul over several images.
This experiment quantifies the three rungs of that ladder on the benchmark
three-stage ResNet:

- ``grad/img`` — the seed path: per-image autograd forward (eval mode);
- ``no-grad/img`` — per-image raw-ndarray inference;
- ``no-grad/batch`` — batched raw-ndarray inference.

It also reports per-stage latency for single-image vs batched execution —
the quantity the micro-batching scheduler trades latency against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..clock import stopwatch
from ..nn import functional as F
from ..nn.tensor import Tensor
from .common import BenchmarkArtifacts, get_benchmark_artifacts


@dataclass
class FastPathConfig:
    num_images: int = 64
    batch_size: int = 16
    #: timing repeats; the best (minimum) wall time is reported.
    repeats: int = 3
    seed: int = 0


def _best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        elapsed = stopwatch()
        fn()
        best = min(best, elapsed())
    return best


def run_fastpath(
    artifacts: Optional[BenchmarkArtifacts] = None,
    config: Optional[FastPathConfig] = None,
) -> Dict[str, object]:
    """Measure images/sec for the three serving paths plus stage latencies."""
    artifacts = artifacts or get_benchmark_artifacts()
    config = config or FastPathConfig()
    model = artifacts.model
    model.eval()
    x = np.asarray(artifacts.test_set.inputs[: config.num_images], dtype=np.float64)
    n = len(x)

    def grad_per_image() -> None:
        for i in range(n):
            logits = model.forward(Tensor(x[i : i + 1]))
            for l in logits:
                F.softmax(l, axis=-1)

    def nograd_per_image() -> None:
        for i in range(n):
            model.predict_proba(x[i : i + 1])

    def nograd_batched() -> None:
        for i in range(0, n, config.batch_size):
            model.predict_proba(x[i : i + config.batch_size])

    # Warm up caches (scratch buffers, BLAS threads) before timing.
    model.predict_proba(x[: config.batch_size])
    t_grad = _best_time(grad_per_image, config.repeats)
    t_nograd = _best_time(nograd_per_image, config.repeats)
    t_batched = _best_time(nograd_batched, config.repeats)

    # Per-stage latency: one image vs one full micro-batch.
    stage_ms: List[Dict[str, float]] = []
    for label, chunk in (("1", x[:1]), (str(config.batch_size), x[: config.batch_size])):
        feats = model.infer_stem(chunk)
        per_stage = []
        for stage in range(model.num_stages):
            elapsed = stopwatch()
            feats, _ = model.infer_stage(feats, stage)
            per_stage.append(1e3 * elapsed())
        stage_ms.append(
            {"batch": label, "stages_ms": per_stage, "per_image_ms": sum(per_stage) / len(chunk)}
        )

    return {
        "num_images": n,
        "batch_size": config.batch_size,
        "throughput": {
            "grad/img": n / t_grad,
            "no-grad/img": n / t_nograd,
            "no-grad/batch": n / t_batched,
        },
        "speedup_nograd": t_grad / t_nograd,
        "speedup_batched": t_grad / t_batched,
        "stage_latency": stage_ms,
    }


def format_fastpath(results: Dict[str, object]) -> str:
    tp = results["throughput"]
    base = tp["grad/img"]
    header = f"{'path':16} {'images/s':>10} {'speedup':>8}"
    lines = [
        f"n={results['num_images']} images, micro-batch={results['batch_size']}",
        header,
        "-" * len(header),
    ]
    for name, rate in tp.items():
        lines.append(f"{name:16} {rate:>10.1f} {rate / base:>7.2f}x")
    lines.append("")
    lines.append("per-stage latency (ms)")
    for row in results["stage_latency"]:
        stages = "  ".join(f"s{i}={ms:6.2f}" for i, ms in enumerate(row["stages_ms"]))
        lines.append(
            f"  batch={row['batch']:>3}: {stages}  ({row['per_image_ms']:.2f} ms/image)"
        )
    return "\n".join(lines)
