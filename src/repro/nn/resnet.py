"""Staged residual network with per-stage early-exit classifiers (paper Fig. 3).

The Eugene proof-of-concept divides a ResNet into three stages; except for the
bottom convolutional layer, each stage consists of six convolutional layers
with three residual shortcut connections.  A thin softmax classifier is
appended at the end of each stage so inference can stop early once the
scheduler decides confidence is high enough.

This module reproduces that topology at a scale trainable in pure numpy: the
same 3-stage / 3-residual-blocks-per-stage structure, with configurable
channel widths and input size so tests can use tiny instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import functional as F
from .layers import (
    BatchNorm2D,
    Conv2D,
    Dense,
    GlobalAvgPool2D,
    Module,
    Sequential,
)
from .tensor import Tensor, as_tensor


class ResidualBlock(Module):
    """Two 3x3 convolutions with a shortcut connection.

    When ``stride > 1`` or channel counts differ, the shortcut is a 1x1
    strided convolution (the standard ResNet projection shortcut).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.conv1 = Conv2D(in_channels, out_channels, 3, stride=stride, padding=1,
                            bias=False, rng=rng)
        self.bn1 = BatchNorm2D(out_channels)
        self.conv2 = Conv2D(out_channels, out_channels, 3, stride=1, padding=1,
                            bias=False, rng=rng)
        self.bn2 = BatchNorm2D(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Optional[Module] = Sequential(
                Conv2D(in_channels, out_channels, 1, stride=stride, padding=0,
                       bias=False, rng=rng),
                BatchNorm2D(out_channels),
            )
        else:
            self.shortcut = None

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out))
        skip = x if self.shortcut is None else self.shortcut(x)
        return (out + skip).relu()

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = F.relu_infer(self.bn1.infer(self.conv1.infer(x)))
        out = self.bn2.infer(self.conv2.infer(out))
        skip = x if self.shortcut is None else self.shortcut.infer(x)
        return F.relu_infer(out + skip)


class StageClassifier(Module):
    """Thin end-of-stage classifier: global average pool + affine + softmax."""

    def __init__(self, channels: int, num_classes: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.pool = GlobalAvgPool2D()
        self.fc = Dense(channels, num_classes, rng=rng)

    def forward(self, features: Tensor) -> Tensor:
        """Return logits (apply :func:`repro.nn.functional.softmax` for probs)."""
        return self.fc(self.pool(features))

    def infer(self, features: np.ndarray) -> np.ndarray:
        return self.fc.infer(self.pool.infer(features))


@dataclass
class StagedResNetConfig:
    """Hyperparameters of the staged ResNet.

    The defaults mirror the paper's three-stage topology (three residual
    blocks, i.e. six conv layers, per stage) at a numpy-trainable width.
    """

    num_classes: int = 10
    in_channels: int = 3
    image_size: int = 16
    stage_channels: Tuple[int, ...] = (8, 16, 32)
    blocks_per_stage: int = 3
    seed: int = 0

    @property
    def num_stages(self) -> int:
        return len(self.stage_channels)


class StagedResNet(Module):
    """Three-stage residual CNN with a classifier at every stage boundary.

    Two entry points matter for Eugene:

    - :meth:`forward` runs all stages, returning one logits tensor per stage
      (used for training with joint per-stage losses).
    - :meth:`run_stage` runs exactly one stage given the previous stage's
      feature map, returning ``(features, logits)``.  This is the unit of
      work the RTDeepIoT scheduler dispatches.
    """

    def __init__(self, config: Optional[StagedResNetConfig] = None) -> None:
        super().__init__()
        self.config = config or StagedResNetConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        # Bottom convolutional layer (the one layer outside all stages in Fig. 3).
        self.stem = Sequential(
            Conv2D(cfg.in_channels, cfg.stage_channels[0], 3, stride=1, padding=1,
                   bias=False, rng=rng),
            BatchNorm2D(cfg.stage_channels[0]),
        )

        stages: List[Sequential] = []
        classifiers: List[StageClassifier] = []
        prev = cfg.stage_channels[0]
        for stage_idx, channels in enumerate(cfg.stage_channels):
            blocks: List[Module] = []
            for block_idx in range(cfg.blocks_per_stage):
                stride = 2 if (block_idx == 0 and stage_idx > 0) else 1
                blocks.append(ResidualBlock(prev, channels, stride=stride, rng=rng))
                prev = channels
            stages.append(Sequential(*blocks))
            classifiers.append(StageClassifier(channels, cfg.num_classes, rng=rng))
        self.stages = stages
        self.classifiers = classifiers

    # ------------------------------------------------------------------
    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def forward(self, x: Tensor) -> List[Tensor]:
        """Run all stages; return the list of per-stage logits."""
        x = as_tensor(x)
        features = self.stem(x).relu()
        logits: List[Tensor] = []
        for stage, classifier in zip(self.stages, self.classifiers):
            features = stage(features)
            logits.append(classifier(features))
        return logits

    def run_stem(self, x: Tensor) -> Tensor:
        """Run the bottom convolution; the result feeds :meth:`run_stage` (0)."""
        return self.stem(as_tensor(x)).relu()

    def run_stage(self, features: Tensor, stage_idx: int) -> Tuple[Tensor, Tensor]:
        """Execute stage ``stage_idx`` on ``features`` from the previous stage.

        Returns ``(new_features, logits)``.
        """
        if not 0 <= stage_idx < self.num_stages:
            raise IndexError(f"stage {stage_idx} out of range [0, {self.num_stages})")
        new_features = self.stages[stage_idx](features)
        logits = self.classifiers[stage_idx](new_features)
        return new_features, logits

    # ------------------------------------------------------------------
    # Numpy-facing inference helpers (the no-Tensor fast path)
    # ------------------------------------------------------------------
    def infer_stem(self, x: np.ndarray) -> np.ndarray:
        """Raw-ndarray stem: no autograd graph, no Tensor wrappers."""
        return F.relu_infer(self.stem.infer(np.asarray(x)))

    def infer_stage(self, features: np.ndarray, stage_idx: int) -> Tuple[np.ndarray, np.ndarray]:
        """Raw-ndarray counterpart of :meth:`run_stage`.

        Returns ``(new_features, logits)`` as plain arrays.  Activations are
        never wrapped in :class:`Tensor`, so per-stage serving pays neither
        graph construction nor backward-closure allocation.  Outputs are
        bit-identical to :meth:`run_stage` in eval mode.
        """
        if not 0 <= stage_idx < self.num_stages:
            raise IndexError(f"stage {stage_idx} out of range [0, {self.num_stages})")
        new_features = self.stages[stage_idx].infer(features)
        logits = self.classifiers[stage_idx].infer(new_features)
        return new_features, logits

    def predict_proba(self, x: np.ndarray) -> List[np.ndarray]:
        """Per-stage softmax probabilities for a batch (eval mode respected).

        In eval mode this runs the raw-ndarray fast path; during training
        (batch statistics, running-stat updates) it falls back to the
        recording forward.  Both produce bit-identical probabilities.
        """
        if self.training:
            logits = self.forward(Tensor(x))
            return [F.softmax(l, axis=-1).data for l in logits]
        features = self.infer_stem(np.asarray(x))
        probs: List[np.ndarray] = []
        for stage_idx in range(self.num_stages):
            features, logits = self.infer_stage(features, stage_idx)
            probs.append(F.softmax_infer(logits, axis=-1))
        return probs

    def predict(self, x: np.ndarray, stage: int = -1) -> np.ndarray:
        """Class predictions using the classifier of ``stage`` (default: last)."""
        return self.predict_proba(x)[stage].argmax(axis=-1)

    def stage_confidences(self, x: np.ndarray) -> np.ndarray:
        """Matrix (num_stages, N) of top-1 confidence at each stage."""
        probs = self.predict_proba(x)
        return np.stack([p.max(axis=-1) for p in probs], axis=0)

    def stage_layer_specs(self) -> List[List[dict]]:
        """Describe each stage's conv layers for the execution profiler.

        Returns, per stage, a list of dicts with ``in_channels``,
        ``out_channels``, ``kernel``, ``stride`` and ``input_size`` — the
        features the FastDeepIoT-style profiler (S8) regresses on.
        """
        specs: List[List[dict]] = []
        size = self.config.image_size
        for stage_idx, stage in enumerate(self.stages):
            layer_specs: List[dict] = []
            for block in stage:
                for conv in (block.conv1, block.conv2):
                    layer_specs.append(
                        {
                            "in_channels": conv.in_channels,
                            "out_channels": conv.out_channels,
                            "kernel": conv.kernel,
                            "stride": conv.stride,
                            "input_size": size,
                        }
                    )
                    if conv.stride > 1:
                        size //= conv.stride
            specs.append(layer_specs)
        return specs
