"""The DeepSense architecture (Sec. II-A, [4]) on the numpy substrate.

"Sensory data are aligned and divided into time intervals for processing.
For each interval, DeepSense first applies an individual CNN to each sensor
data stream, encoding relevant local features.  A (global) CNN is then
applied to the respective outputs to model interactions among multiple
sensors for effective sensor fusion.  Next, an RNN is applied to extract
temporal trends. ...  at the last stage, either an affine transformation or
a softmax output is used ... depending on whether the output is an
estimation or a classification result."

This module implements exactly that pipeline:

- per-sensor 1-D-over-time convolutions inside each interval (realized as
  Conv2D with a (1, k) receptive field by treating the channel axis as the
  sensor's measurement axes);
- a merge convolution across sensors;
- a GRU over the interval sequence;
- a softmax head (classification) or an affine head (estimation), the
  latter optionally emitting (mean, log-variance) pairs for the RDeepSense
  uncertainty extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import functional as F
from .layers import Conv2D, Dense, Module, Sequential
from .rnn import GRU
from .tensor import Tensor, as_tensor, concatenate


@dataclass
class DeepSenseConfig:
    num_sensors: int = 2
    channels_per_sensor: int = 3
    num_intervals: int = 8
    samples_per_interval: int = 16
    #: channels of the per-sensor and merge convolutions.
    conv_channels: int = 8
    #: kernel length along the time axis within an interval.
    kernel: int = 3
    hidden_size: int = 32
    #: classification: number of classes; estimation: output dimension.
    output_dim: int = 6
    task: str = "classification"  # or "estimation"
    #: estimation only — also emit a log-variance per output (RDeepSense).
    predict_variance: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.task not in ("classification", "estimation"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.task == "classification" and self.predict_variance:
            raise ValueError("variance output applies to estimation tasks only")
        if min(self.num_sensors, self.channels_per_sensor, self.num_intervals,
               self.samples_per_interval, self.conv_channels,
               self.hidden_size, self.output_dim) < 1:
            raise ValueError("all dimensions must be positive")


class DeepSense(Module):
    """Sensor-fusion network: per-sensor CNN -> merge CNN -> GRU -> head.

    Input layout matches :func:`repro.datasets.make_sensor_dataset`:
    ``(N, num_sensors * channels_per_sensor, num_intervals,
    samples_per_interval)``.
    """

    def __init__(self, config: Optional[DeepSenseConfig] = None) -> None:
        super().__init__()
        self.config = config or DeepSenseConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        pad = cfg.kernel // 2

        # One local CNN per sensor; convolution runs along the within-
        # interval time axis (width), with kernel height 1 realized by
        # keeping intervals separate (kernel k, padding over width only is
        # approximated with square kernels over the (interval, time) grid
        # restricted by interval height 1 slices in forward()).
        self.local_convs = [
            Sequential(
                Conv2D(cfg.channels_per_sensor, cfg.conv_channels, cfg.kernel,
                       stride=1, padding=pad, rng=rng),
            )
            for _ in range(cfg.num_sensors)
        ]
        self.merge_conv = Conv2D(
            cfg.num_sensors * cfg.conv_channels, cfg.conv_channels, cfg.kernel,
            stride=1, padding=pad, rng=rng,
        )
        self.gru = GRU(cfg.conv_channels * cfg.samples_per_interval,
                       cfg.hidden_size, rng=rng)
        head_out = cfg.output_dim * (2 if cfg.predict_variance else 1)
        self.head = Dense(cfg.hidden_size, head_out, rng=rng)

    # ------------------------------------------------------------------
    def _split_sensors(self, x: Tensor) -> List[Tensor]:
        cfg = self.config
        per = cfg.channels_per_sensor
        return [x[:, i * per : (i + 1) * per, :, :] for i in range(cfg.num_sensors)]

    def features(self, x: Tensor) -> Tensor:
        """Fused temporal features: the GRU's final hidden state (N, H)."""
        x = as_tensor(x)
        cfg = self.config
        expected = (cfg.num_sensors * cfg.channels_per_sensor,
                    cfg.num_intervals, cfg.samples_per_interval)
        if x.ndim != 4 or x.shape[1:] != expected:
            raise ValueError(f"expected input (N, {expected}), got {x.shape}")
        # Per-sensor local CNNs.
        encoded = [conv(s).relu() for conv, s in
                   zip(self.local_convs, self._split_sensors(x))]
        # Merge CNN across sensors.
        merged = self.merge_conv(concatenate(encoded, axis=1)).relu()
        # (N, C, I, T) -> sequence over intervals with flattened features.
        n = merged.shape[0]
        seq = merged.transpose(0, 2, 1, 3).reshape(
            n, cfg.num_intervals, cfg.conv_channels * cfg.samples_per_interval
        )
        _, state = self.gru(seq)
        return state

    def forward(self, x: Tensor) -> Tensor:
        """Logits (classification) or point estimates / (mean, log-var) pairs."""
        return self.head(self.features(x))

    # ------------------------------------------------------------------
    # Inference fast path: raw ndarrays end to end, no Tensor wrappers.
    # ------------------------------------------------------------------
    def infer_features(self, x: np.ndarray) -> np.ndarray:
        """Raw-ndarray counterpart of :meth:`features` (bit-identical)."""
        x = np.asarray(x)
        cfg = self.config
        expected = (cfg.num_sensors * cfg.channels_per_sensor,
                    cfg.num_intervals, cfg.samples_per_interval)
        if x.ndim != 4 or x.shape[1:] != expected:
            raise ValueError(f"expected input (N, {expected}), got {x.shape}")
        per = cfg.channels_per_sensor
        encoded = [
            F.relu_infer(conv.infer(x[:, i * per : (i + 1) * per, :, :]))
            for i, conv in enumerate(self.local_convs)
        ]
        merged = F.relu_infer(self.merge_conv.infer(np.concatenate(encoded, axis=1)))
        n = merged.shape[0]
        seq = merged.transpose(0, 2, 1, 3).reshape(
            n, cfg.num_intervals, cfg.conv_channels * cfg.samples_per_interval
        )
        return self.gru.infer(seq)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Raw-ndarray head outputs (logits / estimates), no graph built."""
        return self.head.infer(self.infer_features(x))

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self.config.task != "classification":
            raise RuntimeError("predict_proba applies to classification models")
        if self.training:
            return F.softmax(self.forward(Tensor(x)), axis=-1).data
        return F.softmax_infer(self.infer(np.asarray(x)), axis=-1)

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.config.task == "classification":
            return self.predict_proba(x).argmax(axis=-1)
        mean, _ = self.predict_with_uncertainty(x)
        return mean

    def split_mean_logvar(self, out: Tensor) -> Tuple[Tensor, Tensor]:
        """Split an estimation head's output into (mean, log_var)."""
        if not self.config.predict_variance:
            raise RuntimeError("model was built without variance outputs")
        d = self.config.output_dim
        return out[:, :d], out[:, d:]

    def predict_with_uncertainty(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(mean, std) for estimation models; std is zeros without variance head."""
        if self.config.task != "estimation":
            raise RuntimeError("uncertainty output applies to estimation models")
        if self.training:
            out = self.forward(Tensor(x)).data
        else:
            out = self.infer(np.asarray(x))
        if self.config.predict_variance:
            d = self.config.output_dim
            mean, log_var = out[:, :d], out[:, d:]
            return mean, np.exp(0.5 * log_var)
        return out, np.zeros_like(out)
