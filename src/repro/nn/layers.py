"""Layer and module abstractions for the :mod:`repro.nn` substrate.

A :class:`Module` owns named parameters and child modules, supports
train/eval mode switching (needed by Dropout and BatchNorm, and by the
RDeepSense MC-dropout calibration baseline which runs dropout at inference
time), and provides a flat ``state_dict`` for the Eugene model-caching
service to serialize reduced models.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init as initializers
from .tensor import Tensor, no_grad


class Parameter(Tensor):
    """A trainable tensor — always requires grad."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self.training = True

    # -- forward -------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference fast path: raw ndarray in, raw ndarray out, no graph.

        Subclasses on the hot path override this with Tensor-free numpy
        code whose arithmetic matches :meth:`forward` bit for bit.  The
        default falls back to a no-grad :meth:`forward`, so any module is
        at least graph-free under :func:`repro.nn.tensor.no_grad`.
        """
        with no_grad():
            return self.forward(Tensor(x)).data

    # -- traversal -----------------------------------------------------
    def children(self) -> Iterator["Module"]:
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in self.__dict__.items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{i}", item

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- mode ----------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- serialization -------------------------------------------------
    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Non-trainable persistent arrays (e.g. batch-norm running stats).

        Any plain ``np.ndarray`` attribute of a module is treated as a
        buffer — trainable tensors are :class:`Parameter` instances and are
        reported by :meth:`named_parameters` instead.
        """
        for name, value in self.__dict__.items():
            full = f"{prefix}{name}"
            if isinstance(value, np.ndarray):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_buffers(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_buffers(prefix=f"{full}.{i}.")

    def state_dict(self) -> Dict[str, np.ndarray]:
        """All parameters *and* buffers, keyed by dotted path."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({name: b.copy() for name, b in self.named_buffers()})
        return state

    def _set_buffer(self, dotted: str, value: np.ndarray) -> None:
        parts = dotted.split(".")
        target = self
        for part in parts[:-1]:
            if part.isdigit():
                target = target[int(part)] if hasattr(target, "__getitem__") else getattr(target, part)
            else:
                attr = getattr(target, part)
                target = attr
        setattr(target, parts[-1], value)

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        expected = set(params) | set(buffers)
        missing = expected - set(state)
        unexpected = set(state) - expected
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, p in params.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{p.data.shape} vs {state[name].shape}"
                )
            p.data = state[name].astype(np.float64, copy=True)
        for name, b in buffers.items():
            if b.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for buffer {name}: "
                    f"{b.shape} vs {state[name].shape}"
                )
            self._set_buffer(name, state[name].astype(np.float64, copy=True))


class Dense(Module):
    """Fully connected layer: ``y = x @ W + b`` with ``W`` shaped (in, out)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(initializers.he_normal((in_features, out_features), rng))
        self.bias = Parameter(initializers.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def infer(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out


class Conv2D(Module):
    """2-D convolution over NCHW input with square kernels."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        padding: int = 1,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            initializers.he_normal((out_channels, in_channels, kernel, kernel), rng)
        )
        self.bias = Parameter(initializers.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return F.conv2d_infer(
            x,
            self.weight.data,
            None if self.bias is None else self.bias.data,
            stride=self.stride,
            padding=self.padding,
        )


class BatchNorm2D(Module):
    """Batch normalization over NCHW channels with running statistics."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(initializers.ones((channels,)))
        self.beta = Parameter(initializers.zeros((channels,)))
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)

    def forward(self, x: Tensor) -> Tensor:
        axes = (0, 2, 3)
        if self.training:
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean.data.reshape(-1)
            self.running_var = (1 - m) * self.running_var + m * var.data.reshape(-1)
            normalized = (x - mean) / (var + self.eps).sqrt()
        else:
            mean = self.running_mean.reshape(1, -1, 1, 1)
            std = np.sqrt(self.running_var + self.eps).reshape(1, -1, 1, 1)
            normalized = (x - mean) * (1.0 / std)
        shape = (1, self.channels, 1, 1)
        return normalized * self.gamma.reshape(shape) + self.beta.reshape(shape)

    def infer(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            # Batch statistics (and running-stat updates) need the full
            # forward; inference mode is an eval-time construct.
            return super().infer(x)
        mean = self.running_mean.reshape(1, -1, 1, 1)
        std = np.sqrt(self.running_var + self.eps).reshape(1, -1, 1, 1)
        normalized = (x - mean) * (1.0 / std)
        shape = (1, self.channels, 1, 1)
        return normalized * self.gamma.data.reshape(shape) + self.beta.data.reshape(shape)


class BatchNorm1D(Module):
    """Batch normalization over (N, features) input."""

    def __init__(self, features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.features = features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(initializers.ones((features,)))
        self.beta = Parameter(initializers.zeros((features,)))
        self.running_mean = np.zeros(features, dtype=np.float64)
        self.running_var = np.ones(features, dtype=np.float64)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mean = x.mean(axis=0, keepdims=True)
            var = x.var(axis=0, keepdims=True)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean.data.reshape(-1)
            self.running_var = (1 - m) * self.running_var + m * var.data.reshape(-1)
            normalized = (x - mean) / (var + self.eps).sqrt()
        else:
            mean = self.running_mean.reshape(1, -1)
            std = np.sqrt(self.running_var + self.eps).reshape(1, -1)
            normalized = (x - mean) * (1.0 / std)
        return normalized * self.gamma + self.beta

    def infer(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            return super().infer(x)
        mean = self.running_mean.reshape(1, -1)
        std = np.sqrt(self.running_var + self.eps).reshape(1, -1)
        normalized = (x - mean) * (1.0 / std)
        return normalized * self.gamma.data + self.beta.data


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def infer(self, x: np.ndarray) -> np.ndarray:
        return F.relu_infer(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()

    def infer(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))


class Dropout(Module):
    """Inverted dropout.

    ``always_on=True`` keeps dropout active in eval mode — this is the knob
    the RDeepSense-style MC-dropout calibration baseline uses to draw
    stochastic forward passes at inference time.
    """

    def __init__(self, rate: float = 0.5, seed: int = 0, always_on: bool = False) -> None:
        super().__init__()
        self.rate = rate
        self.always_on = always_on
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        active = self.training or self.always_on
        return F.dropout(x, self.rate, self._rng, training=active)

    def infer(self, x: np.ndarray) -> np.ndarray:
        if self.training or self.always_on:
            # MC dropout needs a stochastic pass; take the no-grad fallback
            # so the mask comes from the same rng stream as forward().
            return super().infer(x)
        return x


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)


class GlobalAvgPool2D(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return F.global_avg_pool2d_infer(x)


class MaxPool2D(Module):
    def __init__(self, kernel: int = 2, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel = kernel
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel, self.stride)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return F.max_pool2d_infer(x, self.kernel, self.stride)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.infer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
