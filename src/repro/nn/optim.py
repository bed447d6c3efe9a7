"""Gradient-descent optimizers for the :mod:`repro.nn` substrate."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .layers import Parameter


class Optimizer:
    """Base optimizer over a list of parameters."""

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class SGD(Optimizer):
    """SGD with optional momentum and weight decay."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.params)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                if self._velocity[i] is None:
                    self._velocity[i] = np.zeros_like(p.data)
                self._velocity[i] = self.momentum * self._velocity[i] + grad
                grad = self._velocity[i]
            p.data = p.data - self.lr * grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: List[Optional[np.ndarray]] = [None] * len(self.params)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.params)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1 - self.beta1**self._t
        bias2 = 1 - self.beta2**self._t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self._m[i] is None:
                self._m[i] = np.zeros_like(p.data)
                self._v[i] = np.zeros_like(p.data)
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * grad**2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class StepLR:
    """Multiplies the optimizer learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._epoch = 0

    def step(self) -> None:
        self._epoch += 1
        if self._epoch % self.step_size == 0:
            self.optimizer.lr *= self.gamma


def clip_grad_norm(params: Sequence[Parameter], max_norm: float) -> float:
    """Clip the global gradient norm in place; returns the pre-clip norm."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm
