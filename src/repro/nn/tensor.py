"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the :mod:`repro.nn` deep-learning substrate
that replaces TensorFlow in the Eugene reproduction (see DESIGN.md, S1).  It
implements a small but complete define-by-run autograd engine: every
:class:`Tensor` records the operation that produced it and a closure that
propagates gradients to its parents; :meth:`Tensor.backward` performs a
topological sweep over that graph.

All arithmetic is broadcast-aware: gradients flowing into a broadcast operand
are reduced back to the operand's original shape by :func:`unbroadcast`.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, "Tensor", Sequence]

_DEFAULT_DTYPE = np.float64


class _GradMode(threading.local):
    """Thread-local autograd switch.

    Thread-local (not global) because the inference runtime's worker threads
    run forward passes in no-grad mode while a training loop may be
    backpropagating concurrently on another thread.
    """

    def __init__(self) -> None:
        self.enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Whether operations on tensors currently record an autograd graph."""
    return _grad_mode.enabled


def set_grad_enabled(enabled: bool) -> bool:
    """Set the autograd switch for this thread; returns the previous value."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = bool(enabled)
    return previous


class no_grad:
    """Context manager / decorator that disables graph construction.

    Inside the context every produced :class:`Tensor` is a detached leaf:
    no parents, no backward closure, ``requires_grad=False``.  Forward
    values are identical to the recording path; only the tape is skipped.
    """

    def __enter__(self) -> "no_grad":
        self._previous = set_grad_enabled(False)
        return self

    def __exit__(self, *exc_info) -> None:
        set_grad_enabled(self._previous)

    def __call__(self, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        wrapped.__name__ = getattr(fn, "__name__", "wrapped")
        wrapped.__doc__ = fn.__doc__
        return wrapped


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (the gradient of a broadcast result) to ``shape``.

    Numpy broadcasting either prepends new axes or stretches axes of size 1.
    The adjoint of broadcasting is summation over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    stretched = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if arr.dtype.kind in "fiub":
        arr = arr.astype(_DEFAULT_DTYPE, copy=False)
    return arr


def as_tensor(value: ArrayLike) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


class Tensor:
    """A numpy array with an autograd tape.

    Parameters
    ----------
    data:
        Anything convertible to ``np.ndarray``.  Float/integer/bool inputs are
        promoted to float64, the engine's working dtype.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "op")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        op: str = "leaf",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._backward_fn = _backward_fn
        self.op = op

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """A new leaf tensor sharing this tensor's data, cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction / backward
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (so calling ``backward()`` on a scalar loss
        computes standard gradients).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"backward grad shape {grad.shape} != tensor shape {self.data.shape}"
                )

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward_fn: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        requires = _grad_mode.enabled and any(p.requires_grad for p in parents)
        grad_parents = tuple(p for p in parents if p.requires_grad) if requires else ()
        return Tensor(
            data,
            requires_grad=requires,
            _parents=grad_parents,
            _backward_fn=backward_fn if requires else None,
            op=op,
        )

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward_fn, "add")

    __radd__ = __add__

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward_fn, "mul")

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward_fn, "neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) + (-self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward_fn, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ supports scalar exponents only")
        out_data = self.data**exponent

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward_fn, "pow")

    # ------------------------------------------------------------------
    # Comparison (no gradient; returns plain arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward_fn, "exp")

    def log(self) -> "Tensor":
        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward_fn, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward_fn, "sqrt")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward_fn, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward_fn, "sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(self.data * mask, (self,), backward_fn, "relu")

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * scale)

        return Tensor._make(self.data * scale, (self,), backward_fn, "leaky_relu")

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward_fn, "abs")

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward_fn, "clip")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(
        self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward_fn(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                g = np.expand_dims(g, axis=tuple(sorted(axes)))
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward_fn, "sum")

    def mean(
        self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(
        self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(
        self, axis: Optional[int] = None, keepdims: bool = False
    ) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward_fn(grad: np.ndarray) -> None:
            if axis is None:
                mask = self.data == out_data
                g = grad * mask / mask.sum()
            else:
                expanded = out_data if keepdims else np.expand_dims(out_data, axis)
                mask = self.data == expanded
                g = grad if keepdims else np.expand_dims(grad, axis)
                g = g * mask / mask.sum(axis=axis, keepdims=True)
            self._accumulate(g)

        return Tensor._make(out_data, (self,), backward_fn, "max")

    # ------------------------------------------------------------------
    # Linear algebra / shape ops
    # ------------------------------------------------------------------
    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.ndim == 1:
                    self._accumulate(np.outer(grad, other.data).reshape(self.shape))
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(unbroadcast(g, self.shape))
            if other.requires_grad:
                if self.ndim == 1:
                    other._accumulate(np.outer(self.data, grad).reshape(other.shape))
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                    other._accumulate(unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), backward_fn, "matmul")

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward_fn, "reshape")

    def transpose(self, *axes: int) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward_fn, "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward_fn(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward_fn, "getitem")


# ----------------------------------------------------------------------
# Module-level helpers operating on tensors
# ----------------------------------------------------------------------
def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                idx = [slice(None)] * grad.ndim
                idx[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(idx)])

    out = Tensor._make(out_data, tuple(tensors), backward_fn, "concat")
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward_fn(grad: np.ndarray) -> None:
        pieces = np.moveaxis(grad, axis, 0)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate(piece)

    return Tensor._make(out_data, tuple(tensors), backward_fn, "stack")


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Differentiable selection: gradient flows to whichever branch was taken."""
    a, b = as_tensor(a), as_tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(grad * cond, a.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(grad * ~cond, b.shape))

    return Tensor._make(out_data, (a, b), backward_fn, "where")


def numeric_gradient(
    fn: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of a scalar function, for gradient checks."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        hi = fn(x)
        flat[i] = original - eps
        lo = fn(x)
        flat[i] = original
        grad_flat[i] = (hi - lo) / (2 * eps)
    return grad
