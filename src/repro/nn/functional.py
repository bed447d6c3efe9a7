"""Neural-network operations built on the :mod:`repro.nn.tensor` autograd engine.

Implements the convolution/pooling/softmax machinery required by the staged
ResNet of the Eugene paper (Fig. 3).  A convolution is lowered by im2col to
one padded copy, one strided copy and one ``np.matmul`` (BLAS) call.  At the
staged ResNet's sizes numpy's per-call overhead, not arithmetic, dominates a
stage forward, so a convolution makes no other numpy call of any cost.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from .tensor import Tensor, as_tensor, no_grad


# ----------------------------------------------------------------------
# im2col / col2im lowering
# ----------------------------------------------------------------------
def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution along one axis."""
    return (size + 2 * pad - kernel) // stride + 1


class _ScratchPool(threading.local):
    """Per-thread reusable buffers for the inference fast path.

    Keyed by (shape, dtype, pad); ``factory`` makes a buffer the first time
    a key is seen.  A pool holds at most ``MAX_BYTES``: the oldest buffers
    are evicted to make room, and a buffer larger than that on its own is
    handed out but not kept, so a one-off large batch on a long-lived
    thread (a service's evaluation pass) does not stay resident.
    Thread-local so the runtime's worker threads never hand each other a
    buffer mid-write.  Buffers are only reused on the no-grad path: the
    autograd path retains ``cols`` inside backward closures, so it must own
    a fresh allocation per call.
    """

    #: Room for the column buffers of a 64-image staged-ResNet forward at
    #: the bench model's size (13 MB), not for a 128-image one (29 MB).
    MAX_BYTES = 16 << 20

    def __init__(self, factory) -> None:
        self.factory = factory
        self.buffers: Dict[tuple, np.ndarray] = {}

    def get(self, shape: Tuple[int, ...], dtype: np.dtype, pad: int = 0) -> np.ndarray:
        key = (shape, dtype, pad)
        buf = self.buffers.get(key)
        if buf is None:
            buf = self.factory(shape, dtype=dtype)
            if buf.nbytes <= self.MAX_BYTES:
                held = sum(b.nbytes for b in self.buffers.values())
                while held + buf.nbytes > self.MAX_BYTES:
                    held -= self.buffers.pop(next(iter(self.buffers))).nbytes
                self.buffers[key] = buf
        return buf


# Column buffers are fully overwritten by every call.  Pad buffers start at
# zero and only their interior is ever written, so the border stays zero;
# ``pad`` is part of their key because it fixes where the interior lies.
_cols_scratch = _ScratchPool(np.empty)
_pad_scratch = _ScratchPool(np.zeros)


def _patch_view(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Zero-copy (N, C, k, k, out_h, out_w) sliding-patch view of ``x``.

    Pure stride arithmetic via ``as_strided`` — no data is moved; the view
    aliases ``x`` and is marked read-only.
    """
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kernel, kernel, out_h, out_w),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kernel: int, stride: int, pad: int, reuse_scratch: bool = False
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Lower NCHW input to column form.

    Returns ``(cols, (out_h, out_w))`` where ``cols`` has shape
    ``(N, C * kernel * kernel, out_h * out_w)``.

    Padding is one copy of ``x`` into the interior of a zero-bordered
    buffer; patch gathering is one strided copy out of an ``as_strided``
    view of it (no per-offset python loop).  With ``reuse_scratch=True``
    both buffers come from per-thread pools — the padded one keeps the
    zero border it was made with, since only its interior is ever written
    — and the column buffer is overwritten by the next scratch call, so
    this is valid only when the caller does not retain it (the no-grad
    inference path).
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    if pad > 0:
        padded_shape = (n, c, h + 2 * pad, w + 2 * pad)
        if reuse_scratch:
            padded = _pad_scratch.get(padded_shape, x.dtype, pad)
        else:
            padded = np.zeros(padded_shape, dtype=x.dtype)
        padded[:, :, pad:pad + h, pad:pad + w] = x
        x = padded
    cols_shape = (n, c * kernel * kernel, out_h * out_w)
    if reuse_scratch:
        cols = _cols_scratch.get(cols_shape, x.dtype)
    else:
        cols = np.empty(cols_shape, dtype=x.dtype)
    np.copyto(cols.reshape(n, c, kernel, kernel, out_h, out_w),
              _patch_view(x, kernel, stride))
    return cols, (out_h, out_w)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to NCHW."""
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kernel, stride, pad)
    out_w = conv_output_size(w, kernel, stride, pad)
    cols = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for ki in range(kernel):
        i_max = ki + stride * out_h
        for kj in range(kernel):
            j_max = kj + stride * out_w
            padded[:, :, ki:i_max:stride, kj:j_max:stride] += cols[:, :, ki, kj, :, :]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


# ----------------------------------------------------------------------
# Convolution / pooling
# ----------------------------------------------------------------------
def _conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int,
    padding: int,
    reuse_scratch: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared raw-ndarray convolution forward; returns ``(out, cols)``.

    One :func:`im2col` and one ``np.matmul`` of the ``(out_c, C*k*k)``
    weight matrix against every image's ``(C*k*k, out_h*out_w)`` columns.
    Both the autograd op and the no-grad fast path run exactly this code,
    so their outputs are bit-identical by construction.
    """
    n = x.shape[0]
    out_c, in_c, kernel, kernel_w = weight.shape
    if kernel != kernel_w:
        raise ValueError("only square kernels are supported")
    if x.shape[1] != in_c:
        raise ValueError(
            f"input has {x.shape[1]} channels but weight expects {in_c}"
        )
    cols, (out_h, out_w) = im2col(x, kernel, stride, padding,
                                  reuse_scratch=reuse_scratch)
    out = np.matmul(weight.reshape(out_c, -1), cols)
    out = out.reshape(n, out_c, out_h, out_w)
    if bias is not None:
        out = out + bias.reshape(1, out_c, 1, 1)
    return out, cols


def conv2d_infer(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """No-graph, no-Tensor convolution using the reusable column scratch."""
    out, _ = _conv2d_forward(x, weight, bias, stride, padding, reuse_scratch=True)
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over NCHW input.

    ``weight`` has shape ``(out_channels, in_channels, k, k)``; ``bias`` (if
    given) has shape ``(out_channels,)``.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    n = x.shape[0]
    out_c = weight.shape[0]
    kernel = weight.shape[2]
    out_data, cols = _conv2d_forward(
        x.data, weight.data, None if bias is None else bias.data, stride, padding
    )
    out_h, out_w = out_data.shape[2], out_data.shape[3]
    w2 = weight.data.reshape(out_c, -1)

    input_shape = x.shape

    def backward_fn(grad: np.ndarray) -> None:
        grad2 = grad.reshape(n, out_c, out_h * out_w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            dw = np.matmul(grad2, cols.transpose(0, 2, 1)).sum(axis=0)
            weight._accumulate(dw.reshape(weight.shape))
        if x.requires_grad:
            dcols = np.matmul(w2.T, grad2)
            x._accumulate(col2im(dcols, input_shape, kernel, stride, padding))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, backward_fn, "conv2d")


def _max_pool2d_forward(
    x: np.ndarray, kernel: int, stride: int, reuse_scratch: bool = False
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, int]]:
    """Shared max-pool forward; returns ``(out, cols, argmax, (out_h, out_w))``."""
    n, c, h, w = x.shape
    cols, (out_h, out_w) = im2col(
        x.reshape(n * c, 1, h, w), kernel, stride, 0, reuse_scratch=reuse_scratch
    )
    # cols: (n*c, kernel*kernel, out_h*out_w)
    argmax = cols.argmax(axis=1)
    out = np.take_along_axis(cols, argmax[:, None, :], axis=1)[:, 0, :]
    return out.reshape(n, c, out_h, out_w), cols, argmax, (out_h, out_w)


def max_pool2d_infer(x: np.ndarray, kernel: int = 2, stride: Optional[int] = None) -> np.ndarray:
    """No-graph max pooling on raw arrays (scratch-buffered)."""
    out, _, _, _ = _max_pool2d_forward(x, kernel, stride or kernel, reuse_scratch=True)
    return out


def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Max pooling over NCHW input (non-overlapping by default)."""
    x = as_tensor(x)
    stride = stride or kernel
    n, c, h, w = x.shape
    out_data, cols, argmax, (out_h, out_w) = _max_pool2d_forward(x.data, kernel, stride)

    def backward_fn(grad: np.ndarray) -> None:
        dcols = np.zeros_like(cols)
        np.put_along_axis(
            dcols, argmax[:, None, :], grad.reshape(n * c, 1, out_h * out_w), axis=1
        )
        dx = col2im(dcols, (n * c, 1, h, w), kernel, stride, 0)
        x._accumulate(dx.reshape(n, c, h, w))

    return Tensor._make(out_data, (x,), backward_fn, "max_pool2d")


def _avg_pool2d_forward(
    x: np.ndarray, kernel: int, stride: int, reuse_scratch: bool = False
) -> Tuple[np.ndarray, Tuple[int, int]]:
    n, c, h, w = x.shape
    cols, (out_h, out_w) = im2col(
        x.reshape(n * c, 1, h, w), kernel, stride, 0, reuse_scratch=reuse_scratch
    )
    return cols.mean(axis=1).reshape(n, c, out_h, out_w), (out_h, out_w)


def avg_pool2d_infer(x: np.ndarray, kernel: int = 2, stride: Optional[int] = None) -> np.ndarray:
    """No-graph average pooling on raw arrays (scratch-buffered)."""
    out, _ = _avg_pool2d_forward(x, kernel, stride or kernel, reuse_scratch=True)
    return out


def avg_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None) -> Tensor:
    """Average pooling over NCHW input."""
    x = as_tensor(x)
    stride = stride or kernel
    n, c, h, w = x.shape
    out_data, (out_h, out_w) = _avg_pool2d_forward(x.data, kernel, stride)
    denom = kernel * kernel

    def backward_fn(grad: np.ndarray) -> None:
        # The pooling gradient is constant across each kernel window, so
        # scatter-add the (scaled) output gradient directly at every kernel
        # offset instead of materializing a dense dcols copy via
        # broadcast_to(...).astype(...).
        g = grad.reshape(n * c, 1, out_h, out_w) / denom
        dx = np.zeros((n * c, 1, h, w), dtype=g.dtype)
        for ki in range(kernel):
            i_max = ki + stride * out_h
            for kj in range(kernel):
                j_max = kj + stride * out_w
                dx[:, :, ki:i_max:stride, kj:j_max:stride] += g
        x._accumulate(dx.reshape(n, c, h, w))

    return Tensor._make(out_data, (x,), backward_fn, "avg_pool2d")


def global_avg_pool2d_infer(x: np.ndarray) -> np.ndarray:
    """Raw-array global average pool, bit-identical to the Tensor path.

    :meth:`Tensor.mean` computes ``sum * (1/count)`` (not ``sum / count``),
    so the fast path repeats that exact arithmetic.
    """
    count = x.shape[2] * x.shape[3]
    return x.sum(axis=(2, 3)) * (1.0 / count)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Spatially average NCHW features to (N, C)."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    logsumexp = np.log(exp.sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp
    softmax_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad - softmax_data * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward_fn, "log_softmax")


def softmax_infer(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax on raw arrays (same arithmetic as softmax)."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def relu_infer(x: np.ndarray) -> np.ndarray:
    """Raw-array ReLU, bit-identical to :meth:`Tensor.relu` (``x * (x > 0)``)."""
    return x * (x > 0)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax."""
    x = as_tensor(x)
    out_data = softmax_infer(x.data, axis=axis)

    def backward_fn(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward_fn, "softmax")


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-rate)``."""
    if not training or rate <= 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = as_tensor(x)
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep) / keep

    def backward_fn(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(x.data * mask, (x,), backward_fn, "dropout")


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` to a one-hot float matrix ``(N, num_classes)``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= num_classes):
        raise ValueError("label out of range")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` (weight shape: (in, out))."""
    out = as_tensor(x) @ weight
    if bias is not None:
        out = out + bias
    return out
