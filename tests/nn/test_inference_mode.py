"""The no-grad inference fast path: semantics and bit-for-bit parity.

The fast path must be an *optimisation*, not an approximation: every raw
ndarray ``*_infer`` helper and every ``Module.infer`` override must produce
exactly the bytes the autograd forward produces in eval mode.  These tests
pin that contract with ``assert_array_equal`` (no tolerances).
"""

import sys
import threading

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Dropout,
    Sequential,
    StagedResNet,
    StagedResNetConfig,
    Tensor,
    is_grad_enabled,
    no_grad,
    set_grad_enabled,
)
from repro.nn import functional as F
from repro.nn.deepsense import DeepSense, DeepSenseConfig
from repro.nn.functional import im2col
from repro.nn.resnet import ResidualBlock

from .gradcheck import gradcheck


# ----------------------------------------------------------------------
# no_grad semantics
# ----------------------------------------------------------------------
class TestNoGradMode:
    def test_default_is_enabled(self):
        assert is_grad_enabled()

    def test_context_manager_disables_and_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():  # nesting
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_no_graph_is_built(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with no_grad():
            y = (x * 2.0).relu().sum()
        assert not y.requires_grad
        assert y._parents == ()
        assert y._backward_fn is None

    def test_values_match_grad_mode(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        ref = (x @ Tensor(rng.normal(size=(5, 3)))).sigmoid()
        rng = np.random.default_rng(0)
        x2 = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        with no_grad():
            fast = (x2 @ Tensor(rng.normal(size=(5, 3)))).sigmoid()
        np.testing.assert_array_equal(ref.data, fast.data)

    def test_decorator(self):
        @no_grad()
        def f(t):
            assert not is_grad_enabled()
            return t * 3.0

        x = Tensor(np.ones(3), requires_grad=True)
        y = f(x)
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_set_grad_enabled_returns_previous(self):
        prev = set_grad_enabled(False)
        try:
            assert prev is True
            assert not is_grad_enabled()
        finally:
            set_grad_enabled(prev)
        assert is_grad_enabled()

    def test_mode_is_thread_local(self):
        seen = {}

        def probe():
            seen["worker"] = is_grad_enabled()

        with no_grad():
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen["worker"] is True  # other threads keep grad on

    def test_backward_still_works_after_no_grad(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        with no_grad():
            (x * 5.0).sum()
        loss = (x * x).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, [4.0, 6.0])


# ----------------------------------------------------------------------
# im2col: pinned against a loop reference + gradcheck through the new path
# ----------------------------------------------------------------------
def _im2col_reference(x, kernel, stride, pad):
    """The straightforward per-offset implementation (the old code path)."""
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    cols = np.empty((n, c, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            cols[:, :, ki, kj, :, :] = x[
                :, :, ki : ki + stride * out_h : stride, kj : kj + stride * out_w : stride
            ]
    return cols.reshape(n, c * kernel * kernel, out_h * out_w), (out_h, out_w)


class TestIm2ColFastPath:
    @pytest.mark.parametrize(
        "shape,kernel,stride,pad",
        [
            ((2, 3, 6, 6), 3, 1, 1),
            ((1, 1, 5, 5), 3, 2, 0),
            ((3, 4, 8, 8), 2, 2, 0),
            ((2, 2, 7, 7), 3, 2, 1),
            ((1, 3, 4, 4), 1, 1, 0),
        ],
    )
    def test_matches_loop_reference(self, shape, kernel, stride, pad):
        rng = np.random.default_rng(0)
        x = rng.normal(size=shape)
        ref, ref_dims = _im2col_reference(x, kernel, stride, pad)
        got, dims = im2col(x, kernel, stride, pad)
        assert dims == ref_dims
        np.testing.assert_array_equal(got, ref)

    def test_scratch_reuse_matches_fresh(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 6, 6))
        fresh, _ = im2col(x, 3, 1, 1)
        reused, _ = im2col(x, 3, 1, 1, reuse_scratch=True)
        np.testing.assert_array_equal(reused, fresh)
        # A second reuse call on new data must not be polluted by the first.
        y = rng.normal(size=(2, 3, 6, 6))
        fresh_y, _ = im2col(y, 3, 1, 1)
        reused_y, _ = im2col(y, 3, 1, 1, reuse_scratch=True)
        np.testing.assert_array_equal(reused_y, fresh_y)

    def test_im2col_output_is_writable_copy(self):
        x = np.ones((1, 1, 4, 4))
        cols, _ = im2col(x, 2, 2, 0)
        cols[...] = 0.0  # a view would raise; the contract is a real copy
        assert x.sum() == 16.0

    def test_gradcheck_conv2d_through_new_im2col(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 2, 5, 5))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        b = Tensor(rng.normal(size=(3,)))
        gradcheck(lambda t: F.conv2d(t, w, b, stride=2, padding=1), x)


# ----------------------------------------------------------------------
# Convolution lowering: numerics against a loop, and the scratch pools
# ----------------------------------------------------------------------
def _conv_reference(x, w, b, stride, pad):
    """Explicit loop over output pixels; shares no code with im2col."""
    n, c, h, wd = x.shape
    out_c, _, k, _ = w.shape
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    out_h = (h + 2 * pad - k) // stride + 1
    out_w = (wd + 2 * pad - k) // stride + 1
    out = np.empty((n, out_c, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            patch = xp[:, :, i * stride : i * stride + k, j * stride : j * stride + k]
            out[:, :, i, j] = np.tensordot(patch, w, axes=([1, 2, 3], [1, 2, 3]))
    return out + b.reshape(1, out_c, 1, 1)


class TestConvLowering:
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("batch", [1, 16])
    def test_matches_loop_reference(self, batch, stride, pad, kernel):
        rng = np.random.default_rng(batch * 100 + stride * 10 + pad + kernel)
        x = rng.normal(size=(batch, 8, 12, 12))
        w = rng.normal(size=(16, 8, kernel, kernel))
        b = rng.normal(size=(16,))
        ref = _conv_reference(x, w, b, stride, pad)
        fast = F.conv2d_infer(x, w, b, stride=stride, padding=pad)
        graph = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad).data
        np.testing.assert_allclose(fast, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(graph, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape,pad", [((2, 3, 6, 6), 1), ((2, 3, 4, 4), 2)])
    def test_scratch_border_stays_zero(self, shape, pad):
        # Both cases pad to 8x8: a 6x6 image's interior covers the 4x4
        # image's border, so the pad buffer must not be shared between them.
        rng = np.random.default_rng(20)
        w = rng.normal(size=(4, 3, 3, 3))
        F.conv2d_infer(np.full((2, 3, 6, 6), 1e6), w, None, stride=1, padding=1)
        x = rng.normal(size=shape)
        fresh = F.conv2d(Tensor(x), Tensor(w), None, stride=1, padding=pad).data
        np.testing.assert_array_equal(
            F.conv2d_infer(x, w, None, stride=1, padding=pad), fresh
        )

    def test_no_cross_talk_between_threads(self):
        """More threads than cores convolve same-shape inputs concurrently."""
        rng = np.random.default_rng(21)
        w = rng.normal(size=(8, 4, 3, 3))
        inputs = [rng.normal(size=(2, 4, 8, 8)) for _ in range(4)]
        refs = [F.conv2d_infer(x, w, None, stride=1, padding=1).copy() for x in inputs]
        start = threading.Barrier(len(inputs))
        mismatches = []

        def worker(idx):
            start.wait(timeout=10)
            for _ in range(200):
                out = F.conv2d_infer(inputs[idx], w, None, stride=1, padding=1)
                if not np.array_equal(out, refs[idx]):
                    mismatches.append(idx)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(inputs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    def test_pools_stop_allocating_for_a_model_served_at_two_batch_sizes(self):
        """The bench model at batch 1 and 16: 16 column and 8 pad shapes."""
        model = StagedResNet(StagedResNetConfig(num_classes=6, image_size=12))
        model.eval()
        rng = np.random.default_rng(22)
        batches = [rng.normal(size=(n, 3, 12, 12)) for n in (1, 16)]

        def serve_both():
            for x in batches:
                features = model.infer_stem(x)
                for stage in range(model.num_stages):
                    features, _ = model.infer_stage(features, stage)

        pools = (F._cols_scratch, F._pad_scratch)
        for pool in pools:
            pool.buffers.clear()
        serve_both()
        warm = [dict(pool.buffers) for pool in pools]
        assert [len(w) for w in warm] == [16, 8]
        for _ in range(3):
            serve_both()
        for pool, before in zip(pools, warm):
            assert pool.buffers.keys() == before.keys()
            assert all(pool.buffers[key] is buf for key, buf in before.items())

    def test_pool_holds_at_most_max_bytes_evicting_oldest_first(self):
        pool = F._ScratchPool(np.empty)
        limit = pool.MAX_BYTES
        too_big = pool.get((limit // 8 + 1,), np.float64)
        assert too_big.nbytes > limit and pool.buffers == {}
        mib = (1 << 20) // 8
        keys = [((mib + i,), np.float64, 0) for i in range(40)]
        for shape, dtype, _ in keys:
            pool.get(shape, dtype)
        assert sum(b.nbytes for b in pool.buffers.values()) <= limit
        assert list(pool.buffers) == keys[-len(pool.buffers):]
        assert len(pool.buffers) == limit // (1 << 20) - 1


# ----------------------------------------------------------------------
# Bit-for-bit parity: functional ops
# ----------------------------------------------------------------------
class TestFunctionalParity:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_conv2d(self):
        x = self.rng.normal(size=(2, 3, 8, 8))
        w = self.rng.normal(size=(4, 3, 3, 3))
        b = self.rng.normal(size=(4,))
        ref = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1).data
        fast = F.conv2d_infer(x, w, b, stride=2, padding=1)
        np.testing.assert_array_equal(fast, ref)

    def test_conv2d_no_bias(self):
        x = self.rng.normal(size=(1, 2, 6, 6))
        w = self.rng.normal(size=(3, 2, 3, 3))
        ref = F.conv2d(Tensor(x), Tensor(w), None, stride=1, padding=1).data
        np.testing.assert_array_equal(
            F.conv2d_infer(x, w, None, stride=1, padding=1), ref
        )

    def test_max_pool2d(self):
        x = self.rng.normal(size=(2, 4, 8, 8))
        ref = F.max_pool2d(Tensor(x), kernel=2).data
        np.testing.assert_array_equal(F.max_pool2d_infer(x, kernel=2), ref)

    def test_avg_pool2d(self):
        x = self.rng.normal(size=(2, 4, 8, 8))
        ref = F.avg_pool2d(Tensor(x), kernel=2).data
        np.testing.assert_array_equal(F.avg_pool2d_infer(x, kernel=2), ref)

    def test_global_avg_pool2d(self):
        x = self.rng.normal(size=(3, 5, 6, 6))
        ref = F.global_avg_pool2d(Tensor(x)).data
        np.testing.assert_array_equal(F.global_avg_pool2d_infer(x), ref)

    def test_softmax(self):
        x = self.rng.normal(size=(4, 10))
        ref = F.softmax(Tensor(x), axis=-1).data
        np.testing.assert_array_equal(F.softmax_infer(x, axis=-1), ref)

    def test_relu(self):
        x = self.rng.normal(size=(4, 10))
        ref = Tensor(x).relu().data
        np.testing.assert_array_equal(F.relu_infer(x), ref)


# ----------------------------------------------------------------------
# Bit-for-bit parity: layers and models (eval mode)
# ----------------------------------------------------------------------
class TestLayerParity:
    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def _check(self, layer, x):
        layer.eval()
        ref = layer(Tensor(x)).data
        np.testing.assert_array_equal(layer.infer(x), ref)

    def test_dense(self):
        self._check(Dense(6, 4, rng=self.rng), self.rng.normal(size=(5, 6)))

    def test_conv2d_layer(self):
        self._check(
            Conv2D(3, 4, 3, stride=1, padding=1, rng=self.rng),
            self.rng.normal(size=(2, 3, 6, 6)),
        )

    def test_batchnorm2d_eval(self):
        bn = BatchNorm2D(4)
        # Give the running stats some non-trivial values first.
        bn.train()
        for _ in range(3):
            bn(Tensor(self.rng.normal(loc=1.5, scale=2.0, size=(8, 4, 5, 5))))
        self._check(bn, self.rng.normal(size=(2, 4, 5, 5)))

    def test_batchnorm1d_eval(self):
        bn = BatchNorm1D(6)
        bn.train()
        for _ in range(3):
            bn(Tensor(self.rng.normal(loc=-0.5, scale=3.0, size=(16, 6))))
        self._check(bn, self.rng.normal(size=(4, 6)))

    def test_dropout_eval_is_identity(self):
        drop = Dropout(0.5)
        drop.eval()
        x = self.rng.normal(size=(3, 7))
        np.testing.assert_array_equal(drop.infer(x), x)

    def test_sequential_chains_infer(self):
        seq = Sequential(
            Conv2D(2, 3, 3, stride=1, padding=1, rng=self.rng),
            BatchNorm2D(3),
        )
        self._check(seq, self.rng.normal(size=(2, 2, 5, 5)))

    def test_residual_block(self):
        block = ResidualBlock(3, 6, stride=2, rng=self.rng)
        self._check(block, self.rng.normal(size=(2, 3, 8, 8)))

    def test_residual_block_identity_shortcut(self):
        block = ResidualBlock(4, 4, stride=1, rng=self.rng)
        self._check(block, self.rng.normal(size=(2, 4, 6, 6)))


class TestModelParity:
    def test_staged_resnet_predict_proba(self):
        rng = np.random.default_rng(3)
        model = StagedResNet(
            StagedResNetConfig(
                num_classes=5, image_size=8, stage_channels=(4, 8), blocks_per_stage=1
            )
        )
        model.eval()
        x = rng.normal(size=(4, 3, 8, 8))
        fast = model.predict_proba(x)
        ref = [
            F.softmax(l, axis=-1).data for l in model.forward(Tensor(x))
        ]
        assert len(fast) == len(ref) == model.num_stages
        for got, want in zip(fast, ref):
            np.testing.assert_array_equal(got, want)

    def test_staged_resnet_infer_stage_matches_run_stage(self):
        rng = np.random.default_rng(4)
        model = StagedResNet(
            StagedResNetConfig(
                num_classes=5, image_size=8, stage_channels=(4, 8), blocks_per_stage=1
            )
        )
        model.eval()
        x = rng.normal(size=(2, 3, 8, 8))
        feats_ref = model.run_stem(Tensor(x))
        feats_fast = model.infer_stem(x)
        np.testing.assert_array_equal(feats_fast, feats_ref.data)
        for stage in range(model.num_stages):
            feats_ref, logits_ref = model.run_stage(feats_ref, stage)
            feats_fast, logits_fast = model.infer_stage(feats_fast, stage)
            np.testing.assert_array_equal(feats_fast, feats_ref.data)
            np.testing.assert_array_equal(logits_fast, logits_ref.data)

    def test_deepsense_predict_proba(self):
        cfg = DeepSenseConfig(
            num_sensors=2,
            channels_per_sensor=2,
            num_intervals=4,
            samples_per_interval=8,
            conv_channels=4,
            hidden_size=8,
            output_dim=3,
        )
        model = DeepSense(cfg)
        model.eval()
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4, 4, 8))
        fast = model.predict_proba(x)
        ref = F.softmax(model.forward(Tensor(x)), axis=-1).data
        np.testing.assert_array_equal(fast, ref)


# ----------------------------------------------------------------------
# avg_pool2d backward (the satellite fix): gradients stay exact
# ----------------------------------------------------------------------
class TestAvgPoolBackward:
    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (2, 1), (3, 3)])
    def test_gradcheck(self, kernel, stride):
        x = np.random.default_rng(6).normal(size=(2, 3, 6, 6))
        gradcheck(lambda t: F.avg_pool2d(t, kernel=kernel, stride=stride) ** 2, x)
