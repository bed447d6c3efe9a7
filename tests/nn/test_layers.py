"""Tests for Module/layer abstractions."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    ReLU,
    Sequential,
    Tensor,
)


def make_mlp(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Dense(4, 8, rng=rng), ReLU(), Dropout(0.5, seed=1), Dense(8, 3, rng=rng)
    )


class TestModuleTraversal:
    def test_parameters_counts_nested(self):
        mlp = make_mlp()
        # Dense(4,8): 4*8+8, Dense(8,3): 8*3+3
        assert mlp.num_parameters() == 4 * 8 + 8 + 8 * 3 + 3

    def test_named_parameters_unique_names(self):
        names = [n for n, _ in make_mlp().named_parameters()]
        assert len(names) == len(set(names))
        assert any("layers.0.weight" in n for n in names)

    def test_train_eval_propagates(self):
        mlp = make_mlp()
        mlp.eval()
        assert all(not c.training for c in mlp.children())
        mlp.train()
        assert all(c.training for c in mlp.children())

    def test_zero_grad_clears_all(self):
        mlp = make_mlp()
        out = mlp(Tensor(np.ones((2, 4)))).sum()
        out.backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())

    def test_state_dict_roundtrip(self):
        a, b = make_mlp(seed=0), make_mlp(seed=99)
        b.load_state_dict(a.state_dict())
        x = np.ones((2, 4))
        a.eval(), b.eval()
        np.testing.assert_allclose(a(Tensor(x)).data, b(Tensor(x)).data)

    def test_load_state_dict_missing_key_raises(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(KeyError):
            mlp.load_state_dict(state)

    def test_load_state_dict_shape_mismatch_raises(self):
        mlp = make_mlp()
        state = mlp.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            mlp.load_state_dict(state)


class TestDense:
    def test_forward_shape(self):
        layer = Dense(5, 7)
        assert layer(Tensor(np.zeros((3, 5)))).shape == (3, 7)

    def test_no_bias(self):
        layer = Dense(5, 7, bias=False)
        assert layer.bias is None
        assert layer.num_parameters() == 35

    def test_gradients_flow(self):
        layer = Dense(3, 2)
        layer(Tensor(np.ones((4, 3)))).sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, [4.0, 4.0])


class TestConv2DLayer:
    def test_forward_shape_with_stride(self):
        layer = Conv2D(3, 8, kernel=3, stride=2, padding=1)
        assert layer(Tensor(np.zeros((2, 3, 8, 8)))).shape == (2, 8, 4, 4)

    def test_parameter_shapes(self):
        layer = Conv2D(3, 8, kernel=5)
        assert layer.weight.shape == (8, 3, 5, 5)
        assert layer.bias.shape == (8,)


class TestBatchNorm:
    def test_bn2d_normalizes_in_train_mode(self):
        bn = BatchNorm2D(4)
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.0, size=(8, 4, 5, 5))
        out = bn(Tensor(x)).data
        assert abs(out.mean()) < 1e-6
        assert out.std() == pytest.approx(1.0, abs=0.01)

    def test_bn2d_running_stats_update(self):
        bn = BatchNorm2D(2, momentum=0.5)
        x = np.ones((4, 2, 3, 3)) * 10.0
        bn(Tensor(x))
        np.testing.assert_allclose(bn.running_mean, [5.0, 5.0])

    def test_bn2d_eval_uses_running_stats(self):
        bn = BatchNorm2D(2)
        bn.running_mean = np.array([1.0, 2.0])
        bn.running_var = np.array([4.0, 9.0])
        bn.eval()
        x = np.zeros((1, 2, 2, 2))
        out = bn(Tensor(x)).data
        np.testing.assert_allclose(out[0, 0], -0.5 * np.ones((2, 2)), atol=1e-4)
        np.testing.assert_allclose(out[0, 1], -2 / 3 * np.ones((2, 2)), atol=1e-4)

    def test_bn1d_train_and_eval(self):
        bn = BatchNorm1D(3)
        rng = np.random.default_rng(1)
        x = rng.normal(5, 3, size=(64, 3))
        out = bn(Tensor(x)).data
        assert abs(out.mean()) < 1e-6
        bn.eval()
        out_eval = bn(Tensor(x)).data
        assert out_eval.shape == (64, 3)

    def test_bn_gradients_flow_to_gamma_beta(self):
        bn = BatchNorm2D(2)
        bn(Tensor(np.random.default_rng(2).normal(size=(4, 2, 3, 3)))).sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None


class TestDropoutLayer:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.9)
        layer.eval()
        x = Tensor(np.ones((3, 3)))
        np.testing.assert_allclose(layer(x).data, x.data)

    def test_always_on_persists_in_eval(self):
        layer = Dropout(0.5, always_on=True)
        layer.eval()
        out = layer(Tensor(np.ones((100, 100)))).data
        assert (out == 0).any()  # still dropping in eval mode


class TestShapesAndSequential:
    def test_flatten(self):
        assert Flatten()(Tensor(np.zeros((2, 3, 4, 5)))).shape == (2, 60)

    def test_global_avg_pool_layer(self):
        assert GlobalAvgPool2D()(Tensor(np.zeros((2, 3, 4, 4)))).shape == (2, 3)

    def test_max_pool_layer(self):
        assert MaxPool2D(2)(Tensor(np.zeros((2, 3, 4, 4)))).shape == (2, 3, 2, 2)

    def test_sequential_indexing_and_len(self):
        seq = Sequential(ReLU(), Flatten())
        assert len(seq) == 2
        assert isinstance(seq[0], ReLU)
        assert [type(m) for m in seq] == [ReLU, Flatten]

    def test_sequential_forward_order(self):
        seq = Sequential(Flatten(), Dense(4, 2))
        out = seq(Tensor(np.ones((3, 2, 2))))
        assert out.shape == (3, 2)
