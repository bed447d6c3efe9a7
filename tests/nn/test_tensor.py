"""Unit and property-based tests for the autograd engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, concatenate, numeric_gradient, stack, where
from repro.nn.tensor import unbroadcast


def check_grad(fn, *shapes, seed=0, atol=1e-5):
    """Compare autograd against central differences for a scalar-valued fn."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out.backward()
    for i, (arr, tensor) in enumerate(zip(arrays, tensors)):
        def scalar(x, i=i):
            inputs = [Tensor(a) for a in arrays]
            inputs[i] = Tensor(x)
            return float(fn(*inputs).data)

        numeric = numeric_gradient(scalar, arr.copy())
        assert tensor.grad is not None
        np.testing.assert_allclose(tensor.grad, numeric, atol=atol, rtol=1e-4)


class TestBasicOps:
    def test_add_backward(self):
        check_grad(lambda a, b: (a + b).sum(), (3, 4), (3, 4))

    def test_add_broadcast_backward(self):
        check_grad(lambda a, b: (a + b).sum(), (3, 4), (4,))

    def test_mul_backward(self):
        check_grad(lambda a, b: (a * b).sum(), (2, 3), (2, 3))

    def test_mul_broadcast_scalar_shape(self):
        check_grad(lambda a, b: (a * b).sum(), (2, 3), (1,))

    def test_sub_and_neg(self):
        check_grad(lambda a, b: (a - b).sum(), (5,), (5,))

    def test_div_backward(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.uniform(1, 2, (3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(1, 2, (3, 3)), requires_grad=True)
        out = (a / b).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, 1.0 / b.data)
        np.testing.assert_allclose(b.grad, -a.data / b.data**2)

    def test_pow_backward(self):
        check_grad(lambda a: (a**3).sum(), (4,))

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_matmul_backward(self):
        check_grad(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))

    def test_matmul_vector(self):
        check_grad(lambda a, b: (a @ b).sum(), (3, 4), (4,))

    def test_chained_expression(self):
        check_grad(lambda a, b: ((a * b + a) ** 2).mean(), (3, 3), (3, 3))

    def test_reuse_of_node_accumulates(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        out = a * a + a
        out.backward()
        np.testing.assert_allclose(a.grad, [5.0])  # 2a + 1


class TestUnaryOps:
    @pytest.mark.parametrize(
        "name",
        ["exp", "tanh", "sigmoid", "relu", "sqrt", "abs"],
    )
    def test_unary_grads(self, name):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.3, 1.5, (4, 3))  # positive: safe for sqrt/log
        t = Tensor(x.copy(), requires_grad=True)
        out = getattr(t, name)().sum()
        out.backward()
        numeric = numeric_gradient(
            lambda arr: float(getattr(Tensor(arr), name)().sum().data), x.copy()
        )
        np.testing.assert_allclose(t.grad, numeric, atol=1e-5)

    def test_log_backward(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.5, 2.0, (5,))
        t = Tensor(x, requires_grad=True)
        t.log().sum().backward()
        np.testing.assert_allclose(t.grad, 1.0 / x)

    def test_clip_gradient_masks_outside(self):
        t = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        t.clip(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])

    def test_leaky_relu_negative_slope(self):
        t = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        t.leaky_relu(0.1).sum().backward()
        np.testing.assert_allclose(t.grad, [0.1, 1.0])


class TestReductions:
    def test_sum_axis_backward(self):
        check_grad(lambda a: a.sum(axis=0).sum(), (3, 4))

    def test_sum_keepdims(self):
        check_grad(lambda a: (a.sum(axis=1, keepdims=True) ** 2).sum(), (3, 4))

    def test_mean_matches_manual(self):
        t = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full((2, 3), 1 / 6))

    def test_mean_multi_axis(self):
        check_grad(lambda a: (a.mean(axis=(1, 2)) ** 2).sum(), (2, 3, 4))

    def test_var_backward(self):
        check_grad(lambda a: a.var(axis=0).sum(), (5, 3))

    def test_max_backward_distributes_over_ties(self):
        t = Tensor(np.array([1.0, 3.0, 3.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.0, 0.5, 0.5])

    def test_max_axis_backward(self):
        t = Tensor(np.array([[1.0, 5.0], [7.0, 2.0]]), requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0, 1], [1, 0]])


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        check_grad(lambda a: (a.reshape(6) ** 2).sum(), (2, 3))

    def test_transpose_grad(self):
        check_grad(lambda a: (a.T @ a).sum(), (3, 4))

    def test_transpose_explicit_axes(self):
        check_grad(lambda a: (a.transpose(2, 0, 1) ** 2).sum(), (2, 3, 4))

    def test_getitem_grad_scatter(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        t[1:3].sum().backward()
        np.testing.assert_allclose(t.grad, [0, 1, 1, 0])

    def test_getitem_fancy_index_repeats(self):
        t = Tensor(np.arange(3.0), requires_grad=True)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        np.testing.assert_allclose(t.grad, [2, 0, 1])

    def test_concatenate_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        concatenate([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((3, 2)))

    def test_stack_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        (stack([a, b], axis=0) * np.array([[1.0], [2.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, 2 * np.ones(3))

    def test_where_routes_grads(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        cond = np.array([True, False, True])
        where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 0, 1])
        np.testing.assert_allclose(b.grad, [0, 1, 0])


class TestBackwardMechanics:
    def test_backward_shape_mismatch_raises(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward(np.ones(3))

    def test_detach_cuts_graph(self):
        t = Tensor(np.ones(2), requires_grad=True)
        out = (t.detach() * 3).sum()
        out.backward()
        assert t.grad is None

    def test_no_grad_leaves_skip_backward(self):
        a = Tensor(np.ones(2), requires_grad=False)
        b = Tensor(np.ones(2), requires_grad=True)
        (a * b).sum().backward()
        assert a.grad is None
        np.testing.assert_allclose(b.grad, np.ones(2))

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * 2
        z = (y + x) * y  # z = (2x + x)(2x) = 6x^2, dz/dx = 12x
        z.backward()
        np.testing.assert_allclose(x.grad, [36.0])

    def test_zero_grad_resets(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor(np.ones(2)))


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_prepended_axes_summed(self):
        g = np.ones((4, 2, 3))
        np.testing.assert_allclose(unbroadcast(g, (2, 3)), 4 * np.ones((2, 3)))

    def test_stretched_axes_summed(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(g, (1, 3)), [[2, 2, 2]])

    @given(
        st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_sum_preserved(self, a, b, lead):
        g = np.ones((lead, a, b))
        reduced = unbroadcast(g, (1, b))
        assert reduced.shape == (1, b)
        assert reduced.sum() == pytest.approx(g.sum())


@given(
    st.lists(st.floats(-3, 3), min_size=2, max_size=8),
    st.lists(st.floats(-3, 3), min_size=2, max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_property_add_grad_is_ones(xs, ys):
    n = min(len(xs), len(ys))
    a = Tensor(np.array(xs[:n]), requires_grad=True)
    b = Tensor(np.array(ys[:n]), requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones(n))
    np.testing.assert_allclose(b.grad, np.ones(n))


@given(st.lists(st.floats(0.1, 3), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_property_exp_log_inverse(xs):
    x = np.array(xs)
    t = Tensor(x)
    np.testing.assert_allclose(t.exp().log().data, x, atol=1e-9)
