"""Tests for edge/node pruning and the staged-model reduction service."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    magnitude_edge_prune,
    node_prune_mlp,
    shrink_staged_resnet,
    sparse_storage_ratio,
    sparse_time_ratio,
)
from repro.datasets import SyntheticImageConfig, make_image_dataset
from repro.nn import (
    Adam,
    Dense,
    ReLU,
    Sequential,
    StagedResNet,
    StagedResNetConfig,
    Tensor,
    cross_entropy,
)
from repro.nn.training import train_staged_model


def make_mlp(widths=(6, 32, 32, 4), seed=0):
    rng = np.random.default_rng(seed)
    layers = []
    for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
        layers.append(Dense(a, b, rng=rng))
        if i < len(widths) - 2:
            layers.append(ReLU())
    return Sequential(*layers)


class TestSparseCostModels:
    def test_time_ratio_no_benefit_below_threshold(self):
        """At 50% sparsity with 4x overhead, sparse execution saves nothing."""
        assert sparse_time_ratio(0.5) == 1.0

    def test_time_ratio_benefits_past_threshold(self):
        assert sparse_time_ratio(0.9) == pytest.approx(0.4)

    def test_not_proportional_to_sparsity(self):
        """The paper's point: savings do not scale with the zero fraction."""
        assert sparse_time_ratio(0.6) > 1.0 - 0.6

    def test_storage_ratio(self):
        assert sparse_storage_ratio(0.9) == pytest.approx(0.2)
        assert sparse_storage_ratio(0.2) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            sparse_time_ratio(1.5)
        with pytest.raises(ValueError):
            sparse_time_ratio(0.5, overhead=0.5)
        with pytest.raises(ValueError):
            sparse_storage_ratio(-0.1)

    @given(st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_property_ratios_bounded(self, s):
        assert 0.0 <= sparse_time_ratio(s) <= 1.0
        assert 0.0 <= sparse_storage_ratio(s) <= 1.0


class TestEdgePruning:
    def test_achieves_target_sparsity(self):
        mlp = make_mlp()
        result = magnitude_edge_prune(mlp, 0.7)
        assert result.achieved_sparsity == pytest.approx(0.7, abs=0.02)
        zeros = sum(
            int((p.data == 0).sum())
            for n, p in mlp.named_parameters()
            if n.endswith("weight")
        )
        assert zeros == result.pruned_parameters

    def test_keeps_largest_weights(self):
        mlp = Sequential(Dense(2, 2, bias=False))
        mlp[0].weight.data = np.array([[1.0, 0.01], [0.02, 2.0]])
        magnitude_edge_prune(mlp, 0.5)
        np.testing.assert_allclose(mlp[0].weight.data, [[1.0, 0.0], [0.0, 2.0]])

    def test_biases_untouched(self):
        mlp = make_mlp()
        biases_before = [l.bias.data.copy() for l in mlp if isinstance(l, Dense)]
        magnitude_edge_prune(mlp, 0.9)
        for layer, before in zip([l for l in mlp if isinstance(l, Dense)], biases_before):
            np.testing.assert_allclose(layer.bias.data, before)

    def test_zero_sparsity_noop(self):
        mlp = make_mlp()
        result = magnitude_edge_prune(mlp, 0.0)
        assert result.pruned_parameters == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            magnitude_edge_prune(make_mlp(), 1.0)
        with pytest.raises(ValueError):
            magnitude_edge_prune(Sequential(ReLU()), 0.5)


class TestNodePruning:
    def test_shrinks_hidden_widths_only(self):
        mlp = make_mlp((6, 32, 32, 4))
        result = node_prune_mlp(mlp, keep_fraction=0.5)
        dense = [l for l in result.model if isinstance(l, Dense)]
        assert dense[0].in_features == 6
        assert dense[0].out_features == 16
        assert dense[1].in_features == 16
        assert dense[1].out_features == 16
        assert dense[2].out_features == 4

    def test_parameter_ratio_below_one(self):
        result = node_prune_mlp(make_mlp(), keep_fraction=0.5)
        assert result.parameter_ratio < 0.6
        assert result.time_ratio == result.parameter_ratio

    def test_pruned_model_runs_dense_forward(self):
        result = node_prune_mlp(make_mlp(), keep_fraction=0.25)
        out = result.model(Tensor(np.random.default_rng(0).normal(size=(5, 6))))
        assert out.shape == (5, 4)

    def test_preserves_function_better_than_random(self):
        """Importance-ordered pruning beats pruning the *least* important
        nodes (sanity check that the importance metric carries signal)."""
        rng = np.random.default_rng(1)
        mlp = make_mlp((6, 48, 4), seed=1)
        x = rng.normal(size=(300, 6))
        y = (x[:, 0] > 0).astype(int) + 2 * (x[:, 1] > 0).astype(int)
        opt = Adam(mlp.parameters(), lr=0.02)
        for _ in range(150):
            loss = cross_entropy(mlp(Tensor(x)), y)
            opt.zero_grad()
            loss.backward()
            opt.step()

        def accuracy(model):
            return float((model(Tensor(x)).data.argmax(-1) == y).mean())

        good = node_prune_mlp(mlp, keep_fraction=0.4)
        # Adversarial baseline: keep the lowest-importance nodes instead.
        from repro.compression.pruning import _node_importance

        dense = [l for l in mlp if isinstance(l, Dense)]
        importance = _node_importance(dense[0].weight.data, dense[1].weight.data)
        worst = np.sort(np.argsort(importance)[: len(good.kept_nodes[0])])
        bad = Sequential(
            Dense(6, len(worst)), ReLU(), Dense(len(worst), 4)
        )
        bad[0].weight.data = dense[0].weight.data[:, worst].copy()
        bad[0].bias.data = dense[0].bias.data[worst].copy()
        bad[2].weight.data = dense[1].weight.data[worst, :].copy()
        bad[2].bias.data = dense[1].bias.data.copy()
        assert accuracy(good.model) > accuracy(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            node_prune_mlp(make_mlp(), keep_fraction=0.0)
        with pytest.raises(ValueError):
            node_prune_mlp(Sequential(Dense(3, 3)), keep_fraction=0.5)


class TestShrinkStagedResNet:
    TINY = StagedResNetConfig(
        num_classes=4, image_size=8, stage_channels=(4, 8), blocks_per_stage=1, seed=0
    )

    @pytest.fixture(scope="class")
    def setup(self):
        cfg = SyntheticImageConfig(num_classes=4, image_size=8, seed=3)
        train_set = make_image_dataset(400, cfg, seed=0)
        model = StagedResNet(self.TINY)
        train_staged_model(model, train_set, epochs=5, lr=1e-2)
        return model, train_set, cfg

    def test_reduced_model_is_smaller(self, setup):
        model, train_set, _ = setup
        reduced, class_map = shrink_staged_resnet(
            model, train_set, width_fraction=0.5, epochs=1
        )
        assert reduced.num_parameters() < model.num_parameters()
        assert class_map == {c: c for c in range(4)}

    def test_class_subset_adds_other_class(self, setup):
        model, train_set, _ = setup
        reduced, class_map = shrink_staged_resnet(
            model, train_set, width_fraction=0.5, class_subset=[1, 3], epochs=1
        )
        assert class_map == {1: 0, 3: 1}
        assert reduced.config.num_classes == 3  # two frequent + other

    def test_subset_model_learns_frequent_classes(self, setup):
        model, train_set, cfg = setup
        reduced, class_map = shrink_staged_resnet(
            model, train_set, width_fraction=0.75, class_subset=[0, 1], epochs=6
        )
        test_set = make_image_dataset(200, cfg, seed=5)
        mapped = np.array([class_map.get(int(y), 2) for y in test_set.labels])
        preds = reduced.predict_proba(test_set.inputs)[-1].argmax(-1)
        acc = float((preds == mapped).mean())
        assert acc > 0.5

    def test_validation(self, setup):
        model, train_set, _ = setup
        with pytest.raises(ValueError):
            shrink_staged_resnet(model, train_set, width_fraction=0.0)
        with pytest.raises(ValueError):
            shrink_staged_resnet(model, train_set, class_subset=[99], epochs=1)
        with pytest.raises(ValueError):
            shrink_staged_resnet(model, train_set, class_subset=[], epochs=1)
