"""Edge pruning vs node pruning (Sec. II-B).

The paper's argument, reproduced here quantitatively:

    "prior work has shown that these reductions do not scale proportionally
    to the fraction of zero entries in the sparse matrix ... because sparse
    matrix algebra is not as efficient as dense matrix algebra ...  A
    promising solution ... removes nodes instead of edges ...  Removal of
    entire nodes ... produces a new matrix that is also dense, but that has
    smaller dimensions."

:func:`sparse_time_ratio` models the sparse-overhead effect;
:func:`node_prune_mlp` actually rebuilds smaller dense layers; and
:func:`shrink_staged_resnet` is the service-level reduction used by the
caching layer — it trains a narrower staged network (fewer channels per
stage) on a target class subset, optionally distilling from the full model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.data import Dataset
from ..nn.layers import Dense, Module, Sequential
from ..nn.resnet import StagedResNet, StagedResNetConfig
from ..nn.training import train_staged_model


# ----------------------------------------------------------------------
# Sparse-execution cost models (the "why edge pruning disappoints" math)
# ----------------------------------------------------------------------
def sparse_time_ratio(sparsity: float, overhead: float = 4.0) -> float:
    """Relative execution time of a sparsity-pruned layer vs its dense original.

    Sparse formats pay ``overhead`` x per nonzero (index chasing, poor
    vectorization), and a runtime would fall back to dense execution when
    sparse would be slower, so the ratio is ``min(1, overhead * nnz_frac)``.
    With the default 4x overhead, pruning pays off only past 75% sparsity —
    the non-proportional scaling the paper points at.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must be in [0, 1]")
    if overhead < 1.0:
        raise ValueError("sparse overhead cannot be below 1")
    return min(1.0, overhead * (1.0 - sparsity))


def sparse_storage_ratio(sparsity: float, index_overhead: float = 1.0) -> float:
    """Relative storage of CSR-style sparse vs dense (value + index per nnz)."""
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must be in [0, 1]")
    return min(1.0, (1.0 + index_overhead) * (1.0 - sparsity))


# ----------------------------------------------------------------------
# Edge pruning
# ----------------------------------------------------------------------
@dataclass
class EdgePruneResult:
    """Outcome of magnitude edge pruning."""

    target_sparsity: float
    achieved_sparsity: float
    pruned_parameters: int
    total_parameters: int

    @property
    def time_ratio(self) -> float:
        """Modelled execution-time ratio of the pruned (sparse) model."""
        return sparse_time_ratio(self.achieved_sparsity)

    @property
    def storage_ratio(self) -> float:
        return sparse_storage_ratio(self.achieved_sparsity)


def magnitude_edge_prune(model: Module, sparsity: float) -> EdgePruneResult:
    """Zero the globally smallest-magnitude weights of ``model`` in place.

    Biases and batch-norm affine parameters are spared (standard practice —
    they are O(nodes), not O(edges)).
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must be in [0, 1)")
    weights = [
        p for name, p in model.named_parameters()
        if name.endswith("weight") and p.data.ndim >= 2
    ]
    if not weights:
        raise ValueError("model has no prunable weight matrices")
    all_magnitudes = np.concatenate([np.abs(p.data).reshape(-1) for p in weights])
    total = all_magnitudes.size
    k = int(round(sparsity * total))
    if k > 0:
        threshold = np.partition(all_magnitudes, k - 1)[k - 1]
        pruned = 0
        for p in weights:
            mask = np.abs(p.data) > threshold
            pruned += int((~mask).sum())
            p.data = p.data * mask
    else:
        pruned = 0
    return EdgePruneResult(
        target_sparsity=sparsity,
        achieved_sparsity=pruned / total,
        pruned_parameters=pruned,
        total_parameters=total,
    )


# ----------------------------------------------------------------------
# Node pruning (DeepIoT-style, on MLPs)
# ----------------------------------------------------------------------
@dataclass
class NodePruneResult:
    """Outcome of node pruning: a new, smaller dense network."""

    model: Sequential
    kept_nodes: List[np.ndarray]
    original_parameters: int
    pruned_parameters: int

    @property
    def parameter_ratio(self) -> float:
        return self.pruned_parameters / self.original_parameters

    @property
    def time_ratio(self) -> float:
        """Dense algebra: execution time tracks the (dense) parameter count."""
        return self.parameter_ratio


def _node_importance(incoming: np.ndarray, outgoing: np.ndarray) -> np.ndarray:
    """Importance of hidden nodes: product of incoming and outgoing energy.

    A node matters only if it both receives signal and forwards it — the
    same intuition DeepIoT's compressor network learns, computed here in
    closed form from weight magnitudes.
    """
    in_energy = np.sqrt((incoming**2).sum(axis=0))
    out_energy = np.sqrt((outgoing**2).sum(axis=1))
    return in_energy * out_energy


def node_prune_mlp(model: Sequential, keep_fraction: float) -> NodePruneResult:
    """Rebuild an MLP keeping the top ``keep_fraction`` of each hidden layer.

    ``model`` must be a Sequential of Dense layers (ReLU and other stateless
    activations allowed between them).  Input and output dimensions are
    preserved; every hidden width is reduced, and surviving weights are
    copied so the pruned model needs only light fine-tuning.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    dense_layers = [m for m in model if isinstance(m, Dense)]
    if len(dense_layers) < 2:
        raise ValueError("node pruning needs at least two Dense layers")

    # Decide survivors per hidden interface (between consecutive Dense layers).
    kept: List[np.ndarray] = []
    for a, b in zip(dense_layers[:-1], dense_layers[1:]):
        importance = _node_importance(a.weight.data, b.weight.data)
        n_keep = max(1, int(round(keep_fraction * len(importance))))
        survivors = np.sort(np.argsort(importance)[::-1][:n_keep])
        kept.append(survivors)

    # Rebuild the Sequential, slicing weights along kept dimensions.
    new_layers: List[Module] = []
    dense_idx = 0
    for layer in model:
        if not isinstance(layer, Dense):
            new_layers.append(type(layer)())
            continue
        in_keep = kept[dense_idx - 1] if dense_idx > 0 else np.arange(layer.in_features)
        out_keep = (
            kept[dense_idx]
            if dense_idx < len(dense_layers) - 1
            else np.arange(layer.out_features)
        )
        new_dense = Dense(len(in_keep), len(out_keep), bias=layer.bias is not None)
        new_dense.weight.data = layer.weight.data[np.ix_(in_keep, out_keep)].copy()
        if layer.bias is not None:
            new_dense.bias.data = layer.bias.data[out_keep].copy()
        new_layers.append(new_dense)
        dense_idx += 1

    pruned_model = Sequential(*new_layers)
    return NodePruneResult(
        model=pruned_model,
        kept_nodes=kept,
        original_parameters=model.num_parameters(),
        pruned_parameters=pruned_model.num_parameters(),
    )


# ----------------------------------------------------------------------
# Service-level reduction of the staged ResNet (feeds the caching layer)
# ----------------------------------------------------------------------
def shrink_staged_resnet(
    reference: StagedResNet,
    train_set: Dataset,
    width_fraction: float = 0.5,
    class_subset: Optional[Sequence[int]] = None,
    epochs: int = 6,
    lr: float = 1e-2,
    seed: int = 0,
) -> Tuple[StagedResNet, Dict[int, int]]:
    """Train a reduced staged network, optionally specialized to a class subset.

    This is the reduction service of Sec. II-B: given the full model and the
    data pool, produce a narrower network (``width_fraction`` of every stage's
    channels).  With ``class_subset`` the reduced model is trained only on
    those classes **plus a catch-all "other" class** built from the remaining
    samples — predicting "other" is how the device detects a cache miss.

    Returns ``(model, class_map)`` where ``class_map`` maps original class id
    to the reduced model's output index; the "other" class occupies the last
    index and is absent from the map.
    """
    if not 0.0 < width_fraction <= 1.0:
        raise ValueError("width_fraction must be in (0, 1]")
    cfg = reference.config
    channels = tuple(max(2, int(round(c * width_fraction))) for c in cfg.stage_channels)

    if class_subset is None:
        class_map = {c: c for c in range(cfg.num_classes)}
        inputs, labels = train_set.inputs, train_set.labels
        num_out = cfg.num_classes
    else:
        class_subset = sorted(set(int(c) for c in class_subset))
        if not class_subset:
            raise ValueError("class_subset must not be empty")
        if any(c < 0 or c >= cfg.num_classes for c in class_subset):
            raise ValueError("class_subset contains an unknown class")
        class_map = {c: i for i, c in enumerate(class_subset)}
        other_index = len(class_subset)
        labels = np.array(
            [class_map.get(int(y), other_index) for y in train_set.labels]
        )
        inputs = train_set.inputs
        num_out = len(class_subset) + 1

    reduced_cfg = StagedResNetConfig(
        num_classes=num_out,
        in_channels=cfg.in_channels,
        image_size=cfg.image_size,
        stage_channels=channels,
        blocks_per_stage=cfg.blocks_per_stage,
        seed=seed,
    )
    reduced = StagedResNet(reduced_cfg)
    train_staged_model(
        reduced, Dataset(inputs, labels), epochs=epochs, lr=lr, seed=seed
    )
    return reduced, class_map
