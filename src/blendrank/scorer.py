"""Exact forest scoring by one flat, fixed-depth traversal over all trees.

Every tree's node arrays are concatenated into one flat forest, with each
tree's root at a known offset. A leaf points to itself on both sides and
its threshold is +inf, so a document that has reached its exit leaf stays
there. Scoring a batch starts an (n_rows, n_trees) node matrix at the roots
and advances every (row, tree) pair one level per step, for as many steps
as the deepest tree has levels; no step branches on the data.

The contract is exact equality with naive traversal (`Ensemble.score_batch`),
bit for bit: value <= threshold descends left and anything else, NaN
included, descends right, so the exit leaves are the same; the scores are
summed as learning_rate * weight added tree by tree, in tree order, which is
the same summation order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ltr import Ensemble


class FeatureThresholds(NamedTuple):
    thresholds: np.ndarray


class CompiledEnsemble:
    """All trees of an Ensemble as one flat forest; immutable and reentrant."""

    def __init__(self, feature: np.ndarray, threshold: np.ndarray, left: np.ndarray,
                 right: np.ndarray, value: np.ndarray, roots: np.ndarray, depth: int,
                 learning_rate: float, feature_count: int):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.roots = roots
        self.depth = depth
        self.learning_rate = learning_rate
        self.feature_count = feature_count

    @property
    def n_trees(self) -> int:
        return self.roots.shape[0]

    @property
    def conditions(self) -> dict[int, FeatureThresholds]:
        """Sorted internal-node thresholds of the forest, per feature."""
        internal = self.left != np.arange(self.left.shape[0])
        feats = self.feature[internal]
        thresholds = self.threshold[internal]
        return {int(f): FeatureThresholds(np.sort(thresholds[feats == f]))
                for f in np.unique(feats)}


def compile_ensemble(ensemble: Ensemble) -> CompiledEnsemble:
    """Concatenate every tree into one flat forest of self-looping leaves."""
    trees = ensemble.trees
    sizes = np.array([t.n_nodes for t in trees], dtype=np.int64)
    roots = np.cumsum(sizes) - sizes

    def flat(name: str, dtype) -> np.ndarray:
        parts = [getattr(t, name) for t in trees]
        return np.concatenate([np.zeros(0, dtype)] + parts).astype(dtype)

    feature = flat("feature", np.int64)
    leaf = feature < 0
    own = np.arange(feature.shape[0])
    base = np.repeat(roots, sizes)
    left = np.where(leaf, own, flat("left", np.int64) + base)
    right = np.where(leaf, own, flat("right", np.int64) + base)
    depth, level = 0, roots
    while True:
        level = level[~leaf[level]]
        if level.shape[0] == 0:
            break
        level = np.concatenate([left[level], right[level]])
        depth += 1
    threshold = np.where(leaf, np.inf, flat("threshold", np.float64))
    return CompiledEnsemble(np.where(leaf, 0, feature), threshold, left, right,
                            flat("value", np.float64), roots, depth,
                            ensemble.learning_rate, ensemble.feature_count)


def score_batch(compiled: CompiledEnsemble, matrix) -> np.ndarray:
    """Score every row of a 2-d feature matrix; equals Ensemble.score_batch."""
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != compiled.feature_count:
        raise ValueError(f"expected 2-d input with {compiled.feature_count} columns")
    n = X.shape[0]
    scores = np.zeros(n, dtype=np.float64)
    if compiled.n_trees == 0 or n == 0:
        return scores
    flat = np.ascontiguousarray(X).ravel()
    row_base = np.arange(n, dtype=np.int64)[:, None] * X.shape[1]
    node = np.tile(compiled.roots, (n, 1))
    for _ in range(compiled.depth):
        go_left = flat[row_base + compiled.feature[node]] <= compiled.threshold[node]
        node = np.where(go_left, compiled.left[node], compiled.right[node])
    lr = compiled.learning_rate
    leaf_values = compiled.value[node]
    for t in range(compiled.n_trees):
        scores += lr * leaf_values[:, t]
    return scores
