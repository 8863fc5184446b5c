"""Exact forest scoring: find every (row, tree) exit leaf, then sum in tree order.

Every tree's node arrays are concatenated into one flat forest, with each
tree's root at a known offset. The learner puts every right child right
after its left child, and `compile_ensemble` requires it, so the left child
is `right - 1` and one step is a gather and a subtract, with no select:

    node = right[node] - (x[feature[node]] <= threshold[node])

value <= threshold descends left; anything else, NaN included, descends
right. A leaf points to itself and has threshold NaN, and `x <= NaN` is
False for every x, so a leaf is a fixed point of the step and a pair is
live while `right[node] != node`.

`exit_leaves` first steps every pair from its root at once, reading each
root's column for all rows, then walks one flat (rows * trees) node vector
one level per step, in two phases:

- dense: while at least half the pairs are still at internal nodes, every
  pair takes the step, branch-free over the whole vector (VPred, Asadi et
  al., TKDE 2014);
- active: once fewer than half are live, only the live pairs are stepped,
  and after each step those that reached a leaf are dropped, until none is
  left. Most pairs exit well above the forest's depth, which is the fact
  QuickScorer (Lucchese et al., SIGIR 2015) also relies on.

The switch is taken once, from the live count each step computes anyway.
Neither phase needs the forest's depth: every pair reaches its leaf within
it, and then no pair is live.

The contract is exact equality with naive traversal (`Ensemble.score_batch`),
bit for bit. Every phase applies the same predicate, and a leaf is a fixed
point, so the exit leaves do not depend on where the switch falls.
`score_batch` then adds learning_rate * weight tree by tree, in tree order,
which is the same summation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ltr import Ensemble, forest_fault


class FeatureThresholds(NamedTuple):
    thresholds: np.ndarray


@dataclass(frozen=True, eq=False)
class CompiledEnsemble:
    """All trees of an Ensemble as one flat forest; immutable and reentrant."""

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    learning_rate: float
    feature_count: int

    @property
    def n_trees(self) -> int:
        return self.roots.shape[0]

    @property
    def conditions(self) -> dict[int, FeatureThresholds]:
        """Sorted internal-node thresholds of the forest, per feature."""
        internal = self.right != np.arange(self.right.shape[0])
        feats = self.feature[internal]
        thresholds = self.threshold[internal]
        return {int(f): FeatureThresholds(np.sort(thresholds[feats == f]))
                for f in np.unique(feats)}


def compile_ensemble(ensemble: Ensemble) -> CompiledEnsemble:
    """Concatenate every tree into one flat forest of self-looping NaN leaves;
    ValueError naming the first tree not laid out as `ltr.forest_fault` requires
    (each right child directly after its left sibling, no cycles)."""
    trees = ensemble.trees
    fault = forest_fault(trees, ensemble.feature_count)
    if fault:
        raise ValueError(f"tree {fault[0]}: {fault[1]}")
    sizes = np.array([t.n_nodes for t in trees], dtype=np.int64)
    roots = np.cumsum(sizes) - sizes

    def flat(name: str, dtype) -> np.ndarray:
        parts = [getattr(t, name) for t in trees]
        return np.concatenate([np.zeros(0, dtype)] + parts).astype(dtype)

    feature, right = flat("feature", np.int64), flat("right", np.int64)
    leaf = feature < 0
    right = np.where(leaf, np.arange(feature.shape[0]), right + np.repeat(roots, sizes))
    threshold = np.where(leaf, np.nan, flat("threshold", np.float64))
    return CompiledEnsemble(np.where(leaf, 0, feature), threshold, right,
                            flat("value", np.float64), roots,
                            ensemble.learning_rate, ensemble.feature_count)


def exit_leaves(compiled: CompiledEnsemble, matrix) -> np.ndarray:
    """Flat-forest index of the exit leaf of every (row, tree) pair, (n_rows, n_trees)."""
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != compiled.feature_count:
        raise ValueError(f"expected 2-d input with {compiled.feature_count} columns")
    n, n_trees = X.shape[0], compiled.n_trees
    if n == 0 or n_trees == 0:
        return np.zeros((n, n_trees), dtype=np.int64)
    feature, threshold, right, roots = (compiled.feature, compiled.threshold,
                                        compiled.right, compiled.roots)
    node = (right.take(roots) - (X[:, feature.take(roots)] <= threshold.take(roots))).ravel()
    flat = np.ascontiguousarray(X).ravel()
    row_base = np.repeat(np.arange(n, dtype=np.int64) * X.shape[1], n_trees)
    node_right = right.take(node)
    live = node_right != node
    while 2 * np.count_nonzero(live) >= live.shape[0]:
        node = node_right - (flat.take(row_base + feature.take(node)) <= threshold.take(node))
        node_right = right.take(node)
        live = node_right != node
    act = np.flatnonzero(live)
    act_base, act_right = row_base.take(act), node_right.take(act)
    while act.shape[0]:
        at = node.take(act)
        nxt = act_right - (flat.take(act_base + feature.take(at)) <= threshold.take(at))
        node[act] = nxt
        nxt_right = right.take(nxt)
        keep = nxt_right != nxt
        act, act_base, act_right = act[keep], act_base[keep], nxt_right[keep]
    return node.reshape(n, n_trees)


def score_batch(compiled: CompiledEnsemble, matrix) -> np.ndarray:
    """Score every row of a 2-d feature matrix; equals Ensemble.score_batch."""
    leaf_values = compiled.value[exit_leaves(compiled, matrix)]
    scores = np.zeros(leaf_values.shape[0], dtype=np.float64)
    lr = compiled.learning_rate
    for t in range(compiled.n_trees):
        scores += lr * leaf_values[:, t]
    return scores
