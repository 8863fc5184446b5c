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

The contract is exact equality with naive traversal, bit for bit. Every
phase applies the same predicate, and a leaf is a fixed point, so the exit
leaves do not depend on where the switch falls. `score_batch` then adds
learning_rate * weight tree by tree, in tree order, which is the same
summation order. The naive node-by-node walk is the tests' oracle
(`tests/forest_oracle.py`); in the package this module holds the only tree
walk, and `ltr` trains and scores through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# The node arrays of a tree (`ltr.RegressionTree`), all of one length.
TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "gain")


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


def forest_fault(trees: list, feature_count: int) -> tuple[int, str] | None:
    """The index of the first tree whose arrays are not laid out as the learner
    lays them out, and why; None when every tree is. Children after their
    parent, and one parent per node but the root, rule out cycles and
    unreachable nodes. Every check runs once over the concatenated forest."""
    reasons = ("node arrays are empty or of unequal lengths",
               "a leaf (feature -1) must have left = right = -1",
               f"an internal node needs 0 <= feature < {feature_count}, left > its own index "
               "and its right child right after the left one, inside the tree",
               "every node but the root must be the child of exactly one node")
    n_trees = len(trees)
    sizes = np.array([t.feature.shape[0] for t in trees], dtype=np.int64)
    bad = np.zeros((len(reasons), n_trees), dtype=bool)
    bad[0] = [n == 0 or any(getattr(t, name).shape != (n,) for name in TREE_ARRAYS)
              for t, n in zip(trees, sizes)]
    kept = np.flatnonzero(~bad[0])
    sizes = sizes[kept]
    tree_of = np.repeat(kept, sizes)
    base = np.repeat(np.cumsum(sizes) - sizes, sizes)
    own = np.arange(tree_of.shape[0]) - base
    f, left, right = (np.concatenate([np.zeros(0, np.int64)]
                                     + [getattr(trees[i], name) for i in kept])
                      for name in ("feature", "left", "right"))

    def trees_with(node_mask: np.ndarray) -> np.ndarray:
        return np.bincount(tree_of[node_mask], minlength=n_trees) > 0

    leaf = f == -1
    inner = ~leaf
    bad[1] = trees_with(leaf & ((left != -1) | (right != -1)))
    bad[2] = trees_with(inner & ((f < 0) | (f >= feature_count) | (left <= own)
                                 | (right != left + 1) | (right >= np.repeat(sizes, sizes))))
    sound = ~bad[:3].any(axis=0)[tree_of]
    counted = inner & sound
    children = np.concatenate((left[counted], right[counted])) + np.tile(base[counted], 2)
    parents = np.bincount(children, minlength=own.shape[0])
    bad[3] = trees_with(sound & (own != 0) & (parents != 1))
    faulty = np.flatnonzero(bad.any(axis=0))
    if faulty.shape[0] == 0:
        return None
    first = int(faulty[0])
    return first, reasons[int(np.argmax(bad[:, first]))]


def compile_trees(trees: list, learning_rate: float, feature_count: int) -> CompiledEnsemble:
    """Concatenate every tree into one flat forest of self-looping NaN leaves;
    ValueError naming the first tree not laid out as `forest_fault` requires
    (each right child directly after its left sibling, no cycles)."""
    fault = forest_fault(trees, feature_count)
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
                            flat("value", np.float64), roots, learning_rate, feature_count)


def compile_ensemble(ensemble) -> CompiledEnsemble:
    """The flat forest of an `ltr.Ensemble` (see `compile_trees`)."""
    return compile_trees(ensemble.trees, ensemble.learning_rate, ensemble.feature_count)


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
    """Score every row of a 2-d feature matrix: learning_rate * exit-leaf value,
    summed tree by tree in tree order."""
    contributions = compiled.value.take(exit_leaves(compiled, matrix).T)
    contributions *= compiled.learning_rate
    scores = np.zeros(contributions.shape[1], dtype=np.float64)
    # Tree by tree, as naive traversal sums: np.add.reduce sums one row pairwise.
    for tree_values in contributions:
        scores += tree_values
    return scores
