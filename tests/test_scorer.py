"""Flat forest scorer tests: exact equivalence with naive traversal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blendrank.ltr import Ensemble, RegressionTree
from blendrank.scorer import compile_ensemble, exit_leaves, score_batch
import forest_oracle
from forest_oracle import score_one


def leaf_tree(weight: float) -> RegressionTree:
    return RegressionTree(
        np.array([-1]), np.array([0.0]), np.array([-1]), np.array([-1]),
        np.array([weight]), np.array([0.0]))


def stump(feature: int, threshold: float, w_left: float, w_right: float) -> RegressionTree:
    return RegressionTree(
        np.array([feature, -1, -1]), np.array([threshold, 0.0, 0.0]),
        np.array([1, -1, -1]), np.array([2, -1, -1]),
        np.array([0.0, w_left, w_right]), np.array([1.0, 0.0, 0.0]))


def random_tree(rng, n_features: int, n_leaves: int) -> RegressionTree:
    """Grow a random binary tree by splitting random leaves until the budget."""
    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    value = [float(rng.normal())]
    gain = [0.0]
    leaves = [0]
    while len(leaves) < n_leaves:
        pick = leaves.pop(int(rng.integers(len(leaves))))
        feature[pick] = int(rng.integers(n_features))
        threshold[pick] = float(np.round(rng.normal(), 2))
        for side in (left, right):
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(float(rng.normal()))
            gain.append(0.0)
            side[pick] = len(feature) - 1
            leaves.append(len(feature) - 1)
    return RegressionTree(np.array(feature), np.array(threshold), np.array(left),
                          np.array(right), np.array(value), np.array(gain))


def random_ensemble(seed: int, n_trees: int, n_features: int, max_leaves: int) -> Ensemble:
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, n_features, int(rng.integers(2, max_leaves + 1)))
             for _ in range(n_trees)]
    return Ensemble(trees, 0.1, n_features)


def balanced_tree(rng, n_features: int, depth: int) -> RegressionTree:
    """Complete binary tree in breadth-first order: every leaf at `depth`."""
    n_internal = 2 ** depth - 1
    n = 2 * n_internal + 1
    internal = np.arange(n) < n_internal
    return RegressionTree(
        np.where(internal, rng.integers(n_features, size=n), -1),
        np.where(internal, np.round(rng.normal(size=n), 1), 0.0),
        np.where(internal, 2 * np.arange(n) + 1, -1),
        np.where(internal, 2 * np.arange(n) + 2, -1),
        np.round(rng.normal(size=n), 3), np.zeros(n))


def walk(ens: Ensemble, X) -> tuple[np.ndarray, np.ndarray]:
    """Per-tree root-to-leaf walk: flat exit-leaf indices and leaf depths."""
    X = np.asarray(X, dtype=np.float64)
    leaves = np.zeros((X.shape[0], ens.n_trees), dtype=np.int64)
    depths = np.zeros_like(leaves)
    root = 0
    for t, tree in enumerate(ens.trees):
        for r, x in enumerate(X):
            node = 0
            while tree.feature[node] >= 0:
                node = (tree.left[node] if x[tree.feature[node]] <= tree.threshold[node]
                        else tree.right[node])
                depths[r, t] += 1
            leaves[r, t] = root + node
        root += tree.n_nodes
    return leaves, depths


def switch_level(depths: np.ndarray) -> int:
    """Levels stepped densely: the first level at which fewer than half of
    the (row, tree) pairs are still at internal nodes."""
    level = 0
    while 2 * np.count_nonzero(depths > level) >= depths.size:
        level += 1
    return level


def edge_rows(ens: Ensemble, rng, n_rows: int) -> np.ndarray:
    """Rounded normals (threshold hits), then rows of exact thresholds, NaN
    and +-inf in random cells."""
    X = np.round(rng.normal(size=(n_rows, ens.feature_count)), 1)
    thresholds = np.concatenate([t.threshold[t.feature >= 0] for t in ens.trees])
    X[: n_rows // 4] = rng.choice(thresholds, size=(n_rows // 4, ens.feature_count))
    cells = rng.random(X.shape)
    X[cells < 0.06] = np.nan
    X[(cells >= 0.06) & (cells < 0.09)] = np.inf
    X[(cells >= 0.09) & (cells < 0.12)] = -np.inf
    return X


def assert_exact(ens: Ensemble, X) -> np.ndarray:
    comp = compile_ensemble(ens)
    leaves, depths = walk(ens, X)
    np.testing.assert_array_equal(exit_leaves(comp, X), leaves)
    assert np.array_equal(score_batch(comp, X), forest_oracle.score_batch(ens, X))
    return depths


def score_row(comp, x) -> float:
    return score_batch(comp, np.asarray(x, dtype=np.float64)[None, :])[0]


class TestCompile:
    def test_single_leaf_tree(self):
        ens = Ensemble([leaf_tree(2.5)], 0.5, 3)
        comp = compile_ensemble(ens)
        assert comp.conditions == {}
        np.testing.assert_array_equal(exit_leaves(comp, np.zeros((2, 3))), [[0], [0]])
        assert score_row(comp, np.zeros(3)) == 0.5 * 2.5

    def test_single_split_masks(self):
        ens = Ensemble([stump(0, 1.0, -1.0, 3.0)], 1.0, 1)
        comp = compile_ensemble(ens)
        assert score_row(comp, [0.5]) == -1.0   # x <= t goes left
        assert score_row(comp, [2.0]) == 3.0    # x > t goes right

    def test_value_equal_threshold_is_true_branch(self):
        ens = Ensemble([stump(0, 1.0, -1.0, 3.0)], 1.0, 1)
        assert score_row(compile_ensemble(ens), [1.0]) == -1.0

    def test_leaves_loop_to_themselves(self):
        ens = Ensemble([stump(1, 0.0, -1.0, 3.0), leaf_tree(2.0)], 1.0, 2)
        comp = compile_ensemble(ens)
        np.testing.assert_array_equal(comp.roots, [0, 3])
        np.testing.assert_array_equal(comp.right, [2, 1, 2, 3])
        np.testing.assert_array_equal(comp.threshold, [0.0, np.nan, np.nan, np.nan])
        np.testing.assert_array_equal(exit_leaves(comp, [[0.0, -1.0], [0.0, 1.0]]),
                                      [[1, 3], [2, 3]])

    def test_nan_column_zero_keeps_pairs_at_their_leaves(self):
        # Leaves read column 0 against a NaN threshold; a NaN there must not
        # move a pair off its leaf, whether it is stepped at the root, in the
        # dense phase (half the pairs live) or not at all.
        rng = np.random.default_rng(36)
        X = np.round(rng.normal(size=(40, 3)), 1)
        X[:, 0] = np.nan
        only_leaves = Ensemble([leaf_tree(2.0), leaf_tree(-0.5)], 1.0, 3)
        np.testing.assert_array_equal(exit_leaves(compile_ensemble(only_leaves), X),
                                      np.tile([0, 1], (40, 1)))
        half_live = Ensemble([leaf_tree(2.0), balanced_tree(rng, 3, 4)], 1.0, 3)
        leaves = exit_leaves(compile_ensemble(half_live), X)
        assert np.all(leaves[:, 0] == 0)
        assert_exact(half_live, X)

    def test_non_adjacent_children_rejected(self):
        tree = RegressionTree(
            np.array([0, -1, -1, -1]), np.array([0.5, 0.0, 0.0, 0.0]),
            np.array([1, -1, -1, -1]), np.array([3, -1, -1, -1]),
            np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(4))
        with pytest.raises(ValueError, match="right child"):
            compile_ensemble(Ensemble([stump(0, 0.0, 1.0, 2.0), tree], 0.1, 1))

    def test_cyclic_tree_rejected(self):
        # children adjacent at every node, but node 2's left child is the root
        tree = RegressionTree(
            np.array([0, -1, 1]), np.array([0.5, 0.0, 0.5]), np.array([1, -1, 0]),
            np.array([2, -1, 1]), np.array([0.0, 1.0, 0.0]), np.zeros(3))
        with pytest.raises(ValueError, match="tree 1: "):
            compile_ensemble(Ensemble([stump(0, 0.0, 1.0, 2.0), tree], 0.1, 2))

    def test_conditions_are_the_internal_nodes_per_feature(self):
        ens = random_ensemble(18, n_trees=12, n_features=5, max_leaves=20)
        conds = compile_ensemble(ens).conditions
        assert sum(fc.thresholds.shape[0] for fc in conds.values()) == sum(
            t.n_nodes - t.n_leaves for t in ens.trees)
        for f, fc in conds.items():
            want = np.concatenate([t.threshold[t.feature == f] for t in ens.trees])
            np.testing.assert_array_equal(fc.thresholds, np.sort(want))

    def test_64_leaves_accepted(self):
        tree = random_tree(np.random.default_rng(1), 4, 64)
        ens = Ensemble([tree], 0.1, 4)
        x = np.random.default_rng(2).normal(size=4)
        assert score_row(compile_ensemble(ens), x) == score_one(ens, x)

    def test_more_than_64_leaves_scores_exactly(self):
        trees = [random_tree(np.random.default_rng(s), 4, 200) for s in range(3)]
        ens = Ensemble(trees, 0.1, 4)
        X = np.round(np.random.default_rng(2).normal(size=(500, 4)), 2)
        assert np.array_equal(score_batch(compile_ensemble(ens), X),
                              forest_oracle.score_batch(ens, X))


class TestEquivalence:
    def test_exit_leaf_decode_matches_traversal(self):
        # Exit-leaf values on 1,000 random inputs, naive traversal as the
        # oracle, exact equality required.
        ens = random_ensemble(3, n_trees=20, n_features=6, max_leaves=16)
        comp = compile_ensemble(ens)
        rng = np.random.default_rng(4)
        X = np.round(rng.normal(size=(1000, 6)), 2)
        assert np.array_equal(forest_oracle.score_batch(ens, X), score_batch(comp, X))

    def test_score_one_equals_naive_exactly(self):
        ens = random_ensemble(5, n_trees=10, n_features=4, max_leaves=8)
        comp = compile_ensemble(ens)
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = np.round(rng.normal(size=4), 1)  # provoke threshold hits
            assert score_row(comp, x) == score_one(ens, x)

    def test_batch_equals_mapped_score_one(self):
        ens = random_ensemble(7, n_trees=15, n_features=5, max_leaves=12)
        X = np.random.default_rng(8).normal(size=(300, 5))
        batch = score_batch(compile_ensemble(ens), X)
        assert np.array_equal(batch, np.array([score_one(ens, x) for x in X]))

    def test_permuting_rows_permutes_scores(self):
        ens = random_ensemble(9, n_trees=8, n_features=3, max_leaves=6)
        comp = compile_ensemble(ens)
        X = np.random.default_rng(10).normal(size=(50, 3))
        p = np.random.default_rng(11).permutation(50)
        np.testing.assert_array_equal(score_batch(comp, X)[p], score_batch(comp, X[p]))

    def test_empty_ensemble_scores_zero(self):
        comp = compile_ensemble(Ensemble([], 0.1, 4))
        assert comp.n_trees == 0 and comp.conditions == {}
        assert np.all(score_batch(comp, np.zeros((5, 4))) == 0.0)

    def test_batch_of_one_equals_score_one(self):
        ens = random_ensemble(12, 5, 4, 8)
        x = np.random.default_rng(13).normal(size=4)
        assert score_row(compile_ensemble(ens), x) == score_one(ens, x)

    @pytest.mark.parametrize("n_rows", [1, 2, 3])
    def test_few_rows_equal_the_tree_order_sum_bitwise(self, n_rows):
        # np.add.reduce over the trees sums a single row pairwise, and a sum
        # started from the first tree keeps a row of all -0.0 leaves at -0.0.
        rng = np.random.default_rng(40 + n_rows)
        ens = random_ensemble(41, n_trees=150, n_features=4, max_leaves=8)
        for t in ens.trees:
            t.value[rng.random(t.n_nodes) < 0.3] = -0.0
        negative_zeros = Ensemble([stump(0, 0.0, -0.0, -0.0)] * 150, 0.1, 4)
        X = np.round(rng.normal(size=(n_rows, 4)), 1)
        for forest in (ens, negative_zeros):
            got = score_batch(compile_ensemble(forest), X)
            assert got.tobytes() == forest_oracle.score_batch(forest, X).tobytes()

    def test_zero_rows(self):
        comp = compile_ensemble(random_ensemble(19, 4, 3, 6))
        out = score_batch(comp, np.zeros((0, 3)))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_nan_feature_goes_right(self):
        ens = Ensemble([stump(0, 1.0, -1.0, 3.0)], 1.0, 2)
        assert score_row(compile_ensemble(ens), [np.nan, 0.0]) == 3.0
        ens = random_ensemble(20, n_trees=10, n_features=4, max_leaves=16)
        X = np.round(np.random.default_rng(21).normal(size=(400, 4)), 1)
        X[np.random.default_rng(22).random(X.shape) < 0.2] = np.nan
        assert np.array_equal(score_batch(compile_ensemble(ens), X),
                              forest_oracle.score_batch(ens, X))


class TestTwoPhases:
    """exit_leaves against a per-tree walk, and score_batch against the
    naive batch walk, wherever the dense-to-active switch falls."""

    def test_balanced_trees_never_switch(self):
        rng = np.random.default_rng(30)
        ens = Ensemble([balanced_tree(rng, 5, 6) for _ in range(12)], 0.1, 5)
        depths = assert_exact(ens, edge_rows(ens, rng, 120))
        assert np.all(depths == 6)
        assert switch_level(depths) == 6

    def test_mostly_leaf_trees_switch_at_the_root(self):
        rng = np.random.default_rng(35)
        trees = [leaf_tree(float(w)) for w in rng.normal(size=7)]
        trees += [balanced_tree(rng, 3, 2), random_tree(rng, 3, 30)]
        ens = Ensemble(trees, 0.1, 3)
        depths = assert_exact(ens, edge_rows(ens, rng, 100))
        assert switch_level(depths) == 0

    def test_stumps_and_leaves_switch_after_level_one(self):
        rng = np.random.default_rng(31)
        trees = ([leaf_tree(float(w)) for w in rng.normal(size=8)]
                 + [stump(int(rng.integers(4)), float(np.round(rng.normal(), 1)), -1.0, 2.0)
                    for _ in range(8)]
                 + [balanced_tree(rng, 4, 9)])
        ens = Ensemble(trees, 0.1, 4)
        depths = assert_exact(ens, edge_rows(ens, rng, 150))
        assert switch_level(depths) == 1
        assert depths.max() == 9

    def test_shallow_and_deep_mix_switches_mid_depth(self):
        rng = np.random.default_rng(32)
        trees = [balanced_tree(rng, 6, 3) for _ in range(6)]
        trees += [random_tree(rng, 6, 48) for _ in range(4)]
        ens = Ensemble(trees, 0.1, 6)
        depths = assert_exact(ens, edge_rows(ens, rng, 150))
        assert switch_level(depths) == 3 and depths.max() == 10

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_trees=st.integers(1, 10),
           max_leaves=st.integers(1, 40), data=st.data())
    def test_random_forests_and_matrices(self, seed, n_trees, max_leaves, data):
        rng = np.random.default_rng(seed)
        n_features = int(rng.integers(1, 5))
        trees = [random_tree(rng, n_features, int(rng.integers(1, max_leaves + 1)))
                 for _ in range(n_trees)]
        ens = Ensemble(trees, 0.1, n_features)
        thresholds = [float(v) for t in trees for v in t.threshold[t.feature >= 0]]
        cell = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, *thresholds]),
                         st.floats(-3, 3).map(lambda v: round(v, 2)))
        X = data.draw(hnp.arrays(np.float64, st.tuples(st.integers(0, 30),
                                                       st.just(n_features)), elements=cell))
        assert_exact(ens, X)


class TestValidation:
    def test_feature_length_mismatch(self):
        comp = compile_ensemble(random_ensemble(14, 3, 4, 4))
        with pytest.raises(ValueError):
            score_batch(comp, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            score_batch(comp, np.zeros((2, 3)))

    def test_ragged_input_rejected(self):
        comp = compile_ensemble(random_ensemble(15, 3, 4, 4))
        with pytest.raises(ValueError):
            score_batch(comp, np.zeros(4))  # 1-d is not a batch
