"""Flat forest scorer tests: exact equivalence with naive traversal."""

import numpy as np
import pytest

from blendrank.ltr import Ensemble, RegressionTree
from blendrank.scorer import compile_ensemble, score_batch


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




def score_row(comp, x) -> float:
    return score_batch(comp, np.asarray(x, dtype=np.float64)[None, :])[0]


class TestCompile:
    def test_single_leaf_tree(self):
        ens = Ensemble([leaf_tree(2.5)], 0.5, 3)
        comp = compile_ensemble(ens)
        assert comp.conditions == {}
        assert comp.depth == 0
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
        np.testing.assert_array_equal(comp.left, [1, 1, 2, 3])
        np.testing.assert_array_equal(comp.right, [2, 1, 2, 3])
        np.testing.assert_array_equal(comp.threshold, [0.0, np.inf, np.inf, np.inf])
        assert comp.depth == 1

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
        assert score_row(compile_ensemble(ens), x) == ens.score_one(x)

    def test_more_than_64_leaves_scores_exactly(self):
        trees = [random_tree(np.random.default_rng(s), 4, 200) for s in range(3)]
        ens = Ensemble(trees, 0.1, 4)
        X = np.round(np.random.default_rng(2).normal(size=(500, 4)), 2)
        assert np.array_equal(score_batch(compile_ensemble(ens), X), ens.score_batch(X))


class TestEquivalence:
    def test_exit_leaf_decode_matches_traversal(self):
        # Exit-leaf values on 1,000 random inputs, naive traversal as the
        # oracle, exact equality required.
        ens = random_ensemble(3, n_trees=20, n_features=6, max_leaves=16)
        comp = compile_ensemble(ens)
        rng = np.random.default_rng(4)
        X = np.round(rng.normal(size=(1000, 6)), 2)
        assert np.array_equal(ens.score_batch(X), score_batch(comp, X))

    def test_score_one_equals_naive_exactly(self):
        ens = random_ensemble(5, n_trees=10, n_features=4, max_leaves=8)
        comp = compile_ensemble(ens)
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = np.round(rng.normal(size=4), 1)  # provoke threshold hits
            assert score_row(comp, x) == ens.score_one(x)

    def test_batch_equals_mapped_score_one(self):
        ens = random_ensemble(7, n_trees=15, n_features=5, max_leaves=12)
        X = np.random.default_rng(8).normal(size=(300, 5))
        batch = score_batch(compile_ensemble(ens), X)
        assert np.array_equal(batch, np.array([ens.score_one(x) for x in X]))

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
        assert score_row(compile_ensemble(ens), x) == ens.score_one(x)

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
        assert np.array_equal(score_batch(compile_ensemble(ens), X), ens.score_batch(X))


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
