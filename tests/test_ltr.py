"""LambdaMART tests: swap-delta, lambda, and split-search oracles, training
set construction, early stopping, and reproducibility."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendrank import ltr
from blendrank.corpus import Corpus, Qrels, QuerySet, build_inverted_index
from blendrank.embeddings import EmbeddingMatrix
from blendrank.features import FeatureExtractor
from blendrank.ivf import Ranking
from blendrank.ltr import (MAX_BINS, Ensemble, LtrDataset, LtrGroup, RegressionTree, TrainParams,
                           bin_features, build_training_set, compute_lambdas,
                           feature_gains, fit_tree, load_model,
                           ndcg_from_scores, random_search_tune, save_model,
                           train, write_train_log, EPS, LEAF_CLAMP)
from blendrank.metrics import ideal_dcg, ndcg_at_k
from blendrank.scorer import forest_fault
from forest_oracle import predict_one, score_one


# ----------------------------------------------------------------------------
# Brute-force oracles
# ----------------------------------------------------------------------------

def brute_ndcg(order_labels, all_labels, k):
    """Plain-python nDCG with exponential gain and log2 discount."""
    def dcg(labels):
        return sum((2 ** l - 1) / math.log2(1 + r)
                   for r, l in enumerate(labels[:k], start=1))
    ideal = dcg(sorted(all_labels, reverse=True))
    return dcg(order_labels) / ideal if ideal > 0 else 0.0


def brute_delta_by_swap(labels, ranks, i, j, truncation):
    """Recompute nDCG before and after explicitly swapping two documents."""
    order = [None] * len(labels)
    for pos, r in enumerate(ranks):
        order[r - 1] = labels[pos]
    before = brute_ndcg(order, labels, truncation)
    ri, rj = ranks[i], ranks[j]
    order[ri - 1], order[rj - 1] = labels[j], labels[i]
    after = brute_ndcg(order, labels, truncation)
    return abs(after - before)


def delta_ndcg(labels, current_ranks, i: int, j: int, truncation: int = 10) -> float:
    """|nDCG@truncation change| if the documents at positions i and j swap
    ranks, in closed form; the brute-force swap above is its oracle."""
    if i == j:
        raise ValueError("i and j must differ")
    idcg = ideal_dcg(labels, truncation)
    if idcg == 0.0:
        return 0.0
    gi, gj = 2.0 ** labels[i] - 1.0, 2.0 ** labels[j] - 1.0
    ri, rj = current_ranks[i], current_ranks[j]
    di = 1.0 / math.log2(1.0 + ri) if ri <= truncation else 0.0
    dj = 1.0 / math.log2(1.0 + rj) if rj <= truncation else 0.0
    return abs((gi - gj) * (di - dj)) / idcg


def brute_lambdas(scores, labels, sigma, truncation, tie_ids):
    """Direct pair loop using explicit-swap deltas."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], tie_ids[i], i))
    ranks = [0] * n
    for pos, i in enumerate(order, start=1):
        ranks[i] = pos
    lam = np.zeros(n)
    hes = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if labels[i] > labels[j]:
                delta = brute_delta_by_swap(labels, ranks, i, j, truncation)
                rho = 1.0 / (1.0 + math.exp(sigma * (scores[i] - scores[j])))
                lam[i] += sigma * delta * rho
                lam[j] -= sigma * delta * rho
                hes[i] += sigma ** 2 * delta * rho * (1 - rho)
                hes[j] += sigma ** 2 * delta * rho * (1 - rho)
    return lam, hes


def brute_best_split(X, lambdas, hessians, min_data, min_hessian):
    """Enumerate every (feature, boundary) candidate and apply the tie rule."""
    n, f_count = X.shape
    best = None  # (gain, feature, threshold)
    tot_l, tot_h = lambdas.sum(), hessians.sum()
    parent = tot_l ** 2 / (tot_h + EPS)
    for f in range(f_count):
        vals = sorted(set(X[:, f]))
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2.0
            left = X[:, f] <= thr
            nl = int(left.sum())
            if nl < min_data or n - nl < min_data:
                continue
            hl, hr = hessians[left].sum(), hessians[~left].sum()
            if hl < min_hessian or hr < min_hessian:
                continue
            ll, lr = lambdas[left].sum(), lambdas[~left].sum()
            gain = ll ** 2 / (hl + EPS) + lr ** 2 / (hr + EPS) - parent
            if gain <= 0:
                continue
            if best is None or gain > best[0] + 1e-12:
                best = (gain, f, thr)
    return best


# ----------------------------------------------------------------------------
# delta_ndcg
# ----------------------------------------------------------------------------

class TestDeltaNdcg:
    def test_equal_labels_zero(self):
        assert delta_ndcg([1, 1, 0], [1, 2, 3], 0, 1) == 0.0

    def test_both_below_truncation_zero(self):
        labels = [2, 0, 1, 0, 1]
        ranks = [1, 2, 4, 5, 3]
        assert delta_ndcg(labels, ranks, 1, 3, truncation=2) == 0.0

    def test_worked_value(self):
        # |(3 - 0) * (1/log2(2) - 1/log2(3))| / 3 = 0.369070...
        got = delta_ndcg([2, 0], [1, 2], 0, 1, truncation=10)
        assert abs(got - 0.369070) < 1e-6

    def test_symmetric_in_i_j(self):
        labels = [2, 1, 0, 1]
        ranks = [2, 1, 4, 3]
        assert delta_ndcg(labels, ranks, 0, 2) == delta_ndcg(labels, ranks, 2, 0)

    def test_matches_brute_force_swap(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            labels = rng.integers(0, 4, n).tolist()
            ranks = (rng.permutation(n) + 1).tolist()
            i, j = rng.choice(n, size=2, replace=False)
            got = delta_ndcg(labels, ranks, int(i), int(j), truncation=10)
            want = brute_delta_by_swap(labels, ranks, int(i), int(j), 10)
            assert abs(got - want) < 1e-9

    def test_zero_ideal_gives_zero(self):
        assert delta_ndcg([0, 0], [1, 2], 0, 1) == 0.0


# ----------------------------------------------------------------------------
# compute_lambdas
# ----------------------------------------------------------------------------

class TestComputeLambdas:
    def test_all_labels_equal(self):
        lam, hes = compute_lambdas(np.array([1.0, 2.0]), np.array([1, 1]))
        assert np.all(lam == 0) and np.all(hes == 0)

    def test_two_docs_equal_scores_rho_half(self):
        scores = np.array([0.0, 0.0])
        labels = np.array([1, 0])
        lam, hes = compute_lambdas(scores, labels, sigma=1.0, truncation=10)
        delta = delta_ndcg(labels, [1, 2], 0, 1, 10)
        assert abs(lam[0] - 0.5 * delta) < 1e-12
        assert abs(lam[0] + lam[1]) < 1e-15

    def test_lambda_sum_zero(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            lam, _ = compute_lambdas(rng.normal(size=n), rng.integers(0, 3, n))
            assert abs(lam.sum()) < 1e-8

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 4, n)
            tie_ids = rng.permutation(n)
            lam, hes = compute_lambdas(scores, labels, 1.0, 10, tie_ids)
            blam, bhes = brute_lambdas(scores, labels, 1.0, 10, tie_ids)
            np.testing.assert_allclose(lam, blam, atol=1e-9)
            np.testing.assert_allclose(hes, bhes, atol=1e-9)


# ----------------------------------------------------------------------------
# fit_tree
# ----------------------------------------------------------------------------

def leaf_params(**kw):
    defaults = dict(learning_rate=0.1, num_leaves=4, min_sum_hessian_leaf=0.0,
                    min_data_leaf=1, patience=1, max_trees=1)
    defaults.update(kw)
    return TrainParams(**defaults)


class TestFitTree:
    def test_constant_lambdas_zero_hessians_single_clamped_leaf(self):
        X = np.linspace(0, 1, 8).reshape(-1, 1)
        lam = np.full(8, 2.0)
        hes = np.zeros(8)
        tree = fit_tree(X, lam, hes, leaf_params())
        assert tree.n_leaves == 1
        assert tree.value[0] == LEAF_CLAMP

    def test_perfect_1d_separation_matches_brute_force(self):
        rng = np.random.default_rng(3)
        left = rng.uniform(0.0, 0.4, 10)
        right = rng.uniform(0.6, 1.0, 10)
        X = np.concatenate([left, right]).reshape(-1, 1)
        lam = np.concatenate([np.full(10, -1.0), np.full(10, 1.0)])
        hes = np.full(20, 0.5)
        tree = fit_tree(X, lam, hes, leaf_params(num_leaves=2))
        want = brute_best_split(X, lam, hes, 1, 0.0)
        assert tree.feature[0] == want[1]
        assert abs(tree.threshold[0] - want[2]) < 1e-12
        assert abs(tree.gain[0] - want[0]) < 1e-9
        assert left.max() < tree.threshold[0] < right.min()

    def test_split_matches_brute_force_random(self):
        rng = np.random.default_rng(41)
        for trial in range(30):
            n = int(rng.integers(4, 30))
            f = int(rng.integers(1, 5))
            X = np.round(rng.normal(size=(n, f)), 2)  # force ties
            lam = rng.normal(size=n)
            hes = rng.uniform(0.1, 1.0, size=n)
            min_data = int(rng.integers(1, 3))
            tree = fit_tree(X, lam, hes, leaf_params(num_leaves=2, min_data_leaf=min_data))
            want = brute_best_split(X, lam, hes, min_data, 0.0)
            if want is None:
                assert tree.n_leaves == 1
            else:
                assert tree.feature[0] == want[1], f"trial {trial}"
                assert abs(tree.threshold[0] - want[2]) < 1e-12
                assert abs(tree.gain[0] - want[0]) < 1e-9

    def test_min_data_leaf_blocks_split(self):
        X = np.linspace(0, 1, 10).reshape(-1, 1)
        lam = np.where(X[:, 0] > 0.5, 1.0, -1.0)
        hes = np.full(10, 0.5)
        tree = fit_tree(X, lam, hes, leaf_params(min_data_leaf=6))
        assert tree.n_leaves == 1

    def test_leaf_budget_respected(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 3))
        lam = rng.normal(size=200)
        hes = rng.uniform(0.1, 1.0, 200)
        for budget in (1, 2, 5, 16):
            tree = fit_tree(X, lam, hes, leaf_params(num_leaves=budget))
            assert 1 <= tree.n_leaves <= budget

    def test_equal_gains_split_the_lower_slot(self):
        # The root splits at 1.5; its children (slots 1 and 2) then tie at
        # gain 4, and the budget of 3 leaves lets only the left one split.
        X = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=float).reshape(-1, 1)
        lam = np.array([3, 3, 1, 1, -1, -1, -3, -3], dtype=float)
        hes = np.ones(8)
        tree = fit_tree(X, lam, hes, leaf_params(num_leaves=3))
        assert tree.threshold[0] == 1.5
        assert list(tree.feature) == [0, 0, -1, -1, -1]
        assert list(tree.left) == [1, 3, -1, -1, -1]
        both = fit_tree(X, lam, hes, leaf_params(num_leaves=4))
        assert both.gain[1] == both.gain[2] > 0

    def test_leaf_value_is_newton_step(self):
        X = np.array([[0.0], [1.0]])
        lam = np.array([3.0, 3.0])
        hes = np.array([2.0, 2.0])
        tree = fit_tree(X, lam, hes, leaf_params(min_data_leaf=2))
        assert tree.n_leaves == 1
        assert abs(tree.value[0] - 6.0 / (4.0 + EPS)) < 1e-12

    def test_threshold_between_adjacent_doubles_agrees_with_partition(self):
        # The midpoint of 1+2**-52 and 1+2**-51 rounds to the larger value,
        # which would send the right-hand rows left as well.
        lo, hi = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
        X = np.array([lo] * 4 + [hi] * 4).reshape(-1, 1)
        lam = np.array([1.0] * 4 + [-1.0] * 4)
        tree = fit_tree(X, lam, np.ones(8), leaf_params(num_leaves=2))
        assert tree.n_leaves == 2
        assert lo <= tree.threshold[0] < hi
        np.testing.assert_array_equal(np.sign(tree.predict_batch(X)), np.sign(lam))

    def test_threshold_of_huge_values_is_finite(self):
        lo, hi = 1.5e308, 1.7e308  # their sum overflows to inf
        X = np.array([lo] * 3 + [hi] * 3).reshape(-1, 1)
        lam = np.array([1.0] * 3 + [-1.0] * 3)
        tree = fit_tree(X, lam, np.ones(6), leaf_params(num_leaves=2))
        assert tree.threshold[0] == lo
        np.testing.assert_array_equal(np.sign(tree.predict_batch(X)), np.sign(lam))

    def test_predict_batch_equals_predict_one(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(150, 4))
        lam = rng.normal(size=150)
        hes = rng.uniform(0.1, 1.0, 150)
        tree = fit_tree(X, lam, hes, leaf_params(num_leaves=10))
        Xq = rng.normal(size=(80, 4))
        batch = tree.predict_batch(Xq)
        ones = np.array([predict_one(tree, x) for x in Xq])
        np.testing.assert_array_equal(batch, ones)


def brute_binned_split(X, lambdas, hessians, min_data, min_hessian):
    """Enumerate every (feature, bin) split of the binned matrix and apply the
    tie rule. The left side is the rows whose code is at most the split bin;
    the threshold is the midpoint between the largest left value and the
    smallest right one that is not NaN, or the largest left value."""
    codes = bin_features(X).codes
    n, f_count = X.shape
    best = None  # (gain, feature, threshold)
    tot_l, tot_h = lambdas.sum(), hessians.sum()
    parent = tot_l ** 2 / (tot_h + EPS)
    for f in range(f_count):
        numbers = ~np.isnan(X[:, f])
        for b in sorted(set(codes[numbers, f].tolist())):
            left = codes[:, f] <= b
            nl = int(left.sum())
            if nl < min_data or n - nl < min_data:
                continue
            hl, hr = hessians[left].sum(), hessians[~left].sum()
            if hl < min_hessian or hr < min_hessian:
                continue
            ll, lr = lambdas[left].sum(), lambdas[~left].sum()
            gain = ll ** 2 / (hl + EPS) + lr ** 2 / (hr + EPS) - parent
            if gain <= 0:
                continue
            lo = X[left, f].max()
            right = X[~left & numbers, f]
            thr = lo
            if right.shape[0]:
                mid = (lo + right.min()) / 2.0
                thr = mid if lo <= mid < right.min() else lo
            if best is None or gain > best[0] + 1e-12:
                best = (gain, f, thr)
    return best


def node_rows(tree, X):
    """{node: the rows of X that reach it}."""
    reach = {0: np.arange(X.shape[0])}
    for i in range(tree.n_nodes):
        rows = reach.get(i)
        if rows is not None and tree.feature[i] >= 0:
            goes_left = X[rows, tree.feature[i]] <= tree.threshold[i]
            reach[tree.left[i]], reach[tree.right[i]] = rows[goes_left], rows[~goes_left]
    return reach


def wide_matrix(rng, n, n_features, nan_share=0.0):
    """Columns with far more than MAX_BINS distinct values, some tied, some NaN."""
    X = rng.normal(size=(n, n_features))
    X[:, ::2] = np.round(X[:, ::2], 2)
    X[rng.random(X.shape) < nan_share] = np.nan
    return X


class TestBinnedLearner:
    def test_bins_are_ordered_runs_of_training_values(self):
        rng = np.random.default_rng(50)
        X = wide_matrix(rng, 900, 4, nan_share=0.1)
        X[:, 3] = rng.integers(0, 7, 900)
        bins = bin_features(X)
        for f in range(X.shape[1]):
            col, code = X[:, f], bins.codes[:, f].astype(np.int64)
            b = bins.n_values[f]
            numbers = ~np.isnan(col)
            assert b + (~numbers).any() <= MAX_BINS
            np.testing.assert_array_equal(code[~numbers], b)
            order = np.argsort(col[numbers], kind="stable")
            assert (np.diff(code[numbers][order]) >= 0).all()
            for v in range(b):
                in_bin = col[code == v]
                assert in_bin.min() == bins.lower[f, v] and in_bin.max() == bins.upper[f, v]
        assert bins.n_values[3] == 7

    def test_wide_feature_split_matches_binned_brute_force(self):
        rng = np.random.default_rng(51)
        for trial in range(6):
            X = wide_matrix(rng, 600, 3, nan_share=0.05 * (trial % 2))
            lam = rng.normal(size=600) + (np.nan_to_num(X[:, trial % 3]) > 0.3)
            hes = rng.uniform(0.1, 1.0, size=600)
            min_data = int(rng.integers(1, 40))
            assert len(set(X[:, 1].tolist())) > MAX_BINS
            tree = fit_tree(X, lam, hes, leaf_params(num_leaves=2, min_data_leaf=min_data))
            want = brute_binned_split(X, lam, hes, min_data, 0.0)
            assert want is not None
            assert tree.feature[0] == want[1], f"trial {trial}"
            assert tree.threshold[0] == want[2]
            assert abs(tree.gain[0] - want[0]) < 1e-9

    def test_nan_rows_go_right_and_never_set_a_threshold(self):
        X = np.array([1.0, 2.0, 3.0, np.nan, np.nan, np.nan]).reshape(-1, 1)
        lam = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        tree = fit_tree(X, lam, np.ones(6), leaf_params(num_leaves=2))
        assert tree.threshold[0] == 3.0
        np.testing.assert_array_equal(np.sign(tree.predict_batch(X)), np.sign(lam))
        rng = np.random.default_rng(52)
        X = wide_matrix(rng, 400, 3, nan_share=0.3)
        X[:, 2] = np.nan
        tree = fit_tree(X, rng.normal(size=400), rng.uniform(0.1, 1.0, 400),
                        leaf_params(num_leaves=12, min_data_leaf=3))
        inner = tree.feature >= 0
        assert inner.any() and np.isfinite(tree.threshold[inner]).all()
        assert 2 not in tree.feature.tolist()
        reach = node_rows(tree, X)
        for i, rows in reach.items():
            if tree.feature[i] >= 0:
                nan_rows = rows[np.isnan(X[rows, tree.feature[i]])]
                assert np.isin(nan_rows, reach[tree.right[i]]).all()

    def test_every_threshold_splits_the_rows_as_their_codes_do(self):
        rng = np.random.default_rng(53)
        for trial in range(4):
            X = wide_matrix(rng, 700, 4, nan_share=0.08)
            codes = bin_features(X).codes
            tree = fit_tree(X, rng.normal(size=700), rng.uniform(0.1, 1.0, 700),
                            leaf_params(num_leaves=24, min_data_leaf=4))
            assert tree.n_leaves > 8
            for i, rows in node_rows(tree, X).items():
                f = tree.feature[i]
                if f < 0:
                    continue
                goes_left = X[rows, f] <= tree.threshold[i]
                assert 0 < goes_left.sum() < rows.shape[0]
                # One bin b: the rows at or below it go left, the others right.
                b = codes[rows[goes_left], f].max()
                np.testing.assert_array_equal(goes_left, codes[rows, f] <= b)

    def test_larger_child_histogram_equals_a_direct_one(self, monkeypatch):
        rng = np.random.default_rng(54)
        X = wide_matrix(rng, 500, 3, nan_share=0.05)
        lam, hes = rng.normal(size=500), rng.uniform(0.1, 1.0, 500)
        real_split = ltr._TreeBuilder._split
        checked = []

        def split_and_check(builder, node, *args):
            children = real_split(builder, node, *args)
            large = max(children, key=lambda c: c.rows.shape[0])
            if large.hist is not None:
                direct = builder._histogram(large.rows, *args[2:])
                np.testing.assert_array_equal(large.hist[2], direct[2])
                np.testing.assert_allclose(large.hist[0], direct[0], rtol=0, atol=1e-9)
                np.testing.assert_allclose(large.hist[1], direct[1], rtol=0, atol=1e-9)
                checked.append(large.rows.shape[0])
            return children

        monkeypatch.setattr(ltr._TreeBuilder, "_split", split_and_check)
        fit_tree(X, lam, hes, leaf_params(num_leaves=16, min_data_leaf=5))
        assert len(checked) >= 5

    def test_one_seed_twice_gives_the_same_model_bytes(self, tmp_path):
        params = train_params(num_leaves=16, min_data_leaf=3, max_trees=6)
        paths = []
        for run in range(2):
            model = train(wide_dataset(55), wide_dataset(56), params)
            assert model.n_trees > 0
            paths.append(tmp_path / f"run{run}.json")
            save_model(model, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_group_permutation_leaves_the_binned_model_unchanged(self, tmp_path):
        # Quantile bins hold many rows each, so their sums must not follow
        # the order the rows come in.
        ds = wide_dataset(57)
        rng = np.random.default_rng(1)
        shuffled = []
        for g in ds.groups:
            p = rng.permutation(g.features.shape[0])
            shuffled.append(LtrGroup(g.query_id, g.features[p], g.labels[p], g.doc_ids[p]))
        params = train_params(num_leaves=16, min_data_leaf=3, max_trees=6)
        for name, train_ds in (("a", ds), ("b", LtrDataset(shuffled))):
            save_model(train(train_ds, wide_dataset(58), params), tmp_path / f"{name}.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def wide_dataset(seed):
    """30 groups of 20 rows whose features have more than MAX_BINS distinct values."""
    rng = np.random.default_rng(seed)
    groups = []
    for g in range(30):
        X = wide_matrix(rng, 20, 4, nan_share=0.05)
        y = (np.nan_to_num(X[:, 1]) > 0.5).astype(np.int64)
        groups.append(LtrGroup(f"q{g}", X, y, np.arange(20, dtype=np.int64)))
    return LtrDataset(groups)


# ----------------------------------------------------------------------------
# Training set construction
# ----------------------------------------------------------------------------

def tiny_world(n_docs=50, seed=0):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(10)]
    texts = [" ".join(rng.choice(vocab, size=8)) for _ in range(n_docs)]
    corpus = Corpus([f"d{i}" for i in range(n_docs)], texts)
    index = build_inverted_index(corpus)
    emb = EmbeddingMatrix(rng.normal(size=(n_docs, 4)).astype(np.float32))
    return corpus, FeatureExtractor(index, emb)


class TestBuildTrainingSet:
    def ranking(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        return Ranking(ids, np.linspace(1.0, 0.5, len(ids)))

    def test_one_relevant_plus_30_negatives(self):
        corpus, ex = tiny_world()
        queries = QuerySet(["q1"], ["w1 w2"])
        qrels = Qrels({("q1", "d0"): 1})
        rankings = {"q1": self.ranking(range(40))}
        ds = build_training_set(queries, qrels, rankings, corpus, ex,
                                {"q1": np.ones(4)}, n_neg=30, seed=0)
        assert len(ds.groups) == 1
        assert ds.groups[0].features.shape[0] == 31
        assert sorted(ds.groups[0].labels.tolist(), reverse=True)[0] == 1

    def test_query_without_relevants_dropped(self):
        corpus, ex = tiny_world()
        queries = QuerySet(["q1", "q2"], ["w1", "w2"])
        qrels = Qrels({("q1", "d0"): 1})
        rankings = {"q1": self.ranking(range(35)), "q2": self.ranking(range(35))}
        ds = build_training_set(queries, qrels, rankings, corpus, ex,
                                {"q1": np.ones(4), "q2": np.ones(4)}, 30, 0)
        assert [g.query_id for g in ds.groups] == ["q1"]

    def test_small_pool_clamps(self):
        corpus, ex = tiny_world()
        queries = QuerySet(["q1"], ["w1"])
        qrels = Qrels({("q1", "d1"): 2})
        rankings = {"q1": self.ranking(range(10))}
        ds = build_training_set(queries, qrels, rankings, corpus, ex,
                                {"q1": np.ones(4)}, n_neg=30, seed=0)
        # 1 relevant + the 9 other retrieved docs
        assert ds.groups[0].features.shape[0] == 10

    def test_unretrieved_relevant_still_included(self):
        corpus, ex = tiny_world()
        queries = QuerySet(["q1"], ["w1"])
        qrels = Qrels({("q1", "d45"): 1})
        rankings = {"q1": self.ranking(range(10))}  # d45 not retrieved
        ds = build_training_set(queries, qrels, rankings, corpus, ex,
                                {"q1": np.ones(4)}, n_neg=5, seed=0)
        assert 45 in ds.groups[0].doc_ids.tolist()

    def test_deterministic_sampling(self):
        corpus, ex = tiny_world()
        queries = QuerySet(["q1"], ["w1 w3"])
        qrels = Qrels({("q1", "d3"): 1})
        rankings = {"q1": self.ranking(range(50))}
        a = build_training_set(queries, qrels, rankings, corpus, ex,
                               {"q1": np.ones(4)}, 10, seed=4)
        b = build_training_set(queries, qrels, rankings, corpus, ex,
                               {"q1": np.ones(4)}, 10, seed=4)
        assert a.groups[0].doc_ids.tolist() == b.groups[0].doc_ids.tolist()

    def test_rows_are_the_merged_candidates_features(self):
        corpus, ex = tiny_world()
        queries = QuerySet(["q1"], ["w1 w4 w2"])
        qrels = Qrels({("q1", "d30"): 2, ("q1", "d7"): 1, ("q1", "d45"): 1})
        ranked = np.random.default_rng(3).permutation(40)
        rankings = {"q1": self.ranking(ranked)}
        group = build_training_set(queries, qrels, rankings, corpus, ex,
                                   {"q1": np.ones(4)}, n_neg=12, seed=2).groups[0]
        merged = np.append(ranked, 45)  # d45 was not retrieved
        full = ex.feature_matrix(ex.tokenize_query("w1 w4 w2"), np.ones(4), merged)
        position = {int(d): p for p, d in enumerate(merged)}
        assert group.doc_ids[:3].tolist() == [7, 30, 45]
        assert group.labels.tolist() == [1, 2, 1] + [0] * 12
        np.testing.assert_array_equal(
            group.features, full[[position[int(d)] for d in group.doc_ids]])

    @pytest.mark.parametrize("n_neg, negatives", [(3, [3, 5, 5]), (30, [5, 12, 3, 5, 9, 11])])
    def test_repeated_ids_in_the_ranking(self, n_neg, negatives):
        # d7 (relevant) and d5 (not) are each retrieved twice; d20 (relevant)
        # is not retrieved. The pool keeps both copies of d5, and each row is
        # the merged list's last position of its id.
        corpus, ex = tiny_world()
        queries = QuerySet(["q1"], ["w1 w4 w2"])
        qrels = Qrels({("q1", "d7"): 2, ("q1", "d20"): 1})
        ranked = [5, 7, 3, 7, 9, 5, 11, 12]
        group = build_training_set(queries, qrels, {"q1": self.ranking(ranked)}, corpus, ex,
                                   {"q1": np.ones(4)}, n_neg=n_neg, seed=2).groups[0]
        merged = np.array(ranked + [20])
        full = ex.feature_matrix(ex.tokenize_query("w1 w4 w2"), np.ones(4), merged)
        last = {int(d): p for p, d in enumerate(merged)}
        assert group.doc_ids.tolist() == [7, 20] + negatives
        assert group.labels.tolist() == [2, 1] + [0] * len(negatives)
        np.testing.assert_array_equal(group.features,
                                      full[[last[int(d)] for d in group.doc_ids]])

    def test_unknown_qrels_doc_ids_ignored(self):
        corpus, ex = tiny_world()
        queries = QuerySet(["q1"], ["w1"])
        qrels = Qrels({("q1", "d3"): 1, ("q1", "ghost"): 2})
        rankings = {"q1": self.ranking(range(20))}
        ds = build_training_set(queries, qrels, rankings, corpus, ex,
                                {"q1": np.ones(4)}, 5, 0)
        assert all(d < 50 for d in ds.groups[0].doc_ids)


# ----------------------------------------------------------------------------
# train / early stopping / reproducibility
# ----------------------------------------------------------------------------

def synthetic_dataset(seed, n_groups=12, group_size=16, n_features=5):
    """Relevance = (x0 > 0.5) so training has signal to find."""
    rng = np.random.default_rng(seed)
    groups = []
    for g in range(n_groups):
        X = rng.random((group_size, n_features))
        y = (X[:, 0] > 0.5).astype(np.int64)
        groups.append(LtrGroup(f"q{g}", X, y, np.arange(group_size, dtype=np.int64)))
    return LtrDataset(groups)


def train_params(**kw):
    defaults = dict(learning_rate=0.1, num_leaves=8, min_sum_hessian_leaf=0.0,
                    min_data_leaf=1, patience=5, max_trees=20)
    defaults.update(kw)
    return TrainParams(**defaults)


class TestLtrDataset:
    def test_select_columns_keeps_groups_and_column_order(self):
        ds = synthetic_dataset(0)
        sel = ds.select_columns(np.array([3, 0]))
        assert sel.feature_count == 2 and len(sel) == len(ds)
        for a, b in zip(sel.groups, ds.groups):
            assert a.query_id == b.query_id
            np.testing.assert_array_equal(a.features, b.features[:, [3, 0]])
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.doc_ids, b.doc_ids)


class TestTrain:
    def test_zero_max_trees_empty_ensemble(self):
        ens = train(synthetic_dataset(0), synthetic_dataset(1),
                    train_params(max_trees=0))
        assert ens.n_trees == 0
        assert score_one(ens, np.zeros(5)) == 0.0
        assert np.all(ens.score_batch(np.zeros((3, 5))) == 0.0)

    def test_learns_signal(self):
        ens = train(synthetic_dataset(2), synthetic_dataset(3), train_params())
        assert ens.metadata["best_valid_metric"] > 0.8

    def test_truncates_at_best_iteration(self):
        ens = train(synthetic_dataset(4), synthetic_dataset(5), train_params())
        log = ens.metadata["valid_log"]
        best = max(range(len(log)), key=lambda i: log[i]) + 1
        assert ens.n_trees == best

    def test_early_stop_counts_flat_rounds(self):
        # The validation metric saturates at 1.0 on an easy problem; after
        # `patience` non-improving trees training must stop.
        params = train_params(patience=3, max_trees=50)
        ens = train(synthetic_dataset(6), synthetic_dataset(6), params)
        log = ens.metadata["valid_log"]
        assert len(log) == ens.metadata["best_iteration"] + params.patience
        assert len(log) < params.max_trees

    def test_bit_reproducible(self, tmp_path):
        a = train(synthetic_dataset(7), synthetic_dataset(8), train_params())
        b = train(synthetic_dataset(7), synthetic_dataset(8), train_params())
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, pa)
        save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_group_permutation_leaves_model_unchanged(self, tmp_path):
        ds = synthetic_dataset(9)
        rng = np.random.default_rng(0)
        shuffled = []
        for g in ds.groups:
            p = rng.permutation(g.features.shape[0])
            shuffled.append(LtrGroup(g.query_id, g.features[p], g.labels[p],
                                     g.doc_ids[p]))
        valid = synthetic_dataset(10)
        a = train(ds, valid, train_params())
        b = train(LtrDataset(shuffled), valid, train_params())
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_model(a, pa)
        save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_scoring_is_additive_in_trees(self):
        # Conjunctive labels with stump trees force a multi-tree ensemble.
        def and_dataset(seed):
            rng = np.random.default_rng(seed)
            groups = []
            for g in range(12):
                X = rng.random((16, 5))
                y = ((X[:, 0] > 0.5) & (X[:, 1] > 0.5)).astype(np.int64)
                groups.append(LtrGroup(f"q{g}", X, y, np.arange(16, dtype=np.int64)))
            return LtrDataset(groups)

        ens = train(and_dataset(11), and_dataset(12), train_params(num_leaves=2))
        assert ens.n_trees >= 2
        X = np.random.default_rng(1).random((10, 5))
        partial = Ensemble(ens.trees[:-1], ens.learning_rate, ens.feature_count)
        last = ens.trees[-1]
        full = ens.score_batch(X)
        np.testing.assert_allclose(
            full, partial.score_batch(X) + ens.learning_rate * last.predict_batch(X),
            atol=1e-12)

    def test_feature_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            train(synthetic_dataset(0, n_features=4), synthetic_dataset(1), train_params())

    def test_model_round_trip(self, tmp_path):
        ens = train(synthetic_dataset(13), synthetic_dataset(14), train_params())
        path = tmp_path / "model.json"
        save_model(ens, path)
        loaded = load_model(path)
        X = np.random.default_rng(2).random((20, 5))
        np.testing.assert_array_equal(ens.score_batch(X), loaded.score_batch(X))
        assert loaded.metadata["best_iteration"] == ens.metadata["best_iteration"]

    def test_save_load_save_gives_the_same_bytes(self, tmp_path):
        ens = train(synthetic_dataset(13), synthetic_dataset(14), train_params())
        masked = Ensemble(ens.trees, 0.1 + 0.2, 5, "lexical", "a1b2c3",
                          np.array([0, 2, 3, 7, 40], dtype=np.int64),
                          {**ens.metadata, "note": "déjà", "tiny": 5e-324})
        for model in (ens, masked):
            save_model(model, tmp_path / "a.json")
            save_model(load_model(tmp_path / "a.json"), tmp_path / "b.json")
            assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_save_load_keeps_every_tree_array_bit_for_bit(self, tmp_path):
        ens = train(synthetic_dataset(13), synthetic_dataset(14), train_params())
        payload_nan = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]
        odd = RegressionTree(np.array([0, -1, -1]), np.array([-0.0, np.nan, payload_nan]),
                             np.array([1, -1, -1]), np.array([2, -1, -1]),
                             np.array([0.0, -0.0, np.nan]), np.array([-np.nan, -0.0, 5e-324]))
        model = Ensemble([*ens.trees, odd], ens.learning_rate, ens.feature_count)
        save_model(model, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert len(loaded.trees) == len(model.trees)
        for want, got in zip(model.trees, loaded.trees):
            for name in ltr._TREE_ARRAYS:
                a, b = getattr(want, name), getattr(got, name)
                assert b.dtype == a.dtype and np.array_equal(b.view(np.uint8), a.view(np.uint8))

    def test_version_1_model_rejected_naming_version_and_command(self, tmp_path):
        import json
        path = tmp_path / "old.json"
        save_model(Ensemble([], 0.1, 3), path)
        doc = json.loads(path.read_text())
        doc["version"], doc["trees"] = 1, []
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: model version 1; this version reads only version 2: "
                "retrain it with `blendrank train`")):
            load_model(path)

    @pytest.mark.parametrize("tree", [
        # node 1 points back to node 0: a cycle
        {"feature": [0, 0, -1], "left": [1, 0, -1], "right": [2, 1, -1]},
        # children past the end of the node arrays
        {"feature": [0, -1, -1], "left": [2, -1, -1], "right": [3, -1, -1]},
        # a feature the model does not have
        {"feature": [3, -1, -1], "left": [1, -1, -1], "right": [2, -1, -1]},
        # right child not right after the left one
        {"feature": [0, -1, -1, -1], "left": [1, -1, -1, -1], "right": [3, -1, -1, -1]},
        # node 2 has two parents
        {"feature": [0, 0, -1, -1], "left": [1, 2, -1, -1], "right": [2, 3, -1, -1]},
        # a leaf with a child
        {"feature": [0, -1, -1], "left": [1, 0, -1], "right": [2, -1, -1]},
        # arrays of unequal lengths
        {"feature": [0, -1, -1], "left": [1, -1, -1], "right": [2, -1]},
    ], ids=["cycle", "child_out_of_range", "feature_out_of_range", "non_adjacent_children",
            "two_parents", "leaf_with_child", "unequal_lengths"])
    def test_malformed_tree_rejected_naming_file_and_tree(self, tmp_path, tree):
        import base64
        import json
        good = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1],
                "value": [0.5], "gain": [0.0]}
        n = len(tree["feature"])
        bad = {"threshold": [0.5] * n, "value": [0.0] * n, "gain": [0.0] * n, **tree}
        path = tmp_path / "model.json"
        save_model(Ensemble([], 0.1, 3), path)
        doc = json.loads(path.read_text())
        doc["trees"] = {"sizes": [1, n], **{
            name: base64.b64encode(np.array(good[name] + bad[name], dtype).tobytes()).decode()
            for name, dtype in ltr._TREE_ARRAYS.items()}}
        path.write_text(json.dumps(doc))
        # The packed arrays share one node count, so a short array is named
        # by its length against the sizes.
        want = "tree 1: " if len(bad["right"]) == n else "trees right holds 3 values; the sizes"
        with pytest.raises(ValueError, match=re.escape(f"{path}: {want}")):
            load_model(path)

    def test_forest_fault_names_the_first_bad_tree(self):
        ens = train(synthetic_dataset(13), synthetic_dataset(14), train_params())
        assert forest_fault(ens.trees, ens.feature_count) is None
        cyclic = RegressionTree(np.array([0, -1, 1]), np.zeros(3), np.array([1, -1, 0]),
                                np.array([2, -1, 1]), np.zeros(3), np.zeros(3))
        leaf_with_child = RegressionTree(np.array([-1]), np.zeros(1), np.array([0]),
                                         np.array([0]), np.zeros(1), np.zeros(1))
        index, reason = forest_fault([ens.trees[0], cyclic, leaf_with_child], ens.feature_count)
        assert index == 1 and reason.startswith("an internal node needs")
        assert forest_fault([leaf_with_child, cyclic], 2) == (
            0, "a leaf (feature -1) must have left = right = -1")

    @pytest.mark.parametrize("ids", [[0, 2, 3], [0, 2, 3, 7, 40, 41], [0, 2, 2, 7, 40],
                                     [0, 7, 2, 8, 40], [-1, 2, 3, 7, 40], [[0, 2, 3, 7, 40]]],
                             ids=["too_few", "too_many", "repeated", "unsorted", "negative",
                                  "two_dimensional"])
    def test_recorded_columns_must_rise_one_per_feature(self, ids):
        with pytest.raises(ValueError, match="^mask_included must be 5 strictly increasing "):
            Ensemble([], 0.1, 5, "lexical", "", np.array(ids, dtype=np.int64))

    @pytest.mark.parametrize("ids, message", [
        ([0, 2, 3, 7, 29], "mask_included must be 37 strictly increasing"),
        ([x + 0.5 for x in range(37)], "mask_included holds a value that is not an integer id"),
        ([str(x) for x in range(37)], "mask_included holds a value that is not an integer id")],
        ids=["too_few", "fractional", "text"])
    def test_bad_recorded_columns_rejected_at_load(self, tmp_path, ids, message):
        import json
        path = tmp_path / "model.json"
        save_model(Ensemble([], 0.1, 37, "lexical", "", np.arange(37, dtype=np.int64)), path)
        doc = json.loads(path.read_text())
        doc["mask_included"] = ids
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    def test_ensemble_rejects_a_cyclic_tree(self):
        # Built in memory and scored naively, this tree never reached a leaf.
        cyclic = RegressionTree(np.array([0, -1, 1]), np.zeros(3), np.array([1, -1, 0]),
                                np.array([2, -1, 1]), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="^tree 0: an internal node needs"):
            Ensemble([cyclic], 0.1, 2)

    def test_scoring_a_cyclic_tree_raises_instead_of_looping(self):
        # Both score through the compiled walker, which checks the layout
        # first: a cyclic tree, alone or appended to a built ensemble, is
        # named instead of walked forever.
        cyclic = RegressionTree(np.array([0, -1, 1]), np.zeros(3), np.array([1, -1, 0]),
                                np.array([2, -1, 1]), np.zeros(3), np.zeros(3))
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match="^tree 0: an internal node needs"):
            cyclic.predict_batch(X)
        ens = train(synthetic_dataset(13), synthetic_dataset(14), train_params())
        ens.trees.append(cyclic)
        with pytest.raises(ValueError, match=f"^tree {ens.n_trees - 1}: an internal node needs"):
            ens.score_batch(np.zeros((4, ens.feature_count)))

    def test_train_log_csv(self, tmp_path):
        ens = train(synthetic_dataset(15), synthetic_dataset(16), train_params())
        path = tmp_path / "log.csv"
        write_train_log(ens, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,valid_ndcg"
        assert len(lines) == len(ens.metadata["valid_log"]) + 1


class TestNdcgFromScores:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 3, n)
            order = np.lexsort((np.arange(n), np.arange(n), -scores))
            got = ndcg_from_scores(scores, labels, 10)
            want = brute_ndcg(labels[order].tolist(), labels.tolist(), 10)
            assert abs(got - want) < 1e-12

    def test_ideal_dcg_zero_for_all_zero_labels(self):
        assert ideal_dcg([0, 0, 0], 10) == 0.0
        assert ndcg_from_scores(np.array([1.0, 2.0]), np.array([0, 0]), 10) == 0.0

    def test_swapping_equal_grades_keeps_the_value(self):
        # Both orders rank the grades as [2, 3, 1, 1, 3, 0]; summing the DCG
        # in document order gives 0.8049456957413256 for one and ...255 for
        # the other, so a tree that only reorders equal grades would count
        # as an improvement in early stopping.
        labels = np.array([2, 3, 1, 1, 3, 0])
        a = ndcg_from_scores(np.array([6.0, 5, 4, 3, 2, 1]), labels, 10)
        b = ndcg_from_scores(np.array([6.0, 5, 3, 4, 2, 1]), labels, 10)
        assert a == b == ndcg_at_k([2, 3, 1, 1, 3, 0], labels, 10)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data(), n=st.integers(1, 25), k=st.integers(1, 12))
    def test_is_metrics_ndcg_of_the_ranked_grades(self, data, n, k):
        labels = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
        scores = np.array(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)),
                          dtype=np.float64)
        tie_ids = np.array(data.draw(st.permutations(range(n))))
        order = np.lexsort((np.arange(n), tie_ids, -scores))
        got = ndcg_from_scores(scores, labels, k, tie_ids)
        assert got == ndcg_at_k(labels[order], labels, k)
        # Two equal-grade documents trading scores leave the ranked grades,
        # and so the value, unchanged.
        i, j = data.draw(st.sampled_from([(i, j) for i in range(n) for j in range(n)]))
        if labels[i] == labels[j]:
            swapped = scores.copy()
            swapped[[i, j]] = scores[[j, i]]
            swapped_ids = tie_ids.copy()
            swapped_ids[[i, j]] = tie_ids[[j, i]]
            assert ndcg_from_scores(swapped, labels, k, swapped_ids) == got


class TestRandomSearch:
    def test_single_trial_returns_that_config(self):
        base = train_params(max_trees=3)
        ensemble = random_search_tune(synthetic_dataset(20), synthetic_dataset(21),
                                      1, seed=5, base=base,
                                      min_data_range=(1, 4))
        got = TrainParams(**ensemble.metadata["params"])
        assert 0.01 <= got.learning_rate <= 0.2
        assert replace(got, learning_rate=base.learning_rate,
                       min_sum_hessian_leaf=base.min_sum_hessian_leaf,
                       min_data_leaf=base.min_data_leaf) == base

    def test_deterministic(self):
        base = train_params(max_trees=3)
        kw = dict(base=base, min_data_range=(1, 4))
        a = random_search_tune(synthetic_dataset(22), synthetic_dataset(23), 4, 9, **kw)
        b = random_search_tune(synthetic_dataset(22), synthetic_dataset(23), 4, 9, **kw)
        assert a.metadata["params"] == b.metadata["params"]

    def test_winner_is_argmax(self, tmp_path):
        base = train_params(max_trees=3)
        tr, va = synthetic_dataset(24), synthetic_dataset(25)
        rng = np.random.default_rng(13)
        trials = []
        for _ in range(4):
            cand = replace(base,
                           learning_rate=float(rng.uniform(0.01, 0.2)),
                           min_sum_hessian_leaf=float(rng.uniform(10.0, 150.0)),
                           min_data_leaf=int(rng.integers(1, 5)))
            trials.append((cand, train(tr, va, cand).metadata["best_valid_metric"]))
        ensemble = random_search_tune(tr, va, 4, seed=13, base=base, min_data_range=(1, 4))
        got = TrainParams(**ensemble.metadata["params"])
        best_by_hand = max(trials, key=lambda t: t[1])[0]
        assert got == best_by_hand
        # The kept trial's model is the one a refit of the winner gives.
        save_model(ensemble, tmp_path / "kept.json")
        save_model(train(tr, va, got), tmp_path / "refit.json")
        assert (tmp_path / "kept.json").read_bytes() == (tmp_path / "refit.json").read_bytes()


class TestFeatureGains:
    def test_empty_ensemble(self):
        assert feature_gains(Ensemble([], 0.1, 4)) == {}

    def test_single_split_tree(self):
        X = np.concatenate([np.zeros(5), np.ones(5)]).reshape(-1, 1)
        lam = np.concatenate([np.full(5, -1.0), np.full(5, 1.0)])
        hes = np.full(10, 0.5)
        tree = fit_tree(X, lam, hes, leaf_params(num_leaves=2))
        ens = Ensemble([tree], 0.1, 1)
        gains = feature_gains(ens)
        assert list(gains) == [0]
        assert abs(gains[0] - tree.gain[0]) < 1e-12

    def test_total_gain_partition(self):
        ens = train(synthetic_dataset(26), synthetic_dataset(27), train_params())
        total = sum(feature_gains(ens).values())
        by_node = sum(float(t.gain[i]) for t in ens.trees
                      for i in range(t.n_nodes) if t.feature[i] >= 0)
        assert abs(total - by_node) < 1e-9


class TestTrainParamsValidation:
    def test_learning_rate_range(self):
        with pytest.raises(ValueError):
            TrainParams(learning_rate=0.3)
        with pytest.raises(ValueError):
            TrainParams(learning_rate=0.001)

    def test_patience_positive(self):
        with pytest.raises(ValueError):
            TrainParams(patience=0)

    def test_defaults_match_production_setup(self):
        p = TrainParams()
        assert p.num_leaves == 64
        assert p.patience == 30
        assert p.truncation == 10
