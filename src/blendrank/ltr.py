"""LambdaMART: lambda gradients from swap-deltas of truncated nDCG, boosted
regression trees grown from feature histograms, and early stopping on a
validation set. Gains, discounts and nDCG come from `metrics`, so training
scores a ranking exactly as evaluation does.

Trees are grown best-first to a leaf budget. Each feature is cut once per
training run into at most MAX_BINS bins (one per distinct value when they
fit, else row quantiles; NaN has a bin of its own and always goes right).
A split falls after an occupied bin; its threshold is the midpoint between
the bin's largest training value and the smallest of the node's next
occupied bin, or the former when the midpoint rounds outside that gap, so
`x <= threshold` splits the node's rows exactly as their bins do. With at
most MAX_BINS distinct values per feature this is the exact split search.
"""

from __future__ import annotations

import base64
import heapq
import json
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .corpus import Corpus, Qrels, QuerySet
from .features import FeatureExtractor, FeatureMask
from .ivf import Ranking, rank_order
from .metrics import gains, ideal_dcg, ndcg_at_k, rank_discount
from .scorer import (TREE_ARRAYS, compile_ensemble, compile_trees, exit_leaves, forest_fault,
                     score_batch)

EPS = 1e-9
LEAF_CLAMP = 100.0

MODEL_FORMAT = "blendrank-model"
MODEL_VERSION = 2


@dataclass
class TrainParams:
    """Boosting hyperparameters.

    learning_rate is restricted to [0.01, 0.2]. min_sum_hessian_leaf and
    min_data_leaf have production tuning ranges of [10, 150] and
    [100, 5000]; smaller values are accepted so that small datasets can be
    trained at all.
    """

    learning_rate: float = 0.1
    num_leaves: int = 64
    min_sum_hessian_leaf: float = 10.0
    min_data_leaf: int = 100
    patience: int = 30
    max_trees: int = 500
    truncation: int = 10
    sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (0.01 <= self.learning_rate <= 0.2):
            raise ValueError("learning_rate must be in [0.01, 0.2]")
        if self.num_leaves < 1:
            raise ValueError("num_leaves must be >= 1")
        if self.min_sum_hessian_leaf < 0:
            raise ValueError("min_sum_hessian_leaf must be >= 0")
        if self.min_data_leaf < 1:
            raise ValueError("min_data_leaf must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_trees < 0:
            raise ValueError("max_trees must be >= 0")
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")


@dataclass
class LtrGroup:
    """All candidates of one query: features, integer labels, document ids."""

    query_id: str
    features: np.ndarray
    labels: np.ndarray
    doc_ids: np.ndarray


class LtrDataset:
    """Per-query groups with a common feature width."""

    def __init__(self, groups: list[LtrGroup]):
        if not groups:
            raise ValueError("dataset must contain at least one group")
        width = groups[0].features.shape[1]
        for g in groups:
            if g.features.shape[0] == 0:
                raise ValueError(f"group {g.query_id} is empty")
            if g.features.shape[1] != width:
                raise ValueError("inconsistent feature width across groups")
            if (g.labels < 0).any():
                raise ValueError("labels must be non-negative")
        self.groups = groups
        self.feature_count = width

    def __len__(self) -> int:
        return len(self.groups)

    def stacked(self):
        """(X, labels, doc_ids, group boundary offsets)."""
        X = np.vstack([g.features for g in self.groups])
        labels = np.concatenate([g.labels for g in self.groups])
        doc_ids = np.concatenate([g.doc_ids for g in self.groups])
        sizes = [g.features.shape[0] for g in self.groups]
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return X, labels, doc_ids, offsets

    def select_columns(self, columns) -> "LtrDataset":
        """The same groups restricted to the given feature columns, in order."""
        return LtrDataset([LtrGroup(g.query_id, g.features[:, columns], g.labels, g.doc_ids)
                           for g in self.groups])


def build_training_set(queries: QuerySet, qrels: Qrels,
                       rankings: dict[str, Ranking], corpus: Corpus,
                       extractor: FeatureExtractor,
                       query_vectors: dict[str, np.ndarray],
                       n_neg: int = 30, seed: int = 0) -> LtrDataset:
    """Positives are all judged-relevant documents (retrieved or not);
    negatives are sampled uniformly without replacement from the first-stage
    candidates, labeled 0. Queries without a relevant document are dropped.

    Features are computed over the merged candidate list (first-stage
    ranking plus any missing relevant documents) so that the rank feature
    matches what the extractor produces at query time.
    """
    if n_neg < 0:
        raise ValueError("n_neg must be >= 0")
    rng = np.random.default_rng(seed)
    groups: list[LtrGroup] = []
    for qid, text in zip(queries.query_ids, queries.texts):
        ranking = rankings.get(qid)
        if ranking is None:
            continue
        relevant = {}
        for did, grade in qrels.for_query(qid).items():
            internal = corpus.id_to_internal.get(did)
            if internal is not None and grade > 0:
                relevant[internal] = grade
        if not relevant:
            continue
        rel_ids = np.array(sorted(relevant), dtype=np.int64)
        cand = np.asarray(ranking.ids, dtype=np.int64)
        merged = np.concatenate([cand, rel_ids[~np.isin(rel_ids, cand)]])
        pool = cand[~np.isin(cand, rel_ids)]
        take = min(n_neg, pool.shape[0])
        negatives = pool[rng.choice(pool.shape[0], size=take, replace=False)] if take else pool[:0]
        group_ids = np.concatenate([rel_ids, negatives])
        labels = np.concatenate([
            np.array([relevant[i] for i in rel_ids.tolist()], dtype=np.int64),
            np.zeros(take, dtype=np.int64),
        ])
        # Each id's row in merged: its last position, should a ranking repeat it.
        by_id = np.argsort(merged, kind="stable")
        needed = by_id[np.searchsorted(merged, group_ids, side="right", sorter=by_id) - 1]
        tokens = extractor.tokenize_query(text)
        feats = extractor.feature_matrix(tokens, query_vectors[qid], merged, needed)
        groups.append(LtrGroup(qid, feats, labels, group_ids))
    return LtrDataset(groups)


def ndcg_from_scores(scores: np.ndarray, labels: np.ndarray, k: int,
                     tie_ids: np.ndarray | None = None) -> float:
    """Truncated nDCG of the ordering induced by scores; 0 when no document
    has a positive gain."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    order = rank_order(-scores, np.arange(scores.shape[0]) if tie_ids is None else tie_ids)
    return ndcg_at_k(labels[order], labels, k)


def compute_lambdas(scores: np.ndarray, labels: np.ndarray, sigma: float = 1.0,
                    truncation: int = 10, tie_ids: np.ndarray | None = None):
    """Pairwise lambda gradients and hessians for one query group.

    For every pair with label_i > label_j:
        rho      = 1 / (1 + exp(sigma * (s_i - s_j)))
        lambda_i += sigma * |dNDCG| * rho        (and lambda_j loses the same)
        hess_i,j += sigma^2 * |dNDCG| * rho * (1 - rho)

    Accumulation runs in tie-id order, so the result is bitwise equivariant
    under permutations of the group's documents.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have equal length")
    n = scores.shape[0]
    idcg = ideal_dcg(labels, truncation)
    if idcg == 0.0 or n < 2:
        return np.zeros(n), np.zeros(n)
    if tie_ids is None:
        tie_ids = np.arange(n)
    canon = np.argsort(np.asarray(tie_ids), kind="stable")
    scores_c = scores[canon]
    labels_c = labels[canon]
    ranks = np.empty(n, dtype=np.int64)
    ranks[rank_order(-scores_c, np.asarray(tie_ids)[canon])] = np.arange(1, n + 1)
    g = gains(labels_c)
    disc = np.where(ranks <= truncation, 1.0 / rank_discount(ranks), 0.0)
    delta = np.abs(g[:, None] - g[None, :]) * np.abs(disc[:, None] - disc[None, :]) / idcg
    better = labels_c[:, None] > labels_c[None, :]
    with np.errstate(over="ignore"):
        rho = 1.0 / (1.0 + np.exp(sigma * (scores_c[:, None] - scores_c[None, :])))
    lam_pair = np.where(better, sigma * delta * rho, 0.0)
    hes_pair = np.where(better, sigma * sigma * delta * rho * (1.0 - rho), 0.0)
    lam_c = lam_pair.sum(axis=1) - lam_pair.sum(axis=0)
    hes_c = hes_pair.sum(axis=1) + hes_pair.sum(axis=0)
    lambdas = np.empty(n)
    hessians = np.empty(n)
    lambdas[canon] = lam_c
    hessians[canon] = hes_c
    return lambdas, hessians


@dataclass
class RegressionTree:
    """Binary tree in flat arrays; feature -1 marks a leaf. The predicate
    value <= threshold descends left."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    gain: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature < 0))

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Each row's exit-leaf value; ValueError if `forest_fault` rejects the tree."""
        compiled = compile_trees([self], 1.0, X.shape[1])
        return compiled.value.take(exit_leaves(compiled, X)[:, 0])


MAX_BINS = 256


@dataclass(frozen=True, eq=False)
class FeatureBins:
    """Every column of a training matrix cut once into at most MAX_BINS bins.

    codes[r, f] is row r's bin of feature f. Value bins 0 .. n_values[f] - 1
    run in increasing order: bin b holds the training values in
    (upper[f, b - 1], upper[f, b]], and lower[f, b] and upper[f, b] are the
    smallest and the largest of them. A feature with NaN has one more bin,
    n_values[f], after all of its values. A feature with no more distinct
    values than it has value bins gets one bin per value; any other is cut
    at row quantiles, so every bin edge is a training value.
    """

    codes: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_values: np.ndarray


def bin_features(X: np.ndarray) -> FeatureBins:
    """FeatureBins of X, whose rows keep their order in `codes`."""
    X = np.asarray(X, dtype=np.float64)
    n, n_features = X.shape
    codes = np.empty((n, n_features), dtype=np.uint8)
    lower, upper = (np.full((n_features, MAX_BINS), np.nan) for _ in range(2))
    n_values = np.zeros(n_features, dtype=np.int64)
    for f in range(n_features):
        col = X[:, f]
        vals = np.sort(col[~np.isnan(col)])
        room = MAX_BINS - int(vals.shape[0] < n)
        edges = np.unique(vals)
        if edges.shape[0] > room:
            k = vals.shape[0]
            edges = np.unique(vals[np.arange(1, room + 1) * k // room - 1])
        ends = np.searchsorted(vals, edges, side="right")
        b = edges.shape[0]
        lower[f, :b] = vals[ends - np.diff(ends, prepend=0)]
        upper[f, :b] = edges
        n_values[f] = b
        # searchsorted puts NaN after every edge, in bin b.
        codes[:, f] = np.searchsorted(edges, col)
    return FeatureBins(codes, lower, upper, n_values)


class _PendingNode:
    __slots__ = ("rows", "slot", "hist", "best_gain", "best_feature", "best_threshold",
                 "best_bin", "sum_lambda", "sum_hessian")

    def __init__(self, rows, slot):
        self.rows = rows
        self.slot = slot
        self.hist = None
        self.best_gain = -np.inf


class _TreeBuilder:
    """Grows one regression tree per call over a fixed feature matrix.

    Each feature is binned once (`bin_features`), with the rows in
    canonical row_keys order, so every per-bin sum runs in an order that does
    not depend on how the caller ordered the rows. A node is a sorted array
    of row positions and, while it may still split, its (lambda, hessian,
    count) histogram over every (feature, bin). Of two children only the
    smaller is histogrammed from its rows; the larger gets its parent's
    histogram minus the smaller's (LightGBM's subtraction trick). The split
    scan runs a cumulative sum over each feature's bins.
    """

    def __init__(self, X: np.ndarray, params: TrainParams, row_keys: np.ndarray):
        X = np.asarray(X, dtype=np.float64)
        self.n, self.n_features = X.shape
        self.params = params
        self.order = np.argsort(row_keys, kind="stable")
        self.bins = bin_features(X[self.order])
        self.width = int(self.bins.codes.max(initial=0)) + 1
        self.key_base = np.arange(self.n_features, dtype=np.int64) * self.width

    def _leaf_value(self, sum_lambda: float, sum_hessian: float) -> float:
        w = sum_lambda / (sum_hessian + EPS)
        return float(np.clip(w, -LEAF_CLAMP, LEAF_CLAMP))

    def _histogram(self, rows: np.ndarray, lam: np.ndarray, hes: np.ndarray):
        """(lambda, hessian, count) sums per (feature, bin), flat and feature-major."""
        keys = (self.bins.codes[rows] + self.key_base).ravel()
        size = self.n_features * self.width
        return (np.bincount(keys, np.repeat(lam[rows], self.n_features), size),
                np.bincount(keys, np.repeat(hes[rows], self.n_features), size),
                np.bincount(keys, minlength=size))

    def _find_best_split(self, node: _PendingNode, lam: np.ndarray, hes: np.ndarray):
        rows = node.rows
        node.sum_lambda = float(lam[rows].sum())
        node.sum_hessian = float(hes[rows].sum())
        if node.hist is None:
            return
        p, m = self.params, rows.shape[0]
        shape = (self.n_features, self.width)
        h_lam, h_hes, h_cnt = (h.reshape(shape) for h in node.hist)
        n_left = np.cumsum(h_cnt, axis=1)
        # A split falls after an occupied bin. NaN rows always go right: the
        # NaN bin is last, and a split after it would leave the right empty.
        ok = (h_cnt > 0) & (n_left >= p.min_data_leaf) & (m - n_left >= p.min_data_leaf)
        cand = np.flatnonzero(ok)
        if cand.shape[0] == 0:
            return
        lam_l = np.cumsum(h_lam, axis=1).ravel()[cand]
        hes_l = np.cumsum(h_hes, axis=1).ravel()[cand]
        tot_l, tot_h = node.sum_lambda, node.sum_hessian
        lam_r = tot_l - lam_l
        hes_r = tot_h - hes_l
        gains = lam_l * lam_l / (hes_l + EPS) + lam_r * lam_r / (hes_r + EPS) \
            - tot_l * tot_l / (tot_h + EPS)
        gains[(hes_l < p.min_sum_hessian_leaf) | (hes_r < p.min_sum_hessian_leaf)] = -np.inf
        # The first maximum in (feature, bin) order: ties go to the first feature.
        i = int(np.argmax(gains))
        g = float(gains[i])
        if g <= 0.0 or not np.isfinite(g):
            return
        f, b = divmod(int(cand[i]), self.width)
        node.best_gain = g
        node.best_feature = f
        node.best_bin = b
        # Between the largest training value of bin b and the smallest of the
        # node's next occupied value bin, if it has one.
        lo = float(self.bins.upper[f, b])
        later = np.flatnonzero(h_cnt[f, b + 1:self.bins.n_values[f]])
        threshold = lo
        if later.shape[0]:
            hi = float(self.bins.lower[f, b + 1 + later[0]])
            mid = (lo + hi) / 2.0
            # The midpoint of adjacent doubles rounds to hi, and of huge ones
            # overflows; lo keeps `x <= threshold` equal to `code <= b`.
            if lo <= mid < hi:
                threshold = mid
        node.best_threshold = threshold

    def _split(self, node: _PendingNode, slot_l: int, slot_r: int, lam, hes):
        rows = node.rows
        goes_left = self.bins.codes[rows, node.best_feature] <= node.best_bin
        left = _PendingNode(rows[goes_left], slot_l)
        right = _PendingNode(rows[~goes_left], slot_r)
        small, large = sorted((left, right), key=lambda c: c.rows.shape[0])
        # A child needs a histogram only if it can still split.
        if large.rows.shape[0] >= 2 * self.params.min_data_leaf:
            small.hist = self._histogram(small.rows, lam, hes)
            # The parent's histogram becomes the larger child's.
            for a, b in zip(node.hist, small.hist):
                a -= b
            lam_h, hes_h, cnt_h = large.hist = node.hist
            # Bins the larger child lacks hold rounding residue; make them 0.
            occupied = cnt_h != 0
            lam_h *= occupied
            hes_h *= occupied
            if small.rows.shape[0] < 2 * self.params.min_data_leaf:
                small.hist = None
        node.hist = None
        return left, right

    def fit(self, lambdas: np.ndarray, hessians: np.ndarray) -> RegressionTree:
        lam, hes = lambdas[self.order], hessians[self.order]
        # Every leaf holds at least one row, so the tree has at most this many nodes.
        cap = 2 * min(self.params.num_leaves, max(self.n, 1)) - 1
        feature, left, right = (np.full(cap, -1, dtype=np.int64) for _ in range(3))
        threshold, value, gain = (np.zeros(cap) for _ in range(3))
        heap = []

        def queue_or_leaf(node: _PendingNode) -> None:
            self._find_best_split(node, lam, hes)
            if np.isfinite(node.best_gain):
                # Equal gains split the node made first, the lower slot.
                heapq.heappush(heap, (-node.best_gain, node.slot, node))
            else:
                node.hist = None
                value[node.slot] = self._leaf_value(node.sum_lambda, node.sum_hessian)

        root = _PendingNode(np.arange(self.n), 0)
        if self.n >= 2 * self.params.min_data_leaf:
            root.hist = self._histogram(root.rows, lam, hes)
        queue_or_leaf(root)
        n_nodes = 1
        while heap and n_nodes < cap:
            _, slot, node = heapq.heappop(heap)
            feature[slot], threshold[slot], gain[slot] = (
                node.best_feature, node.best_threshold, node.best_gain)
            left[slot], right[slot] = n_nodes, n_nodes + 1
            for child in self._split(node, n_nodes, n_nodes + 1, lam, hes):
                queue_or_leaf(child)
            n_nodes += 2
        # Anything still splittable but over the leaf budget becomes a leaf.
        for _, slot, node in heap:
            value[slot] = self._leaf_value(node.sum_lambda, node.sum_hessian)
        return RegressionTree(*(a[:n_nodes] for a in (feature, threshold, left, right,
                                                      value, gain)))


def fit_tree(X: np.ndarray, lambdas: np.ndarray, hessians: np.ndarray,
             params: TrainParams) -> RegressionTree:
    """Grow a single tree (standalone entry point; training reuses a builder)."""
    X = np.asarray(X, dtype=np.float64)
    return _TreeBuilder(X, params, np.arange(X.shape[0])).fit(
        np.asarray(lambdas, dtype=np.float64), np.asarray(hessians, dtype=np.float64))


@dataclass
class Ensemble:
    """Boosted forest; the model score is sum(learning_rate * tree(x)) in
    tree order. Building one raises ValueError naming the first tree that
    `forest_fault` rejects."""

    trees: list[RegressionTree]
    learning_rate: float
    feature_count: int
    mask_variant: str = "full"
    registry_hash: str = ""
    mask_included: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        fault = forest_fault(self.trees, self.feature_count)
        if fault:
            raise ValueError(f"tree {fault[0]}: {fault[1]}")
        cols = self.mask_included
        if cols is not None and not (cols.shape == (self.feature_count,) and (cols[:1] >= 0).all()
                                     and (cols[1:] > cols[:-1]).all()):
            raise ValueError(f"mask_included must be {self.feature_count} strictly increasing "
                             "non-negative feature ids, one per feature")

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def score_batch(self, X: np.ndarray) -> np.ndarray:
        """Every row's model score, from the compiled forest of the current trees."""
        return score_batch(compile_ensemble(self), X)


def _mean_valid_ndcg(scores: np.ndarray, labels: np.ndarray, doc_ids: np.ndarray,
                     offsets: np.ndarray, k: int) -> float:
    vals = []
    for g in range(offsets.shape[0] - 1):
        a, b = offsets[g], offsets[g + 1]
        vals.append(ndcg_from_scores(scores[a:b], labels[a:b], k, doc_ids[a:b]))
    return float(np.mean(vals))


def train(train_ds: LtrDataset, valid_ds: LtrDataset, params: TrainParams,
          mask: FeatureMask | None = None) -> Ensemble:
    """Boosting loop with early stopping.

    After each tree the mean nDCG@truncation on the validation set is
    evaluated; training stops when it fails to improve for `patience`
    consecutive trees (or at max_trees), and the ensemble is truncated at
    the best validation iteration.
    """
    if train_ds.feature_count != valid_ds.feature_count:
        raise ValueError("train and valid datasets have different feature widths")
    X, labels, doc_ids, offsets = train_ds.stacked()
    Xv, labels_v, doc_ids_v, offsets_v = valid_ds.stacked()
    group_of = np.repeat(np.arange(offsets.shape[0] - 1), np.diff(offsets))
    row_keys = np.empty(X.shape[0], dtype=np.int64)
    row_keys[np.lexsort((doc_ids, group_of))] = np.arange(X.shape[0])
    builder = _TreeBuilder(X, params, row_keys)
    lr = params.learning_rate
    scores = np.zeros(X.shape[0])
    scores_v = np.zeros(Xv.shape[0])
    trees: list[RegressionTree] = []
    valid_log: list[float] = []
    best_metric = -np.inf
    best_iter = 0
    bad_rounds = 0
    n_groups = offsets.shape[0] - 1
    lambdas = np.empty(X.shape[0])
    hessians = np.empty(X.shape[0])
    for _ in range(params.max_trees):
        for g in range(n_groups):
            a, b = offsets[g], offsets[g + 1]
            lambdas[a:b], hessians[a:b] = compute_lambdas(
                scores[a:b], labels[a:b], params.sigma, params.truncation, doc_ids[a:b])
        tree = builder.fit(lambdas, hessians)
        trees.append(tree)
        scores += lr * tree.predict_batch(X)
        scores_v += lr * tree.predict_batch(Xv)
        metric = _mean_valid_ndcg(scores_v, labels_v, doc_ids_v, offsets_v,
                                  params.truncation)
        valid_log.append(metric)
        if metric > best_metric:
            best_metric = metric
            best_iter = len(trees)
            bad_rounds = 0
        else:
            bad_rounds += 1
            if bad_rounds >= params.patience:
                break
    trees = trees[:best_iter]
    metadata = {
        "params": asdict(params),
        "valid_log": valid_log,
        "best_iteration": best_iter,
        "best_valid_metric": best_metric if best_iter else 0.0,
    }
    return Ensemble(trees, lr, train_ds.feature_count,
                    mask.variant if mask else "full",
                    mask.registry_hash if mask else "",
                    mask.included.copy() if mask else None,
                    metadata)


def random_search_tune(train_ds: LtrDataset, valid_ds: LtrDataset, n_trials: int,
                       seed: int, base: TrainParams | None = None,
                       mask: FeatureMask | None = None,
                       hessian_range=(10.0, 150.0),
                       min_data_range=(100, 5000)) -> Ensemble:
    """Uniform random search over learning rate, hessian floor, and leaf
    size; returns the trial with the best validation nDCG, as `train` fits
    it. Its configuration is in `metadata["params"]`."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    base = base or TrainParams()
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_trials):
        cand = replace(
            base,
            learning_rate=float(rng.uniform(0.01, 0.2)),
            min_sum_hessian_leaf=float(rng.uniform(*hessian_range)),
            min_data_leaf=int(rng.integers(min_data_range[0], min_data_range[1] + 1)),
        )
        ensemble = train(train_ds, valid_ds, cand, mask)
        if best is None or (ensemble.metadata["best_valid_metric"]
                            > best.metadata["best_valid_metric"]):
            best = ensemble
    return best


def feature_gains(ensemble: Ensemble) -> dict[int, float]:
    """Total realized split gain per feature id, summed over all trees."""
    gains: dict[int, float] = {}
    for tree in ensemble.trees:
        for i in range(tree.n_nodes):
            f = int(tree.feature[i])
            if f >= 0:
                gains[f] = gains.get(f, 0.0) + float(tree.gain[i])
    return gains


_TREE_ARRAYS = dict(zip(TREE_ARRAYS, ("<i8", "<f8", "<i8", "<i8", "<f8", "<f8")))


def _pack_trees(trees: list[RegressionTree]) -> dict:
    """Node counts, and one base64 string of little-endian values per tree array, over all trees."""
    packed = {"sizes": [t.n_nodes for t in trees]}
    for name, dtype in _TREE_ARRAYS.items():
        flat = np.concatenate([np.zeros(0, dtype)] + [getattr(t, name) for t in trees])
        packed[name] = base64.b64encode(flat.astype(dtype)).decode("ascii")
    return packed


def _unpack_trees(packed: dict) -> list[RegressionTree]:
    bounds, arrays = np.cumsum([0] + packed["sizes"]).tolist(), {}
    for name, dtype in _TREE_ARRAYS.items():
        try:
            arrays[name] = np.frombuffer(base64.b64decode(packed[name], validate=True), dtype)
        except ValueError as e:
            raise ValueError(f"trees {name} is not base64 of 8-byte values: {e}") from None
        if arrays[name].shape[0] != bounds[-1]:
            raise ValueError(f"trees {name} holds {arrays[name].shape[0]} values; the sizes "
                             f"give {bounds[-1]} nodes")
    return [RegressionTree(**{name: a[lo:hi] for name, a in arrays.items()})
            for lo, hi in zip(bounds, bounds[1:])]


def save_model(ensemble: Ensemble, path) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "learning_rate": ensemble.learning_rate,
        "feature_count": ensemble.feature_count,
        "mask_variant": ensemble.mask_variant,
        "registry_hash": ensemble.registry_hash,
        "mask_included": (ensemble.mask_included.tolist()
                          if ensemble.mask_included is not None else None),
        "metadata": ensemble.metadata,
        "trees": _pack_trees(ensemble.trees),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_model(path) -> Ensemble:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: model version {doc.get('version')}; this version reads "
                         f"only version {MODEL_VERSION}: retrain it with `blendrank train`")
    included = doc.get("mask_included")
    if included is not None and not all(type(i) is int for i in np.ravel(included).tolist()):
        raise ValueError(f"{path}: mask_included holds a value that is not an integer id")
    try:
        return Ensemble(
            _unpack_trees(doc["trees"]),
            doc["learning_rate"],
            doc["feature_count"],
            doc.get("mask_variant", "full"),
            doc.get("registry_hash", ""),
            np.array(included, dtype=np.int64) if included is not None else None,
            doc.get("metadata", {}),
        )
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def write_train_log(ensemble: Ensemble, path) -> None:
    """Training log as CSV: iteration, validation nDCG."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("iteration,valid_ndcg\n")
        for i, v in enumerate(ensemble.metadata.get("valid_log", []), start=1):
            f.write(f"{i},{v!r}\n")


def save_dataset(dataset: LtrDataset, path, registry_dim: int) -> None:
    """Persist a dataset (stacked npz, unmasked) and its registry's dimension."""
    X, labels, doc_ids, offsets = dataset.stacked()
    query_ids = np.array([g.query_id for g in dataset.groups])
    np.savez(path, features=X, labels=labels, doc_ids=doc_ids, offsets=offsets,
             query_ids=query_ids, registry_dim=np.int64(registry_dim))


def load_dataset(path) -> tuple[LtrDataset, int]:
    """Load a dataset written by save_dataset; returns (dataset, registry_dim)."""
    with np.load(path, allow_pickle=False) as z:
        X, labels, doc_ids, offsets, query_ids = (
            z[k] for k in ("features", "labels", "doc_ids", "offsets", "query_ids"))
        registry_dim = int(z["registry_dim"])
    if registry_dim < 1:
        raise ValueError(f"{path}: registry dimension {registry_dim}; it must be at least 1")
    bounds = offsets.tolist()
    return LtrDataset([LtrGroup(str(qid), X[a:b], labels[a:b], doc_ids[a:b]) for qid, a, b
                       in zip(query_ids, bounds[:-1], bounds[1:], strict=True)]), registry_dim
