"""Naive forest oracle.

Rows walked down each tree node by node: the naive traversal that the
compiled scorer (`blendrank.scorer`), and so `RegressionTree.predict_batch`
and `Ensemble.score_batch`, which score through it, must agree with bit for
bit. `predict_one` and `score_one` walk one row; `predict_batch` and
`score_batch` walk every row of a matrix at once, level by level. A malformed
(cyclic) tree never reaches a leaf here, so only trees `Ensemble` accepts
may be walked. Not a test module itself.
"""

import numpy as np

from blendrank.ltr import Ensemble, RegressionTree


def predict_one(tree: RegressionTree, x) -> float:
    i = 0
    while tree.feature[i] >= 0:
        i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return float(tree.value[i])


def score_one(ensemble: Ensemble, x) -> float:
    s = 0.0
    for t in ensemble.trees:
        s += ensemble.learning_rate * predict_one(t, x)
    return s


def predict_batch(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[node]
        active = feat >= 0
        if not active.any():
            break
        rows = np.flatnonzero(active)
        vals = X[rows, feat[rows]]
        go_left = vals <= tree.threshold[node[rows]]
        node[rows] = np.where(go_left, tree.left[node[rows]], tree.right[node[rows]])
    return tree.value[node]


def score_batch(ensemble: Ensemble, X: np.ndarray) -> np.ndarray:
    scores = np.zeros(X.shape[0], dtype=np.float64)
    for t in ensemble.trees:
        scores += ensemble.learning_rate * predict_batch(t, X)
    return scores
