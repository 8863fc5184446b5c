"""Per-row forest oracle.

One row walked down each tree in turn, node by node: the naive traversal
that `RegressionTree.predict_batch`, `Ensemble.score_batch` and the compiled
scorer must agree with bit for bit. Not a test module itself.
"""

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
