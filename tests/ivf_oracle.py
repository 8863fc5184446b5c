"""Exhaustive first-stage oracle.

Exact top-k over the whole collection with the same scores and tie rule as
`ivf.search`; an IVF search that probes every list must agree with it. Not a
test module itself.
"""

import numpy as np

from blendrank.embeddings import EmbeddingMatrix
from blendrank.ivf import METRICS, Ranking, _metric_scores, _top_k


def exhaustive_search(vectors: EmbeddingMatrix, q: np.ndarray, k: int,
                      metric: str = "dot") -> Ranking:
    """Exact top-k over the whole collection, same tie rule as search()."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    q = np.asarray(q, dtype=np.float64)
    if q.shape[0] != vectors.dim:
        raise ValueError(f"dimension mismatch: query {q.shape[0]}, matrix {vectors.dim}")
    if not np.isfinite(q).all():
        raise ValueError("query vector has a non-finite entry")
    scores = _metric_scores(q, vectors.rows, vectors.norms, metric)
    return _top_k(np.arange(vectors.n_rows, dtype=np.int64), scores, k)
