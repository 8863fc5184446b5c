"""Whole-matrix k-means and list-assignment oracle.

k-means and list assignment as they ran before `ivf.train_kmeans` and
`ivf.build_ivf` worked in row blocks: one n x nlist distance matrix per
pass, a fresh `points - center` array for every seeded center, and one
masked sum per cluster, taken row by row from its first member and divided
by the count. The blocked code must agree with it bit for bit;
the tests compare the two. Not a test module itself.
"""

import numpy as np

from blendrank.embeddings import EmbeddingMatrix
from blendrank.ivf import Centroids, IvfIndex


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, points (n,D) x centers (k,D) -> (n,k)."""
    p2 = np.einsum("ij,ij->i", points, points)
    c2 = np.einsum("ij,ij->i", centers, centers)
    d = p2[:, None] - 2.0 * points @ centers.T + c2[None, :]
    np.maximum(d, 0.0, out=d)
    return d


def _kmeanspp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initialization: probability proportional to squared distance."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest = np.einsum("ij,ij->i", points - centers[0], points - centers[0])
    for c in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All remaining mass at distance zero: spread over arbitrary points.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centers[c] = points[idx]
        diff = points - centers[c]
        np.minimum(closest, np.einsum("ij,ij->i", diff, diff), out=closest)
    return centers


def train_kmeans(vectors: EmbeddingMatrix, nlist: int, max_iters: int = 25,
                 seed: int = 0) -> Centroids:
    """Lloyd's algorithm with k-means++ seeding; empty clusters are reseeded to
    the point currently farthest from its centroid."""
    points = vectors.rows.astype(np.float64)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_seed(points, nlist, rng)
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        d = _sq_distances(points, centers)
        new_assign = np.argmin(d, axis=1)
        dist_to_own = d[np.arange(n), new_assign]
        counts = np.bincount(new_assign, minlength=nlist)
        for empty in np.flatnonzero(counts == 0):
            far = int(np.argmax(dist_to_own))
            centers[empty] = points[far]
            counts[new_assign[far]] -= 1
            new_assign[far] = empty
            counts[empty] = 1
            dist_to_own[far] = 0.0
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(nlist):
            members = points[assign == c]
            if members.shape[0]:
                centers[c] = _sum_from_first(members) / members.shape[0]
    return Centroids(centers)


def _sum_from_first(rows: np.ndarray) -> np.ndarray:
    """Rows summed in order from the first one; a sum started from +0.0 (as
    `mean` starts it) would turn an all -0.0 column into +0.0."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def build_ivf(vectors: EmbeddingMatrix, centroids: Centroids, metric: str = "dot") -> IvfIndex:
    """Assign every vector to its nearest centroid (Euclidean) and build lists."""
    points = vectors.rows.astype(np.float64)
    assign = np.argmin(_sq_distances(points, centroids.vectors), axis=1)
    order = np.lexsort((np.arange(points.shape[0]), assign))
    counts = np.bincount(assign[order], minlength=centroids.k)
    offsets = np.zeros(centroids.k + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return IvfIndex(centroids, offsets, order.astype(np.int64), vectors.rows[order], metric)
