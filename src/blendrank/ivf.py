"""First-stage dense retrieval: k-means coarse quantizer plus flat posting lists.

Search ranks centroids by similarity to the query, exhaustively scores the
documents in the top nprobe lists, and returns the top K under a fully
deterministic tie rule (descending score, then ascending internal id; NaN
scores last). Probing all lists degenerates to exact search, which is the
oracle the tests lean on.

The top K is selected before it is sorted: `np.partition` finds the K-th
score, every candidate scoring at least that much (ties included) is kept,
and only those are sorted by `rank_order`: an argsort, kept when its keys
strictly rise (no tie, no NaN), else an exact lexsort. The same selection
orders the centroids to probe. The probed lists are gathered straight into
one float64 matrix (an exact cast from float32) and scored with a single
product; scoring list by list changes score bits. `cosine_scores` is the
one cosine, also of the cosine feature; for one document the two can still
differ in the last bit, since their products have different shapes.

k-means and list assignment take distances one block of rows at a time, with
the whole-matrix arithmetic. Blocks are near-equal in size: a product over a
few rows can round differently from the same rows of a larger product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .binformat import Format, SectionReader, write
from .embeddings import EmbeddingMatrix

METRICS = ("dot", "cosine")

IVF_FORMAT = Format("CRIV2", ("metric", "nlist", "dim", "n_docs"), (
    ("centroids", "<f8", lambda h: h["nlist"] * h["dim"]),
    ("offsets", "<i8", lambda h: h["nlist"] + 1), ("ids", "<i8", lambda h: h["n_docs"]),
    ("vectors", "<f4", lambda h: h["n_docs"] * h["dim"])), "index-dense")


@dataclass
class Centroids:
    """k x D coarse quantizer codebook."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1:
            raise ValueError("centroids must be a non-empty 2-d array")
        if not np.isfinite(self.vectors).all():
            raise ValueError("centroids contain non-finite values")

    @property
    def k(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class Ranking:
    """Scored documents ordered by (score desc, internal id asc); ranks are 1-based."""

    ids: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return self.ids.shape[0]


BLOCK_ROWS = 2048


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Bounds of ceil(n / BLOCK_ROWS) row blocks whose sizes differ by at most 1."""
    nb = -(-n // BLOCK_ROWS)
    return [(i * n // nb, (i + 1) * n // nb) for i in range(nb)]


def _nearest(points: np.ndarray, p2: np.ndarray,
             centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest center and squared distance to it, as p2 - 2<p, c>
    + c2 clipped at 0, one row block at a time (p2: the points' squared norms)."""
    c2 = np.einsum("ij,ij->i", centers, centers)
    assign, dist = np.empty(points.shape[0], dtype=np.int64), np.empty(points.shape[0])
    for a, b in _row_blocks(points.shape[0]):
        d = points[a:b] @ centers.T
        d *= 2.0
        np.subtract(p2[a:b, None], d, out=d)
        d += c2
        np.maximum(d, 0.0, out=d)
        assign[a:b] = np.argmin(d, axis=1)
        dist[a:b] = d[np.arange(b - a), assign[a:b]]
    return assign, dist


def _kmeanspp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initialization: probability proportional to squared distance."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    blocks = _row_blocks(n)
    diff = np.empty((max(b - a for a, b in blocks), points.shape[1]))
    closest = np.full(n, np.inf)
    idx = int(rng.integers(n))
    for c in range(k):
        if c:
            total = closest.sum()
            if total <= 0.0:
                # All remaining mass at distance zero: spread over arbitrary points.
                idx = int(rng.integers(n))
            else:
                idx = int(rng.choice(n, p=closest / total))
        centers[c] = points[idx]
        for a, b in blocks:
            np.subtract(points[a:b], centers[c], out=diff[:b - a])
            sq = np.einsum("ij,ij->i", diff[:b - a], diff[:b - a])
            np.minimum(closest[a:b], sq, out=closest[a:b])
    return centers


def train_kmeans(vectors: EmbeddingMatrix, nlist: int, max_iters: int = 25,
                 seed: int = 0) -> Centroids:
    """Lloyd's algorithm with k-means++ seeding under Euclidean distance.

    Empty clusters are reseeded to the point currently farthest from its
    centroid. Stops after max_iters or when the assignment is stable.
    Distances are taken one row block at a time; a centroid is the mean of
    its members, summed in ascending point order from the first member on
    (-0.0 stays -0.0), gathered a block of whole clusters at a time.
    """
    points = vectors.rows.astype(np.float64)
    n = points.shape[0]
    if not (1 <= nlist <= n):
        raise ValueError(f"nlist must be in [1, {n}], got {nlist}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_seed(points, nlist, rng)
    p2 = np.einsum("ij,ij->i", points, points)
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        new_assign, dist_to_own = _nearest(points, p2, centers)
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
        order = np.argsort(assign, kind="stable")
        full = np.flatnonzero(counts)
        starts = np.append(np.cumsum(counts)[full] - counts[full], n)
        edges = np.unique(np.searchsorted(starts, np.append(np.arange(0, n, BLOCK_ROWS), n)))
        for i, j in zip(edges.tolist(), edges[1:].tolist()):
            members = points[order[starts[i]:starts[j]]]
            centers[full[i:j]] = (np.add.reduceat(members, starts[i:j] - starts[i], axis=0)
                                  / counts[full[i:j], None])
    return Centroids(centers)


class IvfIndex:
    """Coarse quantizer plus per-cluster flat lists of (internal id, vector).

    Lists are stored concatenated (CSR-style) in list order; each list is
    sorted by internal id. The scoring metric (dot or cosine) is fixed at
    build time; cluster assignment is always Euclidean.
    """

    def __init__(self, centroids: Centroids, offsets: np.ndarray, ids: np.ndarray,
                 vectors: np.ndarray, metric: str):
        if metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        self.centroids = centroids
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.vectors = np.asarray(vectors, dtype=np.float32)
        self.metric = metric

    @cached_property
    def norms(self) -> np.ndarray:
        """The list vectors' norms; only cosine search reads them."""
        return np.linalg.norm(self.vectors.astype(np.float64), axis=1)

    @cached_property
    def centroid_norms(self) -> np.ndarray:
        """Computed at the first search, not at load: a huge centroid's norm
        overflows to inf with a RuntimeWarning."""
        return np.linalg.norm(self.centroids.vectors, axis=1)

    @property
    def nlist(self) -> int:
        return self.centroids.k

    @property
    def n_docs(self) -> int:
        return self.ids.shape[0]

    def list_ids(self, c: int) -> np.ndarray:
        return self.ids[self.offsets[c]:self.offsets[c + 1]]


def default_nlist(n_docs: int) -> int:
    """Desk-scale default: round(sqrt(N)), at least 1."""
    return max(1, int(round(np.sqrt(n_docs))))


def build_ivf(vectors: EmbeddingMatrix, centroids: Centroids, metric: str = "dot") -> IvfIndex:
    """Assign every vector to its nearest centroid (Euclidean) and build lists."""
    if vectors.dim != centroids.dim:
        raise ValueError(f"dimension mismatch: vectors {vectors.dim}, centroids {centroids.dim}")
    points = vectors.rows.astype(np.float64)
    assign, _ = _nearest(points, np.einsum("ij,ij->i", points, points), centroids.vectors)
    order = np.argsort(assign, kind="stable")
    counts = np.bincount(assign, minlength=centroids.k)
    offsets = np.zeros(centroids.k + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return IvfIndex(centroids, offsets, order.astype(np.int64),
                    vectors.rows[order], metric)


def cosine_scores(q: np.ndarray, rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Cosine of q against each row, given the rows' norms: the one cosine of
    first stage and features. A zero row or a zero query scores 0."""
    scores, qn = rows @ q, np.linalg.norm(q)
    out = np.zeros(rows.shape[0], dtype=np.float64)
    if qn > 0.0:
        denom = norms * qn
        nz = denom > 0.0
        out[nz] = scores[nz] / denom[nz]
    return out


def _metric_scores(q: np.ndarray, matrix: np.ndarray, norms: np.ndarray | None,
                   metric: str) -> np.ndarray:
    """Similarity of q against rows of matrix; the norms are read only under cosine."""
    return (cosine_scores(q, matrix, norms) if metric == "cosine"
            else (matrix @ q).astype(np.float64, copy=False))


def rank_order(neg: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """np.lexsort((ids, neg)): ascending neg, ties by ascending id, NaN last.
    A plain argsort is kept when its sorted keys strictly rise, since then
    no tie or NaN leaves the order open."""
    order = np.argsort(neg)
    s = neg.take(order)
    return order if (s[1:] > s[:-1]).all() else np.lexsort((ids, neg))


def _top_k(ids: np.ndarray, scores: np.ndarray, k: int) -> Ranking:
    """The k best by (score desc, id asc), NaN last, as a full lexsort would
    give them. Everything not below the k-th score is kept, so ties at the cut
    are settled by id; a NaN k-th score keeps every candidate."""
    neg = -scores
    if neg.shape[0] > k:
        kth = np.partition(neg, k - 1)[k - 1]
        keep = np.flatnonzero(~(neg > kth))
        ids, neg = ids.take(keep), neg.take(keep)
    order = rank_order(neg, ids)[:k]
    return Ranking(ids.take(order), -neg.take(order))


def search(index: IvfIndex, q: np.ndarray, k: int, nprobe: int) -> Ranking:
    """Probe the nprobe closest lists under the index metric; exact within them."""
    if not (1 <= nprobe <= index.nlist):
        raise ValueError(f"nprobe must be in [1, {index.nlist}], got {nprobe}")
    if k < 1:
        raise ValueError("k must be >= 1")
    q = np.asarray(q, dtype=np.float64)
    if q.shape[0] != index.centroids.dim:
        raise ValueError(f"dimension mismatch: query {q.shape[0]}, index {index.centroids.dim}")
    if not np.isfinite(q).all():
        raise ValueError("query vector has a non-finite entry")
    cent_scores = _metric_scores(q, index.centroids.vectors, index.centroid_norms, index.metric)
    probe = _top_k(np.arange(index.nlist), cent_scores, nprobe).ids
    lo, hi = index.offsets.take(probe).tolist(), index.offsets.take(probe + 1).tolist()
    spans = list(map(slice, lo, hi))
    cand_ids = np.concatenate([index.ids[s] for s in spans])
    if cand_ids.shape[0] == 0:
        return Ranking(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
    cand_vecs = np.concatenate([index.vectors[s] for s in spans], dtype=np.float64)
    cand_norms = (np.concatenate([index.norms[s] for s in spans])
                  if index.metric == "cosine" else None)
    scores = _metric_scores(q, cand_vecs, cand_norms, index.metric)
    return _top_k(cand_ids, scores, k)


def save_ivf(index: IvfIndex, path) -> None:
    write(path, IVF_FORMAT, {"metric": METRICS.index(index.metric), "nlist": index.nlist,
                             "dim": index.centroids.dim, "n_docs": index.n_docs},
          {"centroids": index.centroids.vectors, "offsets": index.offsets, "ids": index.ids,
           "vectors": index.vectors})


def load_ivf(path) -> IvfIndex:
    """Read a CRIV2 file; a damaged file raises ValueError naming the path
    and the section at fault. The index keeps views of the file's bytes."""
    r = SectionReader(path, IVF_FORMAT)
    (metric_code, nlist, dim, n_docs), (centroids, offsets, ids, vectors) = (
        r.header.values(), r.arrays.values())
    if metric_code >= len(METRICS) or nlist < 1:
        raise r.fail("header", f"names metric code {metric_code} and {nlist} lists; "
                               f"want a code below {len(METRICS)} and at least 1 list")
    if not np.isfinite(centroids).all():
        raise r.fail("centroids", "contains non-finite values")
    if offsets[0] != 0 or offsets[-1] != n_docs or np.any(np.diff(offsets) < 0):
        raise r.fail("offsets", f"must run from 0 to n_docs={n_docs} without decreasing")
    if not np.array_equal(np.sort(ids), np.arange(n_docs)):
        raise r.fail("ids", f"is not a permutation of 0..{n_docs - 1}")
    if not np.isfinite(vectors).all():
        raise r.fail("vectors", "contains non-finite values")
    return IvfIndex(Centroids(centroids.reshape(nlist, dim)), offsets, ids,
                    vectors.reshape(n_docs, dim), METRICS[metric_code])
