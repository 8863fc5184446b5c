"""Blocked k-means and list assignment against the whole-matrix oracle.

`train_kmeans` and `build_ivf` take distances one near-equal row block at a
time; `kmeans_oracle` takes them as one n x nlist matrix. Centroids, lists
and CRIV2 bytes must agree bit for bit, on shapes whose row counts cross the
block bounds.
"""

import tracemalloc

import numpy as np
import pytest

import kmeans_oracle
from blendrank.embeddings import EmbeddingMatrix
from blendrank.ivf import (BLOCK_ROWS, METRICS, _nearest, _row_blocks, build_ivf,
                           save_ivf, search, train_kmeans)
from ivf_oracle import exhaustive_search

B = BLOCK_ROWS


def random_matrix(n, d, seed):
    rng = np.random.default_rng(seed)
    return EmbeddingMatrix(rng.normal(size=(n, d)).astype(np.float32))


def assert_matches_oracle(m, nlist, iters, seed, tmp_path):
    """Train and build both ways; return the blocked index after comparing."""
    got = train_kmeans(m, nlist, iters, seed)
    want = kmeans_oracle.train_kmeans(m, nlist, iters, seed)
    assert got.vectors.tobytes() == want.vectors.tobytes()
    idx = build_ivf(m, got)
    ref = kmeans_oracle.build_ivf(m, want)
    np.testing.assert_array_equal(idx.offsets, ref.offsets)
    np.testing.assert_array_equal(idx.ids, ref.ids)
    save_ivf(idx, tmp_path / "blocked.criv")
    save_ivf(ref, tmp_path / "oracle.criv")
    assert (tmp_path / "blocked.criv").read_bytes() == (tmp_path / "oracle.criv").read_bytes()
    np.testing.assert_array_equal(np.sort(idx.ids), np.arange(m.n_rows))
    return idx


def assert_full_probe_is_exhaustive(m, centroids, queries):
    for metric in METRICS:
        index = build_ivf(m, centroids, metric)
        for q in queries:
            got, want = search(index, q, 50, index.nlist), exhaustive_search(m, q, 50, metric)
            np.testing.assert_array_equal(got.ids, want.ids)
            assert got.scores.tobytes() == want.scores.tobytes()


@pytest.mark.parametrize("n", [1, 7, B - 1, B, B + 1, 2 * B + 1, 3 * B + 17, 40000])
def test_row_blocks_are_near_equal_and_cover_every_row(n):
    blocks = _row_blocks(n)
    assert len(blocks) == -(-n // B)
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    assert all(b == c for (_, b), (c, _) in zip(blocks, blocks[1:]))
    sizes = [b - a for a, b in blocks]
    assert max(sizes) - min(sizes) <= 1 and max(sizes) <= B


@pytest.mark.parametrize("n,nlist,dim", [(B + 1, 1, 2), (B + 1, 3, 3), (2 * B + 1, 45, 16),
                                         (3 * B + 17, 200, 32)])
def test_blocked_distances_equal_whole_matrix_bits(n, nlist, dim):
    # A block of a few rows can round differently from the same rows of the
    # whole product; every row's distance to its nearest center must not.
    rng = np.random.default_rng(n + nlist)
    points = rng.normal(size=(n, dim)).astype(np.float32).astype(np.float64)
    centers = rng.normal(size=(nlist, dim))
    d = kmeans_oracle._sq_distances(points, centers)
    assign, dist = _nearest(points, np.einsum("ij,ij->i", points, points), centers)
    np.testing.assert_array_equal(assign, np.argmin(d, axis=1))
    assert dist.tobytes() == d[np.arange(n), assign].tobytes()


@pytest.mark.parametrize("n,nlist,dim", [
    (B + 1, 1, 2), (B + 1, 2, 3), (B + 1, 3, 1),
    (2 * B + 1, 3, 2), (2 * B + 1, 1, 4),
    (3 * B + 17, 2, 3), (3 * B + 17, 3, 4), (3 * B + 17, 40, 32),
])
def test_blocked_training_equals_whole_matrix_oracle(n, nlist, dim, tmp_path):
    assert_matches_oracle(random_matrix(n, dim, n + dim), nlist, 8, nlist, tmp_path)


def test_one_list_per_point(tmp_path):
    m = random_matrix(40, 3, 5)
    idx = assert_matches_oracle(m, 40, 10, 2, tmp_path)
    assert np.all(np.diff(idx.offsets) == 1)


def test_duplicate_rows(tmp_path):
    # Five distinct rows and eight lists: seeding runs out of mass and
    # Lloyd's step leaves clusters empty.
    rng = np.random.default_rng(9)
    distinct = rng.normal(size=(5, 4)).astype(np.float32)
    m = EmbeddingMatrix(distinct[rng.integers(0, 5, 2 * B + 1)])
    idx = assert_matches_oracle(m, 8, 6, 3, tmp_path)
    assert_full_probe_is_exhaustive(m, idx.centroids, rng.normal(size=(3, 4)))


def test_all_negative_zero_column(tmp_path):
    # The oracle sums each cluster from its first member, as train_kmeans
    # does, so the column's -0.0 survives in every centroid on both sides.
    rows = np.random.default_rng(11).normal(size=(2 * B + 1, 4)).astype(np.float32)
    rows[:, 1] = -0.0
    idx = assert_matches_oracle(EmbeddingMatrix(rows), 6, 6, 2, tmp_path)
    assert np.all(np.signbit(idx.centroids.vectors[:, 1]))


class CountingRng:
    """A default_rng stand-in that counts `integers` draws."""

    def __init__(self, calls, rng):
        self.calls, self.rng = calls, rng

    def integers(self, *args):
        self.calls.append(args)
        return self.rng.integers(*args)

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)


@pytest.mark.parametrize("value", [0.0, 1.5])
def test_identical_rows(value, tmp_path, monkeypatch):
    calls = []
    make_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: CountingRng(calls, make_rng(seed)))
    m = EmbeddingMatrix(np.full((B + 1, 3), value, dtype=np.float32))
    idx = assert_matches_oracle(m, 3, 4, 1, tmp_path)
    # Each run draws its first center and then, with no mass left, every
    # other center from `integers`.
    assert len(calls) == 2 * 3
    # Equal centers: every row goes to the first list.
    np.testing.assert_array_equal(idx.offsets, [0, B + 1, B + 1, B + 1])
    assert_full_probe_is_exhaustive(m, idx.centroids, [np.array([1.0, -2.0, 0.5])])


def test_training_holds_no_whole_distance_matrix():
    m = random_matrix(20000, 32, 0)
    half_distance_matrix = 20000 * 400 * 8 / 2
    tracemalloc.start()
    try:
        cents = train_kmeans(m, 400, 3, 1)
        train_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        build_ivf(m, cents)
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert train_peak < half_distance_matrix
    assert build_peak < half_distance_matrix
