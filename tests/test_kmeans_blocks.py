"""Blocked and screened k-means and list assignment against the whole-matrix oracle.

Lloyd's steps and `build_ivf` take distances one near-equal row block at a
time, and k-means++ seeding measures only the points its lower bound cannot
rule out; `kmeans_oracle` measures every distance, as one n x nlist matrix
or one whole `points - center` pass. Centroids, lists and CRIV2 bytes must
agree bit for bit, on shapes whose row counts cross the block bounds and on
inputs where the bound's slack or its rounding matters most.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kmeans_oracle
from blendrank import ivf
from blendrank.embeddings import EmbeddingMatrix
from blendrank.ivf import (BLOCK_ROWS, METRICS, SCREEN_SLACK, _nearest, _row_blocks,
                           build_ivf, save_ivf, search, train_kmeans)
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


@pytest.mark.parametrize("scale, offset", [(1.0, 1e4), (1.0, -1e4), (1e-30, 0.0), (1e15, 0.0)],
                         ids=["offset", "negative-offset", "tiny", "huge"])
def test_rows_far_from_the_origin_or_unit_scale(scale, offset, tmp_path):
    # At an offset of 1e4 the slack (1e-9 of p2 + c2, about 3 here) is as
    # large as the rows' spread, so most rows fail the screen and are measured.
    rows = random_matrix(2 * B + 1, 32, 13).rows * np.float32(scale) + np.float32(offset)
    assert_matches_oracle(EmbeddingMatrix(rows), 40, 6, 4, tmp_path)


@pytest.mark.parametrize("scale, offset", [(1.0, 1e8), (1e-162, 0.0)],
                         ids=["rounding", "underflow"])
def test_seeding_where_the_rounding_is_as_large_as_the_distances(scale, offset):
    # Float64 rows 1e8 from the origin with unit spread: the expanded form's
    # rounding (about 1e-16 of p2, some tens here) is as large as the squared
    # distances (about 64), so only the slack keeps the screen from dropping
    # points that would move. At 1e-162 the squares are subnormal, where the
    # rounding is absolute and only the smallest-normal term covers it.
    points = np.random.default_rng(31).normal(size=(B + 1, 32)) * scale + offset
    p2 = np.einsum("ij,ij->i", points, points)
    got = ivf._kmeanspp_seed(points, p2, 30, np.random.default_rng(3))
    want = kmeans_oracle._kmeanspp_seed(points, 30, np.random.default_rng(3))
    assert got.tobytes() == want.tobytes()


def test_duplicated_clusters(tmp_path):
    # Two identical copies of each cluster: every seeded center has a twin
    # at distance exactly zero, and the screen must keep those zeros.
    rng = np.random.default_rng(19)
    half = (rng.normal(size=(12, 6)) * 5)[rng.integers(0, 12, B)] + rng.normal(size=(B, 6)) * 0.1
    rows = np.concatenate([half, half]).astype(np.float32)
    assert_matches_oracle(EmbeddingMatrix(rows[rng.permutation(2 * B)]), 20, 6, 6, tmp_path)


def test_points_equidistant_from_two_centers(tmp_path):
    # A small-integer lattice: squared distances are exact integers, so many
    # points are tied between centers, and between bound and closest distance.
    rng = np.random.default_rng(23)
    rows = rng.integers(-3, 4, size=(B + 1, 3)).astype(np.float32)
    assert_matches_oracle(EmbeddingMatrix(rows), 12, 6, 7, tmp_path)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.integers(1, 3 * B).flatmap(lambda n: st.tuples(
           st.just(n), st.integers(1, 16), st.integers(1, n), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-30, 1.0, 1e15]), st.sampled_from([0.0, 1e4]),
           st.integers(1, n))))
def test_screened_seeding_equals_oracle(world):
    """Over small worlds, screened seeding draws the oracle's centers bit for
    bit; a pool of `distinct` rows drawn with repeats gives exact ties."""
    n, dim, nlist, seed, scale, offset, distinct = world
    rng = np.random.default_rng(seed)
    pool = (rng.normal(size=(distinct, dim)) * scale + offset).astype(np.float32)
    points = pool[rng.integers(0, distinct, n)].astype(np.float64)
    p2 = np.einsum("ij,ij->i", points, points)
    got = ivf._kmeanspp_seed(points, p2, nlist, np.random.default_rng(seed))
    want = kmeans_oracle._kmeanspp_seed(points, nlist, np.random.default_rng(seed))
    assert got.tobytes() == want.tobytes()


def test_screen_slack_is_far_above_the_rounding():
    """The largest gap between the expanded distance (the screen's form) and
    the subtract-and-dot form, over adversarial rows, stays 1000x below the
    slack. Tightening SCREEN_SLACK toward the rounding fails here."""
    rng = np.random.default_rng(29)
    worst = 0.0
    for dim in (1, 3, 32, 128):
        rows = rng.normal(size=(3000, dim)) * 10.0 ** rng.uniform(-3, 6, size=(3000, 1))
        rows += rng.choice([0.0, 1e4, -1e6], size=(3000, 1))
        rows[::7] += 1e4 * rng.normal(size=dim)
        points = rows.astype(np.float32).astype(np.float64)
        p2 = np.einsum("ij,ij->i", points, points)
        for c in rng.integers(0, points.shape[0], 40):
            center = points[c]
            c2 = center @ center
            expanded = points @ (-2.0 * center) + p2 + c2
            diff = points - center
            exact = np.einsum("ij,ij->i", diff, diff)
            worst = max(worst, float(np.max(np.abs(expanded - exact) / (p2 + c2))))
    assert 0.0 < worst <= SCREEN_SLACK / 1000


def test_seeding_holds_no_half_copy_of_the_points():
    # Points that fail the screen are gathered BLOCK_ROWS at a time, so even
    # the first center, which measures every point, copies no large part of them.
    points = random_matrix(20000, 32, 3).rows.astype(np.float64)
    p2 = np.einsum("ij,ij->i", points, points)
    tracemalloc.start()
    try:
        ivf._kmeanspp_seed(points, p2, 50, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < points.nbytes / 2
