"""k-means and IVF search tests, checked against brute-force oracles."""

import copy
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendrank.embeddings import EmbeddingMatrix
from blendrank.ivf import (METRICS, Centroids, _metric_scores, _top_k, build_ivf, cosine_scores,
                           load_ivf, rank_order, save_ivf, search, train_kmeans)
from blendrank.synthetic import make_synthetic
from ivf_oracle import exhaustive_search


def linear_scan_oracle(rows, q, k, metric):
    """Independent O(N*D) reference: python loops, explicit tie rule."""
    scored = []
    qn = sum(x * x for x in q) ** 0.5
    for i, row in enumerate(rows):
        dot = sum(float(a) * float(b) for a, b in zip(row, q))
        if metric == "cosine":
            rn = sum(float(a) * float(a) for a in row) ** 0.5
            s = dot / (rn * qn) if rn > 0 and qn > 0 else 0.0
        else:
            s = dot
        scored.append((-s, i))
    scored.sort()
    return [(i, -negs) for negs, i in scored[:k]]


def lexsort_top_k(ids, scores, k):
    """Full-sort oracle: every candidate ordered by (score desc, id asc), NaN last."""
    order = np.lexsort((ids, -scores))[:k]
    return ids[order], scores[order]


def random_matrix(n, d, seed):
    rng = np.random.default_rng(seed)
    return EmbeddingMatrix(rng.normal(size=(n, d)).astype(np.float32))


def kmeans_objective(points, centers):
    d = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return float(d.min(axis=1).sum())


class TestKmeans:
    def test_negative_zero_column_keeps_its_sign(self):
        # A centroid is its members' sum from the first member on, divided by
        # their count; a sum started from +0.0 would flip -0.0 to +0.0.
        rows = np.array([[-0.0, 1], [-0.0, 2], [-0.0, 4], [50, 0], [51, 0]], dtype=np.float32)
        cents = train_kmeans(EmbeddingMatrix(rows), 2, 5, 0).vectors
        small = cents[np.argmin(cents[:, 0])]
        assert small[1] == 7 / 3 and np.signbit(small[0])

    def test_nlist_equals_n_gives_zero_objective(self):
        m = random_matrix(12, 4, 0)
        cents = train_kmeans(m, 12, max_iters=20, seed=1)
        assert kmeans_objective(m.rows.astype(np.float64), cents.vectors) < 1e-9

    def test_single_cluster_is_global_mean(self):
        m = random_matrix(30, 5, 2)
        cents = train_kmeans(m, 1, max_iters=5, seed=0)
        np.testing.assert_allclose(cents.vectors[0],
                                   m.rows.astype(np.float64).mean(axis=0), atol=1e-12)

    def test_separates_two_blobs(self):
        # Verified by brute-force distance comparison of every point against
        # both returned centroids.
        rng = np.random.default_rng(3)
        blob_a = rng.normal(size=(20, 8)) + 25.0
        blob_b = rng.normal(size=(20, 8)) - 25.0
        m = EmbeddingMatrix(np.vstack([blob_a, blob_b]).astype(np.float32))
        cents = train_kmeans(m, 2, max_iters=25, seed=3)
        pts = m.rows.astype(np.float64)
        assign = []
        for p in pts:
            d0 = ((p - cents.vectors[0]) ** 2).sum()
            d1 = ((p - cents.vectors[1]) ** 2).sum()
            assign.append(0 if d0 <= d1 else 1)
        assert len(set(assign[:20])) == 1
        assert len(set(assign[20:])) == 1
        assert assign[0] != assign[20]

    def test_objective_non_increasing_over_iterations(self):
        m = random_matrix(80, 6, 5)
        pts = m.rows.astype(np.float64)
        objectives = [
            kmeans_objective(pts, train_kmeans(m, 8, max_iters=i, seed=11).vectors)
            for i in range(1, 8)
        ]
        for a, b in zip(objectives, objectives[1:]):
            assert b <= a + 1e-9

    def test_nlist_bounds(self):
        m = random_matrix(5, 3, 1)
        with pytest.raises(ValueError):
            train_kmeans(m, 6, 5, 0)
        with pytest.raises(ValueError):
            train_kmeans(m, 0, 5, 0)

    def test_deterministic(self):
        m = random_matrix(40, 4, 7)
        a = train_kmeans(m, 5, 10, 42).vectors
        b = train_kmeans(m, 5, 10, 42).vectors
        np.testing.assert_array_equal(a, b)


class TestBuild:
    def test_single_list_holds_everything(self):
        m = random_matrix(17, 4, 0)
        idx = build_ivf(m, train_kmeans(m, 1, 3, 0))
        assert idx.list_ids(0).shape[0] == 17

    def test_partition_property(self):
        m = random_matrix(100, 6, 1)
        idx = build_ivf(m, train_kmeans(m, 9, 10, 1))
        all_ids = np.concatenate([idx.list_ids(c) for c in range(idx.nlist)])
        assert sorted(all_ids.tolist()) == list(range(100))

    def test_lists_sorted_by_internal_id(self):
        m = random_matrix(60, 5, 2)
        idx = build_ivf(m, train_kmeans(m, 6, 10, 2))
        for c in range(idx.nlist):
            ids = idx.list_ids(c)
            assert np.all(np.diff(ids) > 0) or ids.shape[0] <= 1

    def test_build_deterministic(self):
        m = random_matrix(50, 4, 3)
        cents = train_kmeans(m, 5, 10, 3)
        a, b = build_ivf(m, cents), build_ivf(m, cents)
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.offsets, b.offsets)

    def test_dim_mismatch(self):
        m = random_matrix(10, 4, 0)
        with pytest.raises(ValueError, match="mismatch"):
            build_ivf(m, Centroids(np.zeros((2, 5))))


class TestCosineScores:
    """ivf.cosine_scores is the one cosine: first-stage search and the cosine feature."""

    def test_equals_the_quotient_and_zero_rows_score_zero(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(40, 6)).astype(np.float32)
        rows[[4, 17]] = 0.0
        norms = np.linalg.norm(rows.astype(np.float64), axis=1)
        q = rng.normal(size=6)
        got = cosine_scores(q, rows, norms)
        # One product over the whole matrix: a product of another shape (one
        # row at a time) may differ in the last bit.
        dots = rows @ q
        for i in range(40):
            want = 0.0 if i in (4, 17) else dots[i] / (norms[i] * np.linalg.norm(q))
            assert got[i] == want, i
        np.testing.assert_array_equal(_metric_scores(q, rows, norms, "cosine"), got)

    def test_zero_query_scores_zero(self):
        rows = np.ones((3, 4), dtype=np.float32)
        got = cosine_scores(np.zeros(4), rows, np.linalg.norm(rows, axis=1))
        assert got.dtype == np.float64 and got.tolist() == [0.0, 0.0, 0.0]

    def test_dot_metric_does_not_read_norms(self):
        rows = np.arange(6, dtype=np.float64).reshape(3, 2)
        np.testing.assert_array_equal(_metric_scores(np.ones(2), rows, None, "dot"), [1, 5, 9])


class TestSearch:
    def test_full_probe_equals_exhaustive(self):
        for seed in range(3):
            m = random_matrix(200, 8, seed)
            idx = build_ivf(m, train_kmeans(m, 14, 10, seed), "dot")
            rng = np.random.default_rng(seed + 100)
            q = rng.normal(size=8)
            got = search(idx, q, 25, nprobe=idx.nlist)
            want = exhaustive_search(m, q, 25, "dot")
            np.testing.assert_array_equal(got.ids, want.ids)
            np.testing.assert_allclose(got.scores, want.scores, atol=1e-6)

    def test_self_query_scores_one_under_cosine(self):
        m = random_matrix(50, 6, 4)
        idx = build_ivf(m, train_kmeans(m, 1, 5, 0), "cosine")
        r = search(idx, m.rows[7].astype(np.float64), 1, nprobe=1)
        assert r.ids[0] == 7
        assert abs(r.scores[0] - 1.0) < 1e-6

    def test_exhaustive_matches_linear_scan_oracle(self):
        for seed in (0, 1, 2, 3):
            m = random_matrix(40, 5, seed)
            rng = np.random.default_rng(seed + 50)
            q = rng.normal(size=5)
            for metric in ("dot", "cosine"):
                want = linear_scan_oracle(m.rows, q, 10, metric)
                got = exhaustive_search(m, q, 10, metric)
                assert got.ids.tolist() == [i for i, _ in want]
                np.testing.assert_allclose(got.scores,
                                           [s for _, s in want], atol=1e-9)

    def test_dot_with_basis_query_ranks_by_coordinate(self):
        m = random_matrix(30, 4, 6)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        r = exhaustive_search(m, q, 30, "dot")
        coord = m.rows[:, 0].astype(np.float64)
        assert r.ids.tolist() == np.lexsort((np.arange(30), -coord)).tolist()

    def test_k_larger_than_n(self):
        m = random_matrix(8, 3, 7)
        r = exhaustive_search(m, np.ones(3), 50, "dot")
        assert len(r) == 8

    def test_recall_non_decreasing_in_nprobe(self):
        m = random_matrix(500, 16, 11)
        idx = build_ivf(m, train_kmeans(m, 32, 10, 11), "dot")
        rng = np.random.default_rng(99)
        queries = rng.normal(size=(20, 16))
        prev = -1.0
        for nprobe in (1, 2, 4, 8, 16, 32):
            recalls = []
            for q in queries:
                truth = set(exhaustive_search(m, q, 10, "dot").ids.tolist())
                got = set(search(idx, q, 10, nprobe).ids.tolist())
                recalls.append(len(got & truth) / 10)
            mean = float(np.mean(recalls))
            assert mean >= prev - 1e-12
            prev = mean
        assert prev == 1.0  # full probe recovers everything

    def test_candidate_set_nesting(self):
        m = random_matrix(120, 6, 13)
        idx = build_ivf(m, train_kmeans(m, 10, 10, 13), "dot")
        q = np.random.default_rng(5).normal(size=6)
        prev: set = set()
        for nprobe in (1, 3, 5, 10):
            ids = set(search(idx, q, 120, nprobe).ids.tolist())
            assert prev <= ids
            prev = ids

    def test_ranking_invariants(self):
        m = random_matrix(100, 4, 17)
        idx = build_ivf(m, train_kmeans(m, 8, 10, 17), "dot")
        r = search(idx, np.ones(4), 30, 4)
        scores = r.scores
        assert np.all(np.diff(scores) <= 0)
        assert len(r) == r.ids.shape[0] == 30

    def test_nprobe_out_of_range(self):
        m = random_matrix(20, 3, 0)
        idx = build_ivf(m, train_kmeans(m, 4, 5, 0))
        with pytest.raises(ValueError):
            search(idx, np.ones(3), 5, 0)
        with pytest.raises(ValueError):
            search(idx, np.ones(3), 5, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        m = random_matrix(40, 4, 2)
        idx = build_ivf(m, train_kmeans(m, 4, 5, 2))
        q = np.ones(4)
        q[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            search(idx, q, 5, idx.nlist)

    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected_by_exhaustive_search(self, bad, metric):
        # The oracle refuses what search() refuses, instead of ranking by NaN.
        m = random_matrix(20, 4, 2)
        q = np.array([1.0, 1.0, 0.0, 0.0])
        q[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            exhaustive_search(m, q, 5, metric)

    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    def test_zero_query_returns_probed_ids_in_id_order(self, metric):
        # Every centroid and document scores 0: the first nprobe lists are
        # probed and their documents come back in internal-id order.
        m = random_matrix(60, 4, 3)
        idx = build_ivf(m, train_kmeans(m, 6, 5, 3), metric)
        q = np.zeros(4)
        np.testing.assert_array_equal(search(idx, q, 60, idx.nlist).ids, np.arange(60))
        probed = np.sort(idx.ids[:idx.offsets[2]])
        r = search(idx, q, 60, 2)
        np.testing.assert_array_equal(r.ids, probed)
        assert np.all(r.scores == 0.0)

    def test_persistence_round_trip(self, tmp_path):
        m = random_matrix(64, 6, 21)
        idx = build_ivf(m, train_kmeans(m, 7, 10, 21), "cosine")
        path = tmp_path / "index.criv"
        save_ivf(idx, path)
        loaded = load_ivf(path)
        assert loaded.metric == "cosine"
        q = np.random.default_rng(1).normal(size=6)
        a = search(idx, q, 10, 3)
        b = search(loaded, q, 10, 3)
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.scores, b.scores)


class TestTopKSelection:
    """Selecting by partition before sorting keeps the full sort's result."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.integers(-3, 3).map(float),
                              st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])),
                    min_size=1, max_size=80),
           st.data())
    def test_equals_full_lexsort(self, values, data):
        n = len(values)
        k = data.draw(st.sampled_from([1, max(n - 1, 1), n, n + 5]) | st.integers(1, n + 5))
        ids = np.array(data.draw(st.permutations(range(0, 3 * n, 3))), dtype=np.int64)
        scores = np.array(values, dtype=np.float64)
        got = _top_k(ids, scores, k)
        want_ids, want_scores = lexsort_top_k(ids, scores, k)
        assert got.ids.tobytes() == want_ids.tobytes()
        assert got.scores.tobytes() == want_scores.tobytes()

    @pytest.mark.parametrize("metric", METRICS)
    def test_search_equals_full_lexsort_over_probed_candidates(self, metric):
        vectors = make_synthetic(2000, 5, 16, 7).doc_embeddings
        idx = build_ivf(vectors, train_kmeans(vectors, 45, 10, 7), metric)
        rng = np.random.default_rng(23)
        for nprobe in (1, 3, 16, idx.nlist):
            for q in rng.normal(size=(4, 16)):
                cent = _metric_scores(q, idx.centroids.vectors, idx.centroid_norms, metric)
                probe = np.lexsort((np.arange(idx.nlist), -cent))[:nprobe]
                rows = np.concatenate([np.arange(idx.offsets[c], idx.offsets[c + 1])
                                       for c in probe])
                scores = _metric_scores(q, idx.vectors[rows], idx.norms[rows], metric)
                for k in (10, 100):
                    got = search(idx, q, k, nprobe)
                    want_ids, want_scores = lexsort_top_k(idx.ids[rows], scores, k)
                    assert got.ids.tobytes() == want_ids.tobytes(), (nprobe, k)
                    assert got.scores.tobytes() == want_scores.tobytes(), (nprobe, k)


class TestRankOrder:
    """rank_order equals np.lexsort((ids, neg)); the plain argsort is kept only
    when no tie or NaN leaves its order open."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), unique=True, max_size=200), st.data())
    def test_distinct_keys_take_the_argsort(self, values, data):
        neg = np.array(values, dtype=np.float64)
        ids = np.array(data.draw(st.permutations(range(len(values)))), dtype=np.int64)
        want = np.lexsort((ids, neg))

        def no_lexsort(*args, **kwargs):
            raise AssertionError("distinct keys fell back to lexsort")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "lexsort", no_lexsort)
            got = rank_order(neg, ids)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
           st.lists(st.tuples(st.integers(0, 10 ** 6),
                              st.sampled_from(["copy", np.nan, 0.0, -0.0, np.inf, -np.inf])),
                    min_size=1, max_size=20),
           st.data())
    def test_ties_and_nan_take_the_exact_fallback(self, values, injections, data):
        values = list(values)
        for at, what in injections:
            src = values[at % len(values)]
            values.insert(at % (len(values) + 1), src if what == "copy" else what)
        neg = np.array(values, dtype=np.float64)
        ids = np.array(data.draw(st.permutations(range(len(values)))), dtype=np.int64)
        want, lexsort = np.lexsort((ids, neg)), np.lexsort
        calls = []

        def counted_lexsort(*args, **kwargs):
            calls.append(1)
            return lexsort(*args, **kwargs)

        open_order = len(np.unique(neg)) < len(neg) or np.isnan(neg).any()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "lexsort", counted_lexsort)
            got = rank_order(neg, ids)
        assert got.tobytes() == want.tobytes()
        assert len(calls) == int(open_order)

    def test_signed_zeros_tie(self):
        neg, ids = np.array([0.0, -0.0, 0.0, -0.0]), np.array([3, 2, 1, 0])
        np.testing.assert_array_equal(rank_order(neg, ids), [3, 2, 1, 0])


@pytest.fixture(scope="module")
def synthetic_index():
    vectors = make_synthetic(2000, 5, 16, 7).doc_embeddings
    return build_ivf(vectors, train_kmeans(vectors, 45, 10, 7), "dot")


def save_damaged(idx, path, offsets=None, ids=None):
    damaged = copy.copy(idx)
    damaged.offsets = idx.offsets if offsets is None else offsets
    damaged.ids = idx.ids if ids is None else ids
    save_ivf(damaged, path)
    return path


def criv2_sections(sizes):
    """(section, first byte, payload bytes) after the 8-byte magic; each
    payload is followed by its 4-byte CRC32 and zero padding to 8 bytes."""
    out, at = [], 8
    for name, size in sizes:
        out.append((name, at, size))
        at += -(-(size + 4) // 8) * 8
    return out


class TestDamagedFile:
    """A damaged CRIV2 file fails with the path and the section named."""

    # (section, first byte, byte count) for the 45-list, 16-d, 2,000-doc index.
    SECTIONS = criv2_sections([("header", 32), ("centroids", 8 * 45 * 16), ("offsets", 8 * 46),
                               ("ids", 8 * 2000), ("vectors", 4 * 2000 * 16)])

    def test_intact_file_loads(self, synthetic_index, tmp_path):
        path = save_damaged(synthetic_index, tmp_path / "ok.criv")
        assert path.stat().st_size == 8 + sum(-(-(n + 4) // 8) * 8 for _, _, n in self.SECTIONS)
        loaded = load_ivf(path)
        np.testing.assert_array_equal(loaded.offsets, synthetic_index.offsets)
        np.testing.assert_array_equal(loaded.ids, synthetic_index.ids)

    def test_offset_moved_into_another_list(self, synthetic_index, tmp_path):
        offsets = synthetic_index.offsets.copy()
        offsets[5] = 1800
        path = save_damaged(synthetic_index, tmp_path / "moved.criv", offsets=offsets)
        with pytest.raises(ValueError, match=re.escape(f"{path}: offsets section")):
            load_ivf(path)

    @pytest.mark.parametrize("where, value", [(0, 1), (-1, 1999), (-1, 2001)])
    def test_offsets_must_run_from_zero_to_n_docs(self, synthetic_index, tmp_path,
                                                  where, value):
        offsets = synthetic_index.offsets.copy()
        offsets[where] = value
        path = save_damaged(synthetic_index, tmp_path / "ends.criv", offsets=offsets)
        with pytest.raises(ValueError, match=re.escape(f"{path}: offsets section")):
            load_ivf(path)

    @pytest.mark.parametrize("value", [None, -1, 2000])
    def test_ids_must_be_a_permutation(self, synthetic_index, tmp_path, value):
        ids = synthetic_index.ids.copy()
        ids[0] = ids[1] if value is None else value
        path = save_damaged(synthetic_index, tmp_path / "ids.criv", ids=ids)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ids section")):
            load_ivf(path)

    @pytest.mark.parametrize("section", [s[0] for s in SECTIONS])
    def test_truncated_in_each_section(self, synthetic_index, tmp_path, section):
        path = save_damaged(synthetic_index, tmp_path / "cut.criv")
        start, size = next((a, n) for name, a, n in self.SECTIONS if name == section)
        path.write_bytes(path.read_bytes()[:start + size // 2])
        with pytest.raises(ValueError, match=re.escape(f"{path}: {section} ") + ".*truncated"):
            load_ivf(path)

    def test_trailing_bytes_rejected(self, synthetic_index, tmp_path):
        path = save_damaged(synthetic_index, tmp_path / "long.criv")
        path.write_bytes(path.read_bytes() + b"\0" * 4)
        with pytest.raises(ValueError, match=re.escape(f"{path}: 4 bytes after the vectors section")):
            load_ivf(path)
