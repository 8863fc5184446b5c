"""Lexical feature catalog and blended feature-matrix layout tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendrank.corpus import Corpus, build_inverted_index, tokenize
from blendrank.embeddings import EmbeddingMatrix
from blendrank.features import (FeatureExtractor, _QueryContext, _lexical_features_batch, FeatureRegistry, build_registry,
                                make_mask, DEFAULT_LEXICAL_NAMES, LEXICAL_COUNT)
from blendrank.synthetic import make_synthetic
from lexical_oracle import extract_lexical

IDX = {name: i for i, name in enumerate(DEFAULT_LEXICAL_NAMES)}


def reference_bm25(tf, df, n_docs, dl, avgdl, k1=0.9, b=0.4):
    """Scripted independent calculator for one term's contribution."""
    if tf == 0:
        return 0.0
    idf = math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
    return idf * tf / (tf + k1 * (1.0 - b + b * dl / avgdl))


def reference_dirichlet(tf, cf, total_tokens, dl, mu=1000.0):
    if cf == 0:
        return 0.0
    return math.log((tf + mu * cf / total_tokens) / (dl + mu))


@pytest.fixture
def toy_index():
    return build_inverted_index(Corpus(["d0", "d1"], ["a b a", "b c"]))


class TestLexicalCatalog:
    def test_bm25_total_matches_reference(self, toy_index):
        # Pinned from the reference calculator: idf(a)=ln(2), tf=2, dl=3,
        # avgdl=2.5 -> 0.46645166928663884.
        feats = extract_lexical(toy_index, tokenize("a"), 0)
        want = reference_bm25(tf=2, df=1, n_docs=2, dl=3, avgdl=2.5)
        assert abs(want - 0.46645166928663884) < 1e-15
        assert abs(feats[IDX["lex_bm25_total"]] - want) < 1e-12

    def test_dirichlet_total_matches_reference(self, toy_index):
        feats = extract_lexical(toy_index, tokenize("a b"), 1)
        want = (reference_dirichlet(tf=0, cf=2, total_tokens=5, dl=2)
                + reference_dirichlet(tf=1, cf=2, total_tokens=5, dl=2))
        assert abs(feats[IDX["lex_lm_dir_total"]] - want) < 1e-12

    def test_zero_match_query(self, toy_index):
        feats = extract_lexical(toy_index, tokenize("zz yy"), 0)
        assert feats[IDX["lex_tf_sum"]] == 0.0
        assert feats[IDX["lex_tf_max"]] == 0.0
        assert feats[IDX["lex_bm25_total"]] == 0.0
        assert feats[IDX["lex_matched_ratio"]] == 0.0
        assert feats[IDX["lex_min_window"]] == toy_index.doc_len[0] + 1

    def test_full_match_counts(self):
        idx = build_inverted_index(Corpus(["d"], ["a b"]))
        feats = extract_lexical(idx, tokenize("a b"), 0)
        assert feats[IDX["lex_matched_ratio"]] == 1.0
        assert feats[IDX["lex_ordered_bigrams"]] == 1.0
        assert feats[IDX["lex_min_window"]] == 2.0

    def test_aggregates_over_unique_terms(self, toy_index):
        # doc0 = "a b a": tf(a)=2, tf(b)=1 -> sum 3, min 1, max 2, mean 1.5
        feats = extract_lexical(toy_index, tokenize("a b"), 0)
        assert feats[IDX["lex_tf_sum"]] == 3.0
        assert feats[IDX["lex_tf_min"]] == 1.0
        assert feats[IDX["lex_tf_max"]] == 2.0
        assert feats[IDX["lex_tf_mean"]] == 1.5

    def test_proximity_features(self):
        idx = build_inverted_index(Corpus(["d"], ["a x x x b a"]))
        feats = extract_lexical(idx, tokenize("a b"), 0)
        # positions: a -> {0, 5}, b -> {4}; best window [4, 5] has length 2
        assert feats[IDX["lex_min_window"]] == 2.0
        assert feats[IDX["lex_mean_min_pair_dist"]] == 1.0
        assert feats[IDX["lex_pairs_within_8"]] == 1.0

    def test_every_column_carries_a_value(self):
        # No catalog slot is a constant zero: each is nonzero for some
        # (query, document) of a seeded collection.
        data = make_synthetic(300, 20, 8, seed=3)
        index = build_inverted_index(data.corpus)
        docs = np.arange(len(data.corpus))
        seen = np.zeros(LEXICAL_COUNT, dtype=bool)
        for text in data.queries.texts:
            ctx = _QueryContext(index, tokenize(text))
            seen |= (_lexical_features_batch(index, ctx, docs) != 0).any(axis=0)
        assert [n for n, hit in zip(DEFAULT_LEXICAL_NAMES, seen) if not hit] == []

    def test_document_local(self, toy_index):
        # Lexical features depend only on the (query, document) pair.
        a = extract_lexical(toy_index, tokenize("a b"), 0)
        b = extract_lexical(toy_index, tokenize("a b"), 0)
        np.testing.assert_array_equal(a, b)

    def test_all_features_finite_fuzz(self):
        rng = np.random.default_rng(8)
        vocab = [f"w{i}" for i in range(12)]
        texts = [" ".join(rng.choice(vocab, size=rng.integers(0, 20)))
                 for _ in range(15)]
        idx = build_inverted_index(Corpus([f"d{i}" for i in range(15)], texts))
        for _ in range(60):
            q = " ".join(rng.choice(vocab + ["novel"], size=rng.integers(0, 6)))
            doc = int(rng.integers(15))
            feats = extract_lexical(idx, tokenize(q), doc)
            assert np.isfinite(feats).all()
            assert feats.shape == (LEXICAL_COUNT,)

    def test_batch_path_matches_per_document_path(self):
        # The vectorized extractor must reproduce the reference
        # per-document implementation exactly.
        rng = np.random.default_rng(21)
        vocab = [f"w{i}" for i in range(15)]
        texts = [" ".join(rng.choice(vocab, size=rng.integers(0, 25)))
                 for _ in range(40)]
        idx = build_inverted_index(Corpus([f"d{i}" for i in range(40)], texts))
        for trial in range(30):
            q = " ".join(rng.choice(vocab + ["zz"], size=rng.integers(0, 6)))
            tokens = tokenize(q)
            ctx = _QueryContext(idx, tokens)
            doc_ids = rng.choice(40, size=rng.integers(1, 40), replace=False)
            batch = _lexical_features_batch(idx, ctx, doc_ids.astype(np.int64))
            for r, doc in enumerate(doc_ids):
                single = extract_lexical(idx, tokens, int(doc))
                np.testing.assert_array_equal(batch[r], single,
                                              err_msg=f"trial {trial} doc {doc}")



    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(data=st.data(), vocab_size=st.integers(1, 8), n_docs=st.integers(1, 12))
    def test_batch_path_matches_per_document_path_property(self, data, vocab_size, n_docs):
        vocab = [f"w{i}" for i in range(vocab_size)]
        word = st.sampled_from(vocab)
        texts = [" ".join(data.draw(st.lists(word, max_size=20))) for _ in range(n_docs)]
        idx = build_inverted_index(Corpus([f"d{i}" for i in range(n_docs)], texts))
        tokens = data.draw(st.lists(st.sampled_from(vocab + ["zz", "yy"]), max_size=6))
        doc_ids = np.array(data.draw(st.lists(st.integers(0, n_docs - 1), min_size=1,
                                              max_size=n_docs, unique=True)), dtype=np.int64)
        batch = _lexical_features_batch(idx, _QueryContext(idx, tokens), doc_ids)
        for r, doc in enumerate(doc_ids):
            np.testing.assert_array_equal(batch[r], extract_lexical(idx, tokens, int(doc)))


def lexical_block(extractor, tokens):
    """The lexical columns of feature_matrix for every document."""
    reg = extractor.registry
    ids = np.arange(extractor.index.n_docs)
    q = np.ones(reg.dim)
    return extractor.feature_matrix(tokens, q, ids)[:, 3 * reg.dim + 2:]


class TestQueryEdges:
    @pytest.fixture
    def extractor(self):
        corpus = Corpus(["d0", "d1", "d2"], ["a b a", "b c", ""])
        rows = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)
        return FeatureExtractor(build_inverted_index(corpus), EmbeddingMatrix(rows))

    @staticmethod
    def unmatched_block(idx, doc, query_len):
        """Catalog of a document that matches no query term, idf columns aside."""
        dl = float(idx.doc_len[doc])
        want = np.zeros(LEXICAL_COUNT)
        want[IDX["lex_query_len"]] = query_len
        want[IDX["lex_doc_len"]] = dl
        want[IDX["lex_doc_unique_terms"]] = float(idx.unique_terms[doc])
        want[IDX["lex_min_window"]] = dl + 1
        want[IDX["lex_mean_min_pair_dist"]] = dl
        return want

    def test_all_oov_query(self, extractor):
        idx = extractor.index
        lex = lexical_block(extractor, ["zz", "yy", "zz"])
        # An unseen term has df 0, so idf = ln((N + 0.5) / 0.5 + 1).
        idf = float(np.log((idx.n_docs + 0.5) / 0.5 + 1.0))
        for doc in range(idx.n_docs):
            want = self.unmatched_block(idx, doc, 3.0)
            for agg, v in (("sum", 2 * idf), ("min", idf), ("max", idf), ("mean", idf)):
                want[IDX[f"lex_idf_{agg}"]] = v
            np.testing.assert_array_equal(lex[doc], want, err_msg=f"doc {doc}")

    def test_empty_query(self, extractor):
        idx = extractor.index
        lex = lexical_block(extractor, [])
        for doc in range(idx.n_docs):
            np.testing.assert_array_equal(lex[doc], self.unmatched_block(idx, doc, 0.0),
                                          err_msg=f"doc {doc}")

    def test_all_empty_documents_warn_nothing(self):
        """With total_tokens 0 the language-model lanes compute 0/0; the
        batch path discards them silently and agrees with the oracle."""
        corpus = Corpus(["d0", "d1", "d2"], ["", "...", " - "])
        rows = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)
        extractor = FeatureExtractor(build_inverted_index(corpus), EmbeddingMatrix(rows))
        tokens = ["a", "b", "a"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lex = lexical_block(extractor, tokens)
            for doc in range(3):
                np.testing.assert_array_equal(
                    lex[doc], extract_lexical(extractor.index, tokens, doc), err_msg=f"doc {doc}")


def layout_extractor():
    """D = 2; for the query (1, 0), cosine ranks d0, d1, d2 as 1, 2, 3."""
    corpus = Corpus(["d0", "d1", "d2"], ["a b", "a c", "b b"])
    rows = np.array([[1, 0], [1, 1], [0, 1]], dtype=np.float32)
    return FeatureExtractor(build_inverted_index(corpus), EmbeddingMatrix(rows))


Q_LAYOUT = np.array([1.0, 0.0])


class TestRegistryAndBlend:
    def test_layout_worked_example(self):
        # D = 2: (q, d, q - d, cos, rank, lexical catalog); d2 = (0, 1).
        ex = layout_extractor()
        m = ex.feature_matrix(["b"], Q_LAYOUT, np.array([0, 1, 2]))
        assert m.shape == (3, ex.registry.total)
        np.testing.assert_array_equal(m[2, :8], [1, 0, 0, 1, 1, -1, 0, 3])
        np.testing.assert_array_equal(m[2, 8:], extract_lexical(ex.index, ["b"], 2))

    def test_equal_vectors_zero_delta(self):
        corpus = Corpus(["d0"], ["a"])
        rows = np.array([[0, 3, 4]], dtype=np.float32)
        ex = FeatureExtractor(build_inverted_index(corpus), EmbeddingMatrix(rows))
        m = ex.feature_matrix(["a"], np.array([0.0, 3.0, 4.0]), np.array([0]))
        np.testing.assert_array_equal(m[0, 6:9], [0, 0, 0])
        assert m[0, 9] == 1.0

    def test_total_for_alternative_layouts(self):
        other = FeatureRegistry(768, tuple(f"lex_{i:03d}" for i in range(253)))
        assert other.total == 2559
        assert build_registry(32).total == 3 * 32 + 2 + LEXICAL_COUNT

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            build_registry(0)
        ex = layout_extractor()
        with pytest.raises(ValueError):
            ex.feature_matrix(["a"], np.array([1.0, 0.0, 0.0]), np.array([0, 1]))

    def test_names_and_families(self):
        reg = build_registry(2)
        assert reg.name(0) == "dense_query_0"
        assert reg.family(3) == "dense_doc"
        assert reg.family(5) == "dense_delta"
        assert reg.name(3 * 2) == "cosine"
        assert reg.name(3 * 2 + 1) == "rank"
        assert reg.family(3 * 2 + 2) == "lexical"


class TestMasks:
    """Variants select columns of feature_matrix, as the cascade does."""

    def matrix(self):
        ex = layout_extractor()
        return ex.registry, ex.feature_matrix(["b"], Q_LAYOUT, np.array([0, 1, 2]))

    def test_full_mask_is_identity(self):
        reg, m = self.matrix()
        np.testing.assert_array_equal(m[:, make_mask(reg, "full").included], m)

    def test_lexical_mask_keeps_rank_and_lexical(self):
        reg, m = self.matrix()
        got = m[:, make_mask(reg, "lexical").included]
        assert got.shape == (3, 1 + LEXICAL_COUNT)
        np.testing.assert_array_equal(got[:, 0], [1, 2, 3])
        np.testing.assert_array_equal(got[:, 1:], m[:, 8:])

    def test_dense_mask(self):
        reg, m = self.matrix()
        np.testing.assert_array_equal(m[2, make_mask(reg, "dense").included],
                                      [1, 0, 0, 1, 1, -1, 0, 3])

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            make_mask(build_registry(2), "sparse")


class TestCandidateFeatures:
    def make_extractor(self):
        corpus = Corpus(["d0", "d1", "d2"], ["a b", "a c", "b c"])
        idx = build_inverted_index(corpus)
        rows = np.array([[1, 0, 0], [0.8, 0.6, 0], [0, 0, 1]], dtype=np.float32)
        return FeatureExtractor(idx, EmbeddingMatrix(rows))

    def test_single_candidate_rank_one(self):
        ex = self.make_extractor()
        m = ex.feature_matrix(["a"], np.array([1.0, 0, 0]), np.array([1]))
        assert m[0, ex.registry.rank_id] == 1.0

    def test_rank_follows_cosine_not_first_stage(self):
        ex = self.make_extractor()
        # First-stage order: d1 before d0, but cosine with e0 prefers d0.
        m = ex.feature_matrix(["a"], np.array([1.0, 0, 0]), np.array([1, 0]))
        assert m[:, ex.registry.rank_id].tolist() == [2.0, 1.0]

    def test_rank_multiset_is_1_to_k(self):
        ex = self.make_extractor()
        m = ex.feature_matrix(["a", "b"], np.array([0.3, 0.4, 0.5]), np.array([2, 0, 1]))
        assert sorted(m[:, ex.registry.rank_id]) == [1.0, 2.0, 3.0]
        assert np.isfinite(m).all()

    def test_lexical_block_invariant_to_other_candidates(self):
        ex = self.make_extractor()
        reg = ex.registry
        solo = ex.feature_matrix(["a"], np.ones(3), np.array([0]))
        both = ex.feature_matrix(["a"], np.ones(3), np.array([0, 2]))
        lex = slice(3 * reg.dim + 2, reg.total)
        np.testing.assert_array_equal(solo[0, lex], both[0, lex])

    def test_matrix_needed_rows(self):
        ex = self.make_extractor()
        ids = np.array([0, 1, 2])
        full = ex.feature_matrix(["a"], np.ones(3), ids)
        part = ex.feature_matrix(["a"], np.ones(3), ids, needed=np.array([2, 0]))
        np.testing.assert_array_equal(part[0], full[2])
        np.testing.assert_array_equal(part[1], full[0])


def chain_name(reg, feature_id):
    """The registry's feature name as an if-chain over 3D + 2 (the layout's oracle)."""
    d = reg.dim
    if feature_id < d:
        return f"dense_query_{feature_id}"
    if feature_id < 2 * d:
        return f"dense_doc_{feature_id - d}"
    if feature_id < 3 * d:
        return f"dense_delta_{feature_id - 2 * d}"
    if feature_id == 3 * d:
        return "cosine"
    if feature_id == 3 * d + 1:
        return "rank"
    return reg.lexical_names[feature_id - 3 * d - 2]


def chain_family(reg, feature_id):
    d = reg.dim
    if feature_id < d:
        return "dense_query"
    if feature_id < 2 * d:
        return "dense_doc"
    if feature_id < 3 * d:
        return "dense_delta"
    if feature_id == 3 * d:
        return "cosine"
    if feature_id == 3 * d + 1:
        return "rank"
    return "lexical"


LAYOUTS = [build_registry(d) for d in range(1, 9)] + [
    FeatureRegistry(768, tuple(f"lex_{i:03d}" for i in range(253)))]


class TestLayoutTable:
    """The spans table is the one definition of the layout; the if-chain above is its oracle."""

    @pytest.mark.parametrize("reg", LAYOUTS, ids=lambda r: f"d{r.dim}")
    def test_names_and_families_equal_the_chain(self, reg):
        assert reg.total == 3 * reg.dim + 2 + reg.lexical_count
        assert reg.rank_id == 3 * reg.dim + 1
        for fid in range(reg.total):
            assert reg.name(fid) == chain_name(reg, fid), fid
            assert reg.family(fid) == chain_family(reg, fid), fid

    @pytest.mark.parametrize("reg", LAYOUTS, ids=lambda r: f"d{r.dim}")
    def test_spans_tile_the_vector_in_order(self, reg):
        spans = list(reg.spans.values())
        assert spans[0].start == 0 and spans[-1].stop == reg.total
        assert all(a.stop == b.start for a, b in zip(spans, spans[1:]))

    @pytest.mark.parametrize("reg", LAYOUTS, ids=lambda r: f"d{r.dim}")
    @pytest.mark.parametrize("past_end", [None, 0, 1], ids=["minus_one", "total", "total_plus_one"])
    def test_id_outside_the_vector_is_rejected(self, reg, past_end):
        fid = -1 if past_end is None else reg.total + past_end
        with pytest.raises(ValueError, match=f"feature id {fid} is outside"):
            reg.name(fid)
        with pytest.raises(ValueError, match=f"feature id {fid} is outside"):
            reg.family(fid)

    @pytest.mark.parametrize("reg", LAYOUTS, ids=lambda r: f"d{r.dim}")
    @pytest.mark.parametrize("variant", ["full", "lexical", "dense"])
    def test_mask_is_the_union_of_its_families(self, reg, variant):
        dense = {"dense_query", "dense_doc", "dense_delta", "cosine", "rank"}
        families = {"full": dense | {"lexical"}, "lexical": {"rank", "lexical"},
                    "dense": dense}[variant]
        mask = make_mask(reg, variant)
        assert mask.included.dtype == np.int64
        assert mask.included.tolist() == [fid for fid in range(reg.total)
                                          if chain_family(reg, fid) in families]

    def test_each_span_of_feature_matrix_is_its_part(self):
        data = make_synthetic(200, 6, 5, seed=4)
        ex = FeatureExtractor(build_inverted_index(data.corpus), data.doc_embeddings)
        sp = ex.registry.spans
        rng = np.random.default_rng(0)
        for i, text in enumerate(data.queries.texts):
            q = data.query_embeddings.rows[i].astype(np.float64)
            ids = rng.permutation(200)[:60]
            needed = rng.permutation(60)[:25]
            tokens = ex.tokenize_query(text)
            m = ex.feature_matrix(tokens, q, ids, needed)
            rows = data.doc_embeddings.rows[ids[needed]].astype(np.float64)
            cos, ranks = ex.cosine_ranks(q, ids)
            for fam, part in (("dense_query", np.broadcast_to(q, rows.shape)),
                              ("dense_doc", rows), ("dense_delta", q - rows),
                              ("cosine", cos[needed, None]), ("rank", ranks[needed, None]),
                              ("lexical", _lexical_features_batch(
                                  ex.index, _QueryContext(ex.index, tokens), ids[needed]))):
                np.testing.assert_array_equal(m[:, sp[fam]], part, err_msg=fam)
