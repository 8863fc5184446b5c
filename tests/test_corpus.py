"""Tokenizer, loaders, and inverted index tests."""

import numpy as np
import pytest

from blendrank.corpus import (Corpus, build_inverted_index, load_collection,
                              load_qrels, load_queries, load_inverted_index,
                              save_inverted_index, tokenize)
from blendrank.features import DEFAULT_LEXICAL_NAMES
from blendrank.synthetic import make_synthetic
from lexical_oracle import extract_lexical, positions, posting_run


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_splits_on_non_alphanumeric_runs(self):
        assert tokenize("Dense-Retrieval, 2024!") == ["dense", "retrieval", "2024"]

    def test_underscore_splits(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(1)
        pool = ["Alpha", "beta-2", "GAMMA_delta", "x9!", "##", "Mixed.Case"]
        for _ in range(50):
            text = " ".join(rng.choice(pool, size=rng.integers(0, 8)))
            once = tokenize(text)
            assert tokenize(" ".join(once)) == once

    def test_stemming_flag(self):
        assert tokenize("running dogs", stem=True) == ["runn", "dog"]
        assert tokenize("running dogs") == ["running", "dogs"]


class TestLoaders:
    def test_collection_round_trip(self, tmp_path):
        p = tmp_path / "coll.tsv"
        p.write_text("d1\thello world\nd2\tsecond doc\n")
        c = load_collection(p)
        assert len(c) == 2
        assert c.id_to_internal == {"d1": 0, "d2": 1}

    def test_collection_duplicate_id(self, tmp_path):
        p = tmp_path / "coll.tsv"
        p.write_text("d1\ta\nd1\tb\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_collection(p)

    def test_corpus_duplicate_id(self):
        with pytest.raises(ValueError, match="not unique"):
            Corpus(["a", "a", "b"], ["x", "y", "z"])

    def test_collection_empty_file(self, tmp_path):
        p = tmp_path / "coll.tsv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_collection(p)

    def test_collection_malformed_line_names_lineno(self, tmp_path):
        p = tmp_path / "coll.tsv"
        p.write_text("d1\tok\nno-tab-here\n")
        with pytest.raises(ValueError, match="line 2"):
            load_collection(p)

    def test_queries_single_line(self, tmp_path):
        p = tmp_path / "q.tsv"
        p.write_text("q1\twhat is x\n")
        qs = load_queries(p)
        assert len(qs) == 1

    def test_queries_duplicate_id(self, tmp_path):
        p = tmp_path / "q.tsv"
        p.write_text("q1\ta\nq1\tb\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_queries(p)

    def test_queries_blank_text_accepted(self, tmp_path):
        p = tmp_path / "q.tsv"
        p.write_text("q1\t\n")
        qs = load_queries(p)
        assert tokenize(qs.texts[0]) == []

    def test_qrels_basic(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d7 2\n")
        qr = load_qrels(p)
        assert qr.get("q1", "d7") == 2
        assert qr.get("q1", "absent") == 0

    def test_qrels_non_integer_grade(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d7 high\n")
        with pytest.raises(ValueError, match="non-integer"):
            load_qrels(p)

    def test_qrels_negative_grade(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d7 -1\n")
        with pytest.raises(ValueError, match="negative"):
            load_qrels(p)


class TestInvertedIndex:
    def corpus(self):
        return Corpus(["d0", "d1"], ["a b a", "b c"])

    def test_hand_counted_statistics(self):
        idx = build_inverted_index(self.corpus())
        assert idx.df["a"] == 1 and idx.df["b"] == 2
        assert idx.cf["a"] == 2 and idx.cf["b"] == 2
        assert idx.doc_len.tolist() == [3, 2]
        assert idx.avg_doc_len == 2.5

    def test_positions(self):
        idx = build_inverted_index(self.corpus())
        assert positions(idx, "a", 0).tolist() == [0, 2]
        assert positions(idx, "b", 0).tolist() == [1]
        assert positions(idx, "a", 1).tolist() == []

    def test_idf_equals_the_scalar_formula_bit_for_bit(self, tmp_path):
        """The one idf array gives each term, and an unseen term, the scalar
        formula's bits, built and loaded alike."""
        built = build_inverted_index(make_synthetic(400, 5, 4, seed=9).corpus)
        save_inverted_index(built, tmp_path / "i.crix")
        for idx in (built, load_inverted_index(tmp_path / "i.crix")):
            n = idx.n_docs
            for term, df in [*idx.df.items(), ("never-indexed", 0)]:
                want = np.log((n - df + 0.5) / (df + 0.5) + 1.0)
                assert idx.idf(term).hex() == float(want).hex(), (term, df)
            assert idx.idfs.shape == (len(idx.terms) + 1,)

    def test_single_empty_doc(self):
        idx = build_inverted_index(Corpus(["d0"], [""]))
        assert idx.doc_len.tolist() == [0]
        assert idx.postings == {}

    def test_token_totals(self):
        docs = Corpus(["a", "b", "c"], ["w x y z", "p q r s", "m n o p"])
        idx = build_inverted_index(docs)
        assert idx.total_tokens == 12
        assert idx.avg_doc_len == 4.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_inverted_index(Corpus([], []))

    def test_cf_equals_posting_tf_sum(self):
        rng = np.random.default_rng(4)
        vocab = [f"w{i}" for i in range(20)]
        texts = [" ".join(rng.choice(vocab, size=rng.integers(1, 30)))
                 for _ in range(25)]
        idx = build_inverted_index(Corpus([f"d{i}" for i in range(25)], texts))
        for term, (ids, tfs, pos) in idx.postings.items():
            assert int(tfs.sum()) == idx.cf[term] == len(pos)
            assert len(ids) == idx.df[term]
            runs = [posting_run(idx, term, k) for k in range(len(ids))]
            for run, tf in zip(runs, tfs):
                assert len(run) == tf
                assert np.all(np.diff(run) > 0)
            # The runs tile the term's positions array in posting order.
            assert np.concatenate(runs).tolist() == pos.tolist()

    def test_doc_len_equals_position_total(self):
        idx = build_inverted_index(self.corpus())
        per_doc = np.zeros(2, dtype=int)
        for ids, tfs, _ in idx.postings.values():
            per_doc[ids] += tfs
        assert per_doc.tolist() == idx.doc_len.tolist()

    def test_rebuild_serializes_identically(self, tmp_path):
        c = self.corpus()
        p1, p2 = tmp_path / "a.crix", tmp_path / "b.crix"
        save_inverted_index(build_inverted_index(c), p1)
        save_inverted_index(build_inverted_index(c), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_load_round_trip(self, tmp_path):
        idx = build_inverted_index(self.corpus())
        path = tmp_path / "idx.crix"
        save_inverted_index(idx, path)
        loaded = load_inverted_index(path)
        assert loaded.df == idx.df and loaded.cf == idx.cf
        assert loaded.doc_len.tolist() == idx.doc_len.tolist()
        assert positions(loaded, "a", 0).tolist() == [0, 2]
        assert loaded.stemmed == idx.stemmed

    def test_loaded_copy_has_bitwise_equal_norms(self, tmp_path):
        data = make_synthetic(2000, 5, 16, 7)
        idx = build_inverted_index(data.corpus)
        path = tmp_path / "idx.crix"
        save_inverted_index(idx, path)
        loaded = load_inverted_index(path)
        assert idx.tfidf_norm.tobytes() == loaded.tfidf_norm.tobytes()
        cos = DEFAULT_LEXICAL_NAMES.index("lex_tfidf_cosine")
        nonzero = 0
        for text in data.queries.texts:
            tokens = tokenize(text)
            for doc in range(0, 2000, 7):
                built = extract_lexical(idx, tokens, doc)
                assert built.tobytes() == extract_lexical(loaded, tokens, doc).tobytes()
                nonzero += built[cos] > 0
        assert nonzero > 100

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTANINDEX")
        with pytest.raises(ValueError, match="magic"):
            load_inverted_index(path)
