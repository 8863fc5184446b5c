"""Embedding storage and toy encoder tests."""

import re

import numpy as np
import pytest

from blendrank.corpus import Corpus, build_inverted_index
from blendrank.embeddings import (EmbeddingMatrix, load_embeddings,
                                  save_embeddings, toy_encode)
from blendrank.features import FeatureExtractor


def served_cosine(q, d) -> float:
    """The cosine feature the cascade computes between a query vector and
    one stored (f32) document row."""
    rows = np.asarray([d], dtype=np.float32)
    ex = FeatureExtractor(build_inverted_index(Corpus(["d0"], ["x"])), EmbeddingMatrix(rows))
    cos, _ = ex.cosine_ranks(np.asarray(q, dtype=np.float64), np.array([0]))
    return float(cos[0])


class TestStorage:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(5, 7)).astype(np.float32)
        path = tmp_path / "e.crem"
        save_embeddings(EmbeddingMatrix(rows), path)
        loaded = load_embeddings(path, expected_rows=5)
        assert loaded.rows.tobytes() == rows.tobytes()
        save_embeddings(loaded, tmp_path / "e2.crem")
        assert (tmp_path / "e2.crem").read_bytes() == path.read_bytes()

    def test_shape_from_header(self, tmp_path):
        path = tmp_path / "e.crem"
        save_embeddings(np.arange(8, dtype=np.float32).reshape(2, 4), path)
        m = load_embeddings(path)
        assert m.rows.shape == (2, 4)

    def test_expected_rows_mismatch(self, tmp_path):
        path = tmp_path / "e.crem"
        save_embeddings(np.zeros((3, 4), dtype=np.float32), path)
        with pytest.raises(ValueError, match="expected 2 rows"):
            load_embeddings(path, expected_rows=2)

    def test_nan_payload_rejected(self, tmp_path):
        path = tmp_path / "e.crem"
        save_embeddings(np.array([[1.0, np.nan]], dtype=np.float32), path)
        with pytest.raises(ValueError, match=re.escape(f"{path}: rows section contains non-finite")):
            load_embeddings(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "e.crem"
        save_embeddings(np.ones((2, 2), dtype=np.float32), path)
        # magic 8, header 16 + CRC 4 + padding 4, then 4 of the rows' 16 bytes
        path.write_bytes(path.read_bytes()[:8 + 24 + 4])
        with pytest.raises(ValueError, match=re.escape(f"{path}: rows section truncated")):
            load_embeddings(path)

    def test_norms_cached(self):
        m = EmbeddingMatrix(np.array([[3.0, 4.0], [0.0, 0.0]], dtype=np.float32))
        np.testing.assert_allclose(m.norms, [5.0, 0.0], atol=1e-9)

    def test_norms_computed_at_first_read(self, tmp_path):
        rows = np.random.default_rng(3).normal(size=(6, 4)).astype(np.float32)
        save_embeddings(EmbeddingMatrix(rows), tmp_path / "e.crem")
        m = load_embeddings(tmp_path / "e.crem")
        assert "norms" not in vars(m)
        want = np.linalg.norm(rows.astype(np.float64), axis=1)
        assert m.norms.tobytes() == want.tobytes() and m.norms is m.norms


class TestToyEncode:
    def test_deterministic(self):
        a = toy_encode("the quick brown fox", 16, 3)
        b = toy_encode("the quick brown fox", 16, 3)
        np.testing.assert_array_equal(a, b)

    def test_empty_is_zero_vector(self):
        v = toy_encode("", 8, 0)
        assert v.shape == (8,)
        assert np.all(v == 0.0)

    def test_unit_norm(self):
        rng = np.random.default_rng(9)
        words = [f"w{i}" for i in range(30)]
        for _ in range(25):
            text = " ".join(rng.choice(words, size=rng.integers(1, 10)))
            assert abs(np.linalg.norm(toy_encode(text, 24, 5)) - 1.0) < 1e-9

    def test_shared_token_raises_cosine(self):
        # One shared token ("a") must make "a b" closer to "a c" than to "x y".
        ab = toy_encode("a b", 64, 7)
        ac = toy_encode("a c", 64, 7)
        xy = toy_encode("x y", 64, 7)
        def cos(u, v):
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        assert cos(ab, ac) > cos(ab, xy)

    def test_seed_changes_encoding(self):
        assert not np.allclose(toy_encode("abc", 16, 1), toy_encode("abc", 16, 2))


class TestCosine:
    """The served cosine (`FeatureExtractor.cosine_ranks`) in f64 over f32 rows."""

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = rng.normal(size=6).astype(np.float32)
            assert abs(served_cosine(v, v) - 1.0) < 1e-12

    def test_orthogonal(self):
        assert served_cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_analytic_45_degrees(self):
        got = served_cosine([1.0, 1.0], [1.0, 0.0])
        assert abs(got - 0.7071067812) < 1e-9

    def test_zero_vector_gives_zero(self):
        assert served_cosine(np.zeros(3), np.ones(3)) == 0.0
        assert served_cosine(np.ones(3), np.zeros(3)) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            served_cosine(np.ones(4), np.ones(3))
