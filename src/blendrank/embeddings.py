"""Dense vector storage and the deterministic toy encoder.

Embeddings are produced offline by an external encoder and loaded from the
CREM2 binary format (f32 rows). The toy encoder is a seeded random
projection used for synthetic datasets and tests: good enough to carry a
"semantic" signal, with no neural runtime involved.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from .binformat import Format, SectionReader, write
from .corpus import tokenize

EMBEDDING_FORMAT = Format("CREM2", ("n_rows", "dim"),
                          (("rows", "<f4", lambda h: h["n_rows"] * h["dim"]),),
                          "convert-embeddings")


@dataclass
class EmbeddingMatrix:
    """Row-per-document matrix (f32 storage)."""

    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float32)
        if self.rows.ndim != 2:
            raise ValueError("embedding matrix must be 2-dimensional")
        if not np.isfinite(self.rows).all():
            raise ValueError("embedding matrix contains non-finite values")

    @functools.cached_property
    def norms(self) -> np.ndarray:
        """The rows' f64 norms, computed at first read; only cosine scoring reads them."""
        return np.linalg.norm(self.rows.astype(np.float64), axis=1)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def save_embeddings(matrix: EmbeddingMatrix | np.ndarray, path) -> None:
    rows = matrix.rows if isinstance(matrix, EmbeddingMatrix) else np.asarray(matrix, dtype=np.float32)
    write(path, EMBEDDING_FORMAT, {"n_rows": rows.shape[0], "dim": rows.shape[1]}, {"rows": rows})


def load_embeddings(path, expected_rows: int | None = None) -> EmbeddingMatrix:
    """Load a CREM2 file as a view of its bytes; the row count must be expected_rows."""
    r = SectionReader(path, EMBEDDING_FORMAT)
    n_rows, dim = r.header.values()
    if expected_rows is not None and n_rows != expected_rows:
        raise r.fail("header", f"gives {n_rows} rows; expected {expected_rows} rows")
    try:
        return EmbeddingMatrix(r.arrays["rows"].reshape(n_rows, dim))
    except ValueError:  # the rows are 2-d, so only a non-finite value fails
        raise r.fail("rows", "contains non-finite values") from None


@functools.lru_cache(maxsize=None)
def _token_vector(token: str, dim: int, seed: int) -> np.ndarray:
    """Fixed pseudo-random unit vector for (token, dim, seed), stable across runs."""
    digest = hashlib.blake2b(f"{seed}\x00{token}".encode("utf-8"), digest_size=8).digest()
    vec = np.random.default_rng(int.from_bytes(digest, "little")).standard_normal(dim)
    return vec / np.linalg.norm(vec)


def toy_encode(text: str, dim: int, seed: int) -> np.ndarray:
    """Deterministic bag-of-tokens random projection, L2-normalized.

    Each token maps to a fixed hashed unit vector; the output is the
    normalized sum over the token sequence. Empty input encodes to the
    zero vector.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    tokens = tokenize(text)
    out = np.zeros(dim, dtype=np.float64)
    for tok in tokens:
        out += _token_vector(tok, dim, seed)
    norm = np.linalg.norm(out)
    if norm > 0:
        out /= norm
    return out
