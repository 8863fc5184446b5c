"""Per-(query, candidate) feature extraction and the blended feature layout.

`FeatureExtractor.feature_matrix` is the one feature representation: a
(candidates x features) float64 matrix whose columns follow the registry.
A model variant selects its columns with `make_mask(...).included`.

Each row concatenates, in this fixed order: the dense query vector (D
values), the dense document vector (D), their elementwise delta q - d (D),
the cosine similarity between the two, the candidate's rank under cosine
ordering, and the lexical feature catalog (L values). Total length is
3D + 2 + L.

The lexical catalog covers term-level statistics aggregated over query
terms, whole-match scores (BM25, Dirichlet language model), and positional
proximity. Aggregation is over unique query terms; query length counts
tokens with duplicates.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .corpus import InvertedIndex, tokenize
from .embeddings import EmbeddingMatrix

BM25_K1 = 0.9
BM25_B = 0.4
LM_MU = 1000.0

PAIR_WINDOW = 8

_STATS = ("tf", "tf_norm", "idf", "tfidf", "bm25", "lm_dir")
_AGGS = ("sum", "min", "max", "mean")

DEFAULT_LEXICAL_NAMES = (
    [f"lex_{s}_{a}" for s in _STATS for a in _AGGS]
    + [
        "lex_bm25_total",
        "lex_lm_dir_total",
        "lex_query_len",
        "lex_doc_len",
        "lex_matched",
        "lex_matched_ratio",
        "lex_doc_unique_terms",
        "lex_tfidf_cosine",
        "lex_min_window",
        "lex_mean_min_pair_dist",
        "lex_ordered_bigrams",
        "lex_pairs_within_8",
        "lex_pad_0",
        "lex_pad_1",
        "lex_pad_2",
        "lex_pad_3",
    ]
)

LEXICAL_COUNT = len(DEFAULT_LEXICAL_NAMES)


@dataclass(frozen=True)
class FeatureRegistry:
    """Immutable layout map: feature id equals position in the blended vector."""

    dim: int
    lexical_names: tuple[str, ...]

    @property
    def lexical_count(self) -> int:
        return len(self.lexical_names)

    @property
    def total(self) -> int:
        return 3 * self.dim + 2 + self.lexical_count

    @property
    def rank_id(self) -> int:
        return 3 * self.dim + 1

    def name(self, feature_id: int) -> str:
        d = self.dim
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
        return self.lexical_names[feature_id - 3 * d - 2]

    def family(self, feature_id: int) -> str:
        d = self.dim
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

    @property
    def registry_hash(self) -> str:
        payload = f"{self.dim}|" + "|".join(self.lexical_names)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def build_registry(dim: int) -> FeatureRegistry:
    """Registry for dimension D over the lexical catalog."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return FeatureRegistry(dim, tuple(DEFAULT_LEXICAL_NAMES))


@dataclass
class FeatureMask:
    """Feature subset for a model variant: full, lexical (plus rank), or dense."""

    variant: str
    included: np.ndarray
    registry_hash: str


def make_mask(registry: FeatureRegistry, variant: str) -> FeatureMask:
    d = registry.dim
    if variant == "full":
        ids = np.arange(registry.total)
    elif variant == "lexical":
        ids = np.concatenate(([registry.rank_id],
                              np.arange(3 * d + 2, registry.total)))
    elif variant == "dense":
        ids = np.arange(3 * d + 2)
    else:
        raise ValueError(f"unknown mask variant {variant!r}")
    return FeatureMask(variant, np.sort(ids).astype(np.int64), registry.registry_hash)


class _QueryContext:
    """Per-query precomputation shared across candidate documents."""

    def __init__(self, index: InvertedIndex, query_tokens: list[str]):
        self.tokens = list(query_tokens)
        self.terms = sorted(set(self.tokens))
        self.postings = [index.posting(t) for t in self.terms]
        self.idf = [index.idf(t) for t in self.terms]
        self.cf = [index.cf.get(t, 0) for t in self.terms]
        qtf = {}
        for t in self.tokens:
            qtf[t] = qtf.get(t, 0) + 1
        self.query_weights = [qtf[t] * index.idf(t) for t in self.terms]
        self.query_norm = math.sqrt(sum(w * w for w in self.query_weights))
        self.bigrams = list(zip(self.tokens, self.tokens[1:]))


def _min_cover_window(position_lists: list[np.ndarray]) -> int:
    """Length of the shortest document span containing every term at least once."""
    merged = []
    for label, plist in enumerate(position_lists):
        merged.extend((int(p), label) for p in plist)
    merged.sort()
    need = len(position_lists)
    counts = [0] * need
    covered = 0
    best = -1
    left = 0
    for right in range(len(merged)):
        lab = merged[right][1]
        counts[lab] += 1
        if counts[lab] == 1:
            covered += 1
        while covered == need:
            span = merged[right][0] - merged[left][0] + 1
            if best < 0 or span < best:
                best = span
            lab_l = merged[left][1]
            counts[lab_l] -= 1
            if counts[lab_l] == 0:
                covered -= 1
            left += 1
    return best


def _min_pair_distance(a: np.ndarray, b: np.ndarray) -> int:
    """Minimum |pa - pb| over occurrence pairs of two sorted position arrays."""
    i = j = 0
    best = None
    while i < len(a) and j < len(b):
        d = abs(int(a[i]) - int(b[j]))
        if best is None or d < best:
            best = d
        if a[i] < b[j]:
            i += 1
        else:
            j += 1
    return best


def _proximity_triple(plists: list[np.ndarray], dl: int):
    """(min cover window, mean min pair distance, pairs within the window)."""
    matched = len(plists)
    if matched < 2:
        return float(dl + 1), float(dl), 0.0
    window = float(_min_cover_window(plists))
    dists = []
    within = 0
    for a in range(matched):
        for b in range(a + 1, matched):
            d = _min_pair_distance(plists[a], plists[b])
            dists.append(d)
            if d <= PAIR_WINDOW:
                within += 1
    return window, sum(dists) / len(dists), float(within)


def _lexical_features_batch(index: InvertedIndex, ctx: _QueryContext,
                            doc_ids: np.ndarray) -> np.ndarray:
    """Vectorized catalog for many documents of one query.

    Term statistics and whole-match scores are computed as (terms x docs)
    arrays with the same elementwise operations as the per-document oracle
    in tests/lexical_oracle.py (term-order accumulation keeps the sums
    bitwise identical); only the
    positional features loop over documents, and only over those with at
    least two matched terms or a matched bigram. They read each matched
    posting's positions by its index (`match_pos`), found once per term.
    """
    n = doc_ids.shape[0]
    out = np.zeros((n, LEXICAL_COUNT), dtype=np.float64)
    n_terms = len(ctx.terms)
    dl = index.doc_len[doc_ids].astype(np.float64)
    avgdl = index.avg_doc_len
    norm_len = (1.0 - BM25_B + BM25_B * (dl / avgdl)) if avgdl > 0 \
        else np.ones(n)
    dl_safe = np.where(dl > 0, dl, 1.0)

    tf = np.zeros((max(n_terms, 1), n), dtype=np.float64)
    match_pos = np.full((max(n_terms, 1), n), -1, dtype=np.int64)
    for t_i in range(n_terms):
        posting = ctx.postings[t_i]
        if posting is None:
            continue
        ids, pfs, _ = posting
        k = np.searchsorted(ids, doc_ids)
        k_safe = np.minimum(k, ids.shape[0] - 1)
        hit = ids[k_safe] == doc_ids
        tf[t_i, hit] = pfs[k_safe[hit]]
        match_pos[t_i, hit] = k_safe[hit]

    if n_terms:
        idf = np.array(ctx.idf)[:, None]
        cf = np.array(ctx.cf, dtype=np.float64)[:, None]
        tf_norm = np.where(dl[None, :] > 0, tf / dl_safe[None, :], 0.0)
        tfidf = tf * idf
        bm25 = np.where(tf > 0, idf * tf / (tf + BM25_K1 * norm_len[None, :]), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            # cf == 0 lanes produce log(0), or 0/0 when every document is
            # empty, and are discarded by the where.
            lm = np.where(cf > 0,
                          np.log((tf + LM_MU * cf / index.total_tokens)
                                 / (dl[None, :] + LM_MU)),
                          0.0)
        idf_rows = np.broadcast_to(idf, tf.shape)
        for k, stat in enumerate((tf, tf_norm, idf_rows, tfidf, bm25, lm)):
            total = stat[0].copy()
            for row in stat[1:]:
                total += row
            out[:, 4 * k] = total
            out[:, 4 * k + 1] = stat.min(axis=0)
            out[:, 4 * k + 2] = stat.max(axis=0)
            out[:, 4 * k + 3] = total / n_terms
        qw = np.array(ctx.query_weights)
        dot = qw[0] * tfidf[0]
        for t_i in range(1, n_terms):
            dot = dot + qw[t_i] * tfidf[t_i]
        matched = (tf > 0).sum(axis=0).astype(np.float64)
    else:
        dot = np.zeros(n)
        matched = np.zeros(n)

    out[:, 24] = out[:, 16]
    out[:, 25] = out[:, 20]
    out[:, 26] = float(len(ctx.tokens))
    out[:, 27] = dl
    out[:, 28] = matched
    out[:, 29] = matched / n_terms if n_terms else 0.0
    out[:, 30] = index.unique_terms[doc_ids]
    doc_norm = index.tfidf_norm[doc_ids]
    denom_ok = (ctx.query_norm > 0) & (doc_norm > 0)
    out[denom_ok, 31] = dot[denom_ok] / (ctx.query_norm * doc_norm[denom_ok])

    out[:, 32] = dl + 1.0
    out[:, 33] = dl
    for r in np.flatnonzero(matched >= 2):
        plists = [index.run(term, k) for term, k in zip(ctx.terms, match_pos[:, r]) if k >= 0]
        out[r, 32], out[r, 33], out[r, 35] = _proximity_triple(plists, int(dl[r]))
    if ctx.bigrams:
        term_pos = {t: i for i, t in enumerate(ctx.terms)}
        pairs = [(term_pos[a_tok], term_pos[b_tok]) for a_tok, b_tok in ctx.bigrams]
        maybe = np.zeros(n, dtype=bool)
        for ia, ib in pairs:
            maybe |= (match_pos[ia] >= 0) & (match_pos[ib] >= 0)
        for r in np.flatnonzero(maybe):
            hits = 0
            for ia, ib in pairs:
                ka, kb = match_pos[ia, r], match_pos[ib, r]
                if ka >= 0 and kb >= 0:
                    hits += np.intersect1d(index.run(ctx.terms[ia], ka) + 1,
                                           index.run(ctx.terms[ib], kb)).shape[0]
            out[r, 34] = float(hits)
    return out


class FeatureExtractor:
    """Bundles the lexical index, embeddings, and registry for extraction."""

    def __init__(self, index: InvertedIndex, embeddings: EmbeddingMatrix):
        self.index = index
        self.embeddings = embeddings
        self.registry = build_registry(embeddings.dim)

    def tokenize_query(self, text: str) -> list[str]:
        return tokenize(text, stem=self.index.stemmed)

    def cosine_ranks(self, q_vec: np.ndarray, doc_ids: np.ndarray):
        """Cosines against q and 1-based ranks under (cosine desc, id asc)."""
        q = np.asarray(q_vec, dtype=np.float64)
        rows = self.embeddings.rows[doc_ids]
        norms = self.embeddings.norms[doc_ids]
        qn = np.linalg.norm(q)
        cos = np.zeros(len(doc_ids), dtype=np.float64)
        if qn > 0:
            nz = norms > 0
            cos[nz] = (rows[nz] @ q) / (norms[nz] * qn)
        order = np.lexsort((doc_ids, -cos))
        ranks = np.empty(len(doc_ids), dtype=np.int64)
        ranks[order] = np.arange(1, len(doc_ids) + 1)
        return cos, ranks

    def feature_matrix(self, query_tokens: list[str], q_vec: np.ndarray,
                       doc_ids: np.ndarray, needed: np.ndarray | None = None) -> np.ndarray:
        """Blended vectors for candidates as a matrix.

        Cosine ranks are computed over the whole candidate list; rows are
        materialized only for `needed` positions (default: all).
        """
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        cos, ranks = self.cosine_ranks(q_vec, doc_ids)
        if needed is None:
            needed = np.arange(len(doc_ids))
        ctx = _QueryContext(self.index, query_tokens)
        d = self.registry.dim
        q = np.asarray(q_vec, dtype=np.float64)
        out = np.empty((len(needed), self.registry.total), dtype=np.float64)
        sel = doc_ids[needed]
        rows = self.embeddings.rows[sel].astype(np.float64)
        out[:, :d] = q
        out[:, d:2 * d] = rows
        out[:, 2 * d:3 * d] = q - rows
        out[:, 3 * d] = cos[needed]
        out[:, 3 * d + 1] = ranks[needed].astype(np.float64)
        out[:, 3 * d + 2:] = _lexical_features_batch(self.index, ctx, sel)
        return out
