"""Per-(query, candidate) feature extraction and the blended feature layout.

`FeatureExtractor.feature_matrix` is the one feature representation: a
(candidates x features) float64 matrix whose columns follow the registry.
A model variant selects its columns with `make_mask(...).included`.

Each row concatenates, in this fixed order: the dense query vector (D
values), the dense document vector (D), their elementwise delta q - d (D),
the cosine similarity between the two (`ivf.cosine_scores`), the
candidate's rank under cosine ordering, and the lexical feature catalog
(L = 36 values). Total length is 3D + 2 + 36. `FeatureRegistry.spans`, one
slice per family in this order, is the layout's one definition: names,
families, masks and the columns `feature_matrix` writes derive from it.

The lexical catalog covers term-level statistics aggregated over query
terms (24); whole-match scores (BM25, Dirichlet language model), counts
and the tf-idf cosine (8); and positional proximity (4), each computed for
all candidates at once, with no loop over documents. Aggregation is over
unique query terms; query length counts tokens with duplicates.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .corpus import InvertedIndex, tokenize
from .embeddings import EmbeddingMatrix
from .ivf import cosine_scores, rank_order

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
    ]
)

LEXICAL_COUNT = len(DEFAULT_LEXICAL_NAMES)


FAMILIES = ("dense_query", "dense_doc", "dense_delta", "cosine", "rank", "lexical")
MASK_FAMILIES = {"full": FAMILIES, "lexical": ("rank", "lexical"), "dense": FAMILIES[:-1]}


@dataclass(frozen=True)
class FeatureRegistry:
    """Immutable layout map: feature id equals position in the blended vector."""

    dim: int
    lexical_names: tuple[str, ...]

    @property
    def lexical_count(self) -> int:
        return len(self.lexical_names)

    @cached_property
    def spans(self) -> dict[str, slice]:
        """Each family's slice of the vector, in layout order."""
        sizes = (self.dim, self.dim, self.dim, 1, 1, self.lexical_count)
        return {fam: slice(end - n, end)
                for fam, n, end in zip(FAMILIES, sizes, accumulate(sizes))}

    @property
    def total(self) -> int:
        return self.spans["lexical"].stop

    @property
    def rank_id(self) -> int:
        return self.spans["rank"].start

    def family(self, feature_id: int) -> str:
        for fam, span in self.spans.items():
            if span.start <= feature_id < span.stop:
                return fam
        raise ValueError(f"feature id {feature_id} is outside the {self.total}-feature vector")

    def name(self, feature_id: int) -> str:
        fam = self.family(feature_id)
        i = feature_id - self.spans[fam].start
        if fam == "lexical":
            return self.lexical_names[i]
        return fam if fam in ("cosine", "rank") else f"{fam}_{i}"

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
    """The variant's families' spans, in layout order (so the ids rise)."""
    if variant not in MASK_FAMILIES:
        raise ValueError(f"unknown mask variant {variant!r}")
    ids = [np.arange(span.start, span.stop, dtype=np.int64)
           for fam, span in registry.spans.items() if fam in MASK_FAMILIES[variant]]
    return FeatureMask(variant, np.concatenate(ids), registry.registry_hash)


class _QueryContext:
    """Per-query precomputation shared across candidate documents."""

    def __init__(self, index: InvertedIndex, query_tokens: list[str]):
        self.tokens = list(query_tokens)
        self.terms = sorted(set(self.tokens))
        self.postings = [index.postings.get(t) for t in self.terms]
        self.idf = [index.idf(t) for t in self.terms]
        self.cf = [index.cf.get(t, 0) for t in self.terms]
        self.query_weights = [self.tokens.count(t) * w for t, w in zip(self.terms, self.idf)]
        self.query_norm = math.sqrt(sum(w * w for w in self.query_weights))
        self.bigrams = list(zip(self.tokens, self.tokens[1:]))


def _positional_features(index: InvertedIndex, ctx: _QueryContext, match_pos: np.ndarray,
                         dl: np.ndarray, matched: np.ndarray, out: np.ndarray) -> None:
    """Fill the window, pair-distance, bigram and within-window columns.

    Each matched term's runs in all candidates become one sorted array of
    keys slot * stride + position. stride exceeds every position + 1, so
    key + 1 never crosses into the next slot, and two keys share a slot
    exactly when they share key // stride. All of it is integer arithmetic.
    """
    n = out.shape[0]
    stride = int(dl.max(initial=0.0)) + 1
    runs = {}  # term index -> (keys, slots, where each slot's run starts in keys)
    for t_i, (term, ks) in enumerate(zip(ctx.terms, match_pos)):
        slots = np.flatnonzero(ks >= 0)
        if slots.shape[0]:
            k = index.offsets[index.term_index[term]] + ks[slots]
            starts = index.run_starts[k]
            lens = index.run_starts[k + 1] - starts
            offsets = np.cumsum(lens) - lens
            idx = np.repeat(starts - offsets, lens) + np.arange(lens.sum())
            runs[t_i] = (np.repeat(slots * stride, lens) + index.positions[idx], slots, offsets)
    for ia, ib in ((ctx.terms.index(a), ctx.terms.index(b)) for a, b in ctx.bigrams):
        if ia in runs and ib in runs:
            ka, kb = runs[ia][0] + 1, runs[ib][0]
            nxt = kb[np.minimum(np.searchsorted(kb, ka), kb.shape[0] - 1)]
            out[:, 34] += np.bincount(ka[nxt == ka] // stride, minlength=n)

    out[:, 32] = dl + 1.0
    out[:, 33] = dl
    multi = matched >= 2
    if not multi.any():
        return
    far = np.iinfo(np.int64).max
    dist_sum, within = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    terms = list(runs.values())
    for i, (ka, slots, offsets) in enumerate(terms):
        sa = ka // stride
        for kb, _, _ in terms[i + 1:]:
            j = np.searchsorted(kb, ka)
            hi, lo = kb[np.minimum(j, kb.shape[0] - 1)], kb[np.maximum(j - 1, 0)]
            d = np.minimum.reduceat(np.minimum(np.where(hi // stride == sa, np.abs(hi - ka), far),
                                               np.where(lo // stride == sa, np.abs(lo - ka), far)),
                                    offsets)
            both = d < far
            dist_sum[slots[both]] += d[both]
            within[slots[both]] += d[both] <= PAIR_WINDOW
    out[multi, 33] = dist_sum[multi] / (matched * (matched - 1) / 2)[multi]
    out[multi, 35] = within[multi]

    # A cover from occurrence p reaches each of the document's terms at or after p.
    occ = np.sort(np.concatenate([k for k, _, _ in terms]))
    occ = occ[multi[occ // stride]]
    occ_slot = occ // stride
    window = np.ones_like(occ)
    for t_i, (kt, _, _) in runs.items():
        j = np.searchsorted(kt, occ)
        nxt = kt[np.minimum(j, kt.shape[0] - 1)]
        span = np.where((j < kt.shape[0]) & (nxt // stride == occ_slot), nxt - occ + 1,
                        np.where(match_pos[t_i, occ_slot] >= 0, far, 0))
        np.maximum(window, span, out=window)
    first = np.flatnonzero(np.concatenate(([True], occ_slot[1:] != occ_slot[:-1])))
    out[occ_slot[first], 32] = np.minimum.reduceat(window, first)


def _lexical_features_batch(index: InvertedIndex, ctx: _QueryContext,
                            doc_ids: np.ndarray) -> np.ndarray:
    """Vectorized catalog for many documents of one query.

    Term statistics and whole-match scores are computed as (terms x docs)
    arrays with the same elementwise operations as the per-document oracle
    in tests/lexical_oracle.py (term-order accumulation keeps the sums
    bitwise identical). The positional features read each matched posting's
    positions by its index (`match_pos`), found once per term.
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

    _positional_features(index, ctx, match_pos[:n_terms], dl, matched, out)
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
        cos = cosine_scores(np.asarray(q_vec, dtype=np.float64), self.embeddings.rows[doc_ids],
                            self.embeddings.norms[doc_ids])
        ranks = np.empty(len(doc_ids), dtype=np.int64)
        ranks[rank_order(-cos, doc_ids)] = np.arange(1, len(doc_ids) + 1)
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
        q = np.asarray(q_vec, dtype=np.float64)
        sel = doc_ids[needed]
        rows = self.embeddings.rows[sel].astype(np.float64)
        lexical = _lexical_features_batch(self.index, _QueryContext(self.index, query_tokens), sel)
        out = np.empty((len(needed), self.registry.total), dtype=np.float64)
        for span, part in zip(self.registry.spans.values(), (
                q, rows, q - rows, cos[needed, None], ranks[needed, None], lexical)):
            out[:, span] = part
        return out
