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

Most of a call's cost is fixed per query, so the batch path keeps the number
of array operations small: the six term statistics are one (statistic x term
x candidate) block, reduced once for their min and max; the catalog is
written straight into the lexical span of the feature matrix; and the
positional features sort every matched occurrence once and read all terms
and term pairs from it, with no loop over them.
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


_FAR = 2 ** 62  # beyond every key, and far enough from 0 that no distance wraps


class _QueryContext:
    """Per-query precomputation shared across candidate documents."""

    def __init__(self, index: InvertedIndex, query_tokens: list[str]):
        self.index = index
        self.tokens = list(query_tokens)
        self.terms = sorted(set(self.tokens))
        self.idf = [index.idf(t) for t in self.terms]
        self.cf = [index.cf.get(t, 0) for t in self.terms]
        self.query_weights = [self.tokens.count(t) * w for t, w in zip(self.terms, self.idf)]
        self.query_norm = math.sqrt(sum(w * w for w in self.query_weights))
        self.bigrams = list(zip(self.tokens, self.tokens[1:]))
        # For the batch path: each term's postings as a range of the index's flat
        # arrays (None when unseen), and how often each (term, next term) bigram occurs.
        o, rows = index.offsets, [index.term_index.get(t) for t in self.terms]
        self.ranges = [(int(o[r]), int(o[r + 1])) if r is not None else None for r in rows]
        at = {t: i for i, t in enumerate(self.terms)}
        self.bigram_counts = np.zeros((len(self.terms), len(self.terms)))
        for a, b in self.bigrams:
            self.bigram_counts[at[a], at[b]] += 1

    @cached_property
    def postings(self) -> list:
        """Each term's (ids, tfs, positions), or None when unseen."""
        return [self.index.postings.get(t) for t in self.terms]


def _positional_features(index: InvertedIndex, ctx: _QueryContext, found: np.ndarray,
                         hit: np.ndarray, dl: np.ndarray, matched: np.ndarray,
                         out: np.ndarray) -> None:
    """Fill the window, pair-distance, bigram and within-window columns.

    `found[t, j]` is the flat index of term t's posting in candidate j, where
    `hit[t, j]`. Every matched occurrence gets the key slot * stride +
    position. stride is more than twice the longest candidate, so key + 1
    never crosses into the next slot, two keys share a slot exactly when they
    share key // stride, and a gap between slots exceeds every gap within one.
    Sorted by key, the occurrences of every term are read together, with no
    loop over terms or term pairs. All of it is integer arithmetic.
    """
    n = out.shape[0]
    out[:, 32] = dl + 1.0
    out[:, 33] = dl
    multi = matched >= 2
    some_multi = multi.any()
    if not (ctx.bigrams or some_multi):
        return
    term, slot = np.nonzero(hit)  # one entry per matched (term, candidate), term-major
    if not term.shape[0]:
        return
    k = found[hit]
    starts = index.run_starts[k]
    lens = index.run_starts[k + 1] - starts
    seg = np.cumsum(lens) - lens  # where each entry's occurrences begin
    run = np.repeat(starts - seg, lens)
    stride = 2 * int(dl.max()) + 1
    key = np.repeat(slot * stride, lens) + index.positions[run + np.arange(run.shape[0])]
    # Sorted by key (each term's keys are one sorted run already); `order` maps
    # each sorted place back to its place in entry order.
    order = np.argsort(key, kind="stable")
    key = key[order]
    occ_term, occ_slot = np.repeat(term, lens)[order], key // stride

    # A bigram hit is an occurrence followed at the next position by the bigram's second term.
    if ctx.bigrams:
        follows = np.flatnonzero(key[1:] == key[:-1] + 1)
        out[:, 34] = np.bincount(occ_slot[follows], minlength=n,
                                 weights=ctx.bigram_counts[occ_term[follows],
                                                           occ_term[follows + 1]])
    if not some_multi:
        return

    # Each occurrence's nearest occurrence of every term at or after it and at or
    # before it. Where the term occurs in the candidate, the nearest is in it.
    terms = np.arange(hit.shape[0])[:, None]
    is_t = occ_term == terms
    nxt = np.minimum.accumulate(np.where(is_t, key, _FAR)[:, ::-1], axis=1)[:, ::-1]
    prv = np.maximum.accumulate(np.where(is_t, key, -_FAR), axis=1)

    # d[t, e]: the least distance from entry e's occurrences to term t. Where t
    # occurs in e's candidate, that is the pair's minimum distance.
    near = np.empty_like(nxt)
    near[:, order] = np.minimum(nxt - key, key - prv)
    d = np.minimum.reduceat(near, seg, axis=1)
    pair = (terms > term) & hit[:, slot]
    dist_sum = np.bincount(slot, weights=np.where(pair, d, 0).sum(axis=0), minlength=n)
    within = np.bincount(slot, weights=(pair & (d <= PAIR_WINDOW)).sum(axis=0), minlength=n)
    np.divide(dist_sum, matched * (matched - 1) / 2, out=out[:, 33], where=multi)
    np.copyto(out[:, 35], within, where=multi)

    # A cover from occurrence p reaches each of the candidate's terms at or after
    # p. Where some term has no occurrence after p, its next one lies in a later
    # candidate or nowhere, and the span exceeds every cover within a candidate.
    # The candidate's first occurrence always starts a cover, so the minimum is one.
    window = np.where(hit[:, occ_slot], nxt - key + 1, 0).max(axis=0)
    first = np.flatnonzero(np.concatenate(([True], occ_slot[1:] != occ_slot[:-1])))
    cover = np.zeros(n, dtype=np.int64)
    cover[occ_slot[first]] = np.minimum.reduceat(window, first)
    np.copyto(out[:, 32], cover, where=multi)


def _lexical_features_batch(index: InvertedIndex, ctx: _QueryContext, doc_ids: np.ndarray,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized catalog for many documents of one query, written into `out`
    (n x LEXICAL_COUNT, for example the lexical span of a feature matrix) or a
    new matrix, and returned.

    The six term statistics are one (statistic x term x document) block,
    computed with the same elementwise operations as the per-document oracle in
    tests/lexical_oracle.py. Its sums add the term rows one at a time in term
    order, as the oracle does, so they are bitwise identical; a reduction along
    the term axis would sum pairwise once there are 8 terms. The positional
    features read each matched posting's positions by its flat index (`found`),
    found once per term.
    """
    n = doc_ids.shape[0]
    if out is None:
        out = np.zeros((n, LEXICAL_COUNT), dtype=np.float64)
    else:
        out[...] = 0.0
    n_terms = len(ctx.terms)
    dl = index.doc_len[doc_ids].astype(np.float64)
    out[:, 26] = float(len(ctx.tokens))
    out[:, 27] = dl
    out[:, 30] = index.unique_terms[doc_ids]
    matched = np.zeros(n)
    found = np.zeros((n_terms, n), dtype=np.int64)
    hit = np.zeros((n_terms, n), dtype=bool)
    if n_terms:
        stats = np.zeros((6, n_terms, n), dtype=np.float64)
        tf, tf_norm, idf_rows, tfidf, bm25, lm = stats
        if any(ctx.ranges):
            for t_i, span in enumerate(ctx.ranges):
                if span is not None:
                    a, b = span
                    np.minimum(index.ids[a:b].searchsorted(doc_ids) + a, b - 1, out=found[t_i])
            np.equal(index.ids[found], doc_ids, out=hit)
            if not all(ctx.ranges):  # an unseen term's row compared against posting 0
                hit[[t_i for t_i, span in enumerate(ctx.ranges) if span is None]] = False
            np.copyto(tf, index.tfs[found], where=hit)
        idf = np.array(ctx.idf)[:, None]
        np.divide(tf, np.maximum(dl, 1.0), out=tf_norm)  # tf is 0 where dl is
        idf_rows[...] = idf
        np.multiply(tf, idf, out=tfidf)
        avgdl = index.avg_doc_len
        norm_len = 1.0 - BM25_B + BM25_B * (dl / avgdl) if avgdl > 0 else 1.0
        np.divide(tfidf, tf + BM25_K1 * norm_len, out=bm25, where=hit)  # every tf is >= 1
        # A cf == 0 row would take log(0); it stays 0.
        live = [t_i for t_i, c in enumerate(ctx.cf) if c > 0]
        if live:
            cf = np.array(ctx.cf, dtype=np.float64)[live, None]
            lm[live] = np.log((tf[live] + LM_MU * cf / index.total_tokens) / (dl + LM_MU))
        total = stats[:, 0].copy()
        for t_i in range(1, n_terms):
            total += stats[:, t_i]
        out[:, 0:24:4] = total.T
        out[:, 1:24:4] = np.minimum.reduce(stats, axis=1).T
        out[:, 2:24:4] = np.maximum.reduce(stats, axis=1).T
        out[:, 3:24:4] = (total / n_terms).T
        out[:, 24:26] = total[4:].T
        weighted = np.array(ctx.query_weights)[:, None] * tfidf
        dot = weighted[0]
        for t_i in range(1, n_terms):
            dot = dot + weighted[t_i]
        matched = np.add.reduce(hit, axis=0, dtype=np.float64)
        out[:, 28] = matched
        out[:, 29] = matched / n_terms
        if ctx.query_norm > 0:
            doc_norm = index.tfidf_norm[doc_ids]
            np.divide(dot, ctx.query_norm * doc_norm, out=out[:, 31], where=doc_norm > 0)
    _positional_features(index, ctx, found, hit, dl, matched, out)
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
        materialized only for `needed` positions (default: all). Each family
        is written straight into its span of the one output matrix.
        """
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        cos, ranks = self.cosine_ranks(q_vec, doc_ids)
        if needed is not None:
            doc_ids, cos, ranks = doc_ids[needed], cos[needed], ranks[needed]
        sp = self.registry.spans
        out = np.empty((doc_ids.shape[0], self.registry.total), dtype=np.float64)
        q = np.asarray(q_vec, dtype=np.float64)
        out[:, sp["dense_query"]] = q
        doc = out[:, sp["dense_doc"]]
        doc[...] = self.embeddings.rows[doc_ids]
        np.subtract(q, doc, out=out[:, sp["dense_delta"]])
        out[:, sp["cosine"]] = cos[:, None]
        out[:, sp["rank"]] = ranks[:, None]
        _lexical_features_batch(self.index, _QueryContext(self.index, query_tokens), doc_ids,
                                out[:, sp["lexical"]])
        return out
