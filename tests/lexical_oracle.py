"""Per-document lexical feature oracle.

A plain loop over one (query, document) pair at a time. The vectorized
`features._lexical_features_batch` that serving uses must agree with it
bit for bit; the tests compare the two. Not a test module itself.
"""

import numpy as np

from blendrank.corpus import InvertedIndex
from blendrank.features import (BM25_B, BM25_K1, LEXICAL_COUNT, LM_MU, PAIR_WINDOW,
                                _QueryContext)


def posting_run(index: InvertedIndex, term: str, k: int) -> np.ndarray:
    """The sorted positions of the term's k-th posting."""
    k += index.offsets[index.term_index[term]]
    return index.positions[index.run_starts[k]:index.run_starts[k + 1]]


def positions(index: InvertedIndex, term: str, internal_id: int) -> np.ndarray:
    """The term's sorted positions in one document; empty when absent."""
    p = index.postings.get(term)
    if p is not None:
        k = int(np.searchsorted(p[0], internal_id))
        if k < p[0].shape[0] and p[0][k] == internal_id:
            return posting_run(index, term, k)
    return np.empty(0, dtype=np.int32)


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


def _bigram_hits(index: InvertedIndex, ctx: _QueryContext, internal_id: int) -> float:
    hits = 0
    for a_tok, b_tok in ctx.bigrams:
        pa = positions(index, a_tok, internal_id)
        pb = positions(index, b_tok, internal_id)
        if len(pa) and len(pb):
            hits += int(np.intersect1d(pa + 1, pb).shape[0])
    return float(hits)


def extract_lexical(index: InvertedIndex, query_tokens: list[str],
                    internal_id: int) -> np.ndarray:
    """Compute the lexical catalog for one (query, document) pair."""
    ctx = _QueryContext(index, query_tokens)
    return lexical_features(index, ctx, internal_id)


def lexical_features(index: InvertedIndex, ctx: _QueryContext,
                     internal_id: int) -> np.ndarray:
    """The catalog for one document under a prepared query context."""
    out = np.zeros(LEXICAL_COUNT, dtype=np.float64)
    dl = int(index.doc_len[internal_id])
    avgdl = index.avg_doc_len
    total_tokens = index.total_tokens
    norm_len = 1.0 - BM25_B + BM25_B * (dl / avgdl) if avgdl > 0 else 1.0

    n_terms = len(ctx.terms)
    tfs, tf_norms, idfs, tfidfs, bm25s, lms = [], [], [], [], [], []
    matched_positions = []
    tfidf_dot = 0.0
    for t_i in range(n_terms):
        posting = ctx.postings[t_i]
        tf = 0
        positions = None
        if posting is not None:
            ids, pfs, _ = posting
            k = int(np.searchsorted(ids, internal_id))
            if k < ids.shape[0] and ids[k] == internal_id:
                tf = int(pfs[k])
                positions = posting_run(index, ctx.terms[t_i], k)
        idf = ctx.idf[t_i]
        cf = ctx.cf[t_i]
        tf_f = float(tf)
        tfs.append(tf_f)
        tf_norms.append(tf_f / dl if dl else 0.0)
        idfs.append(idf)
        tfidfs.append(tf_f * idf)
        bm25s.append(idf * tf_f / (tf_f + BM25_K1 * norm_len) if tf else 0.0)
        lms.append(float(np.log((tf_f + LM_MU * cf / total_tokens) / (dl + LM_MU)))
                   if cf > 0 else 0.0)
        if tf:
            matched_positions.append((t_i, positions))
            tfidf_dot += ctx.query_weights[t_i] * (tf_f * idf)

    k = 0
    for stat in (tfs, tf_norms, idfs, tfidfs, bm25s, lms):
        if n_terms:
            total = 0.0
            for v in stat:
                total += v
            out[k] = total
            out[k + 1] = min(stat)
            out[k + 2] = max(stat)
            out[k + 3] = total / n_terms
        k += 4

    matched = len(matched_positions)
    out[24] = out[16]
    out[25] = out[20]
    out[26] = float(len(ctx.tokens))
    out[27] = float(dl)
    out[28] = float(matched)
    out[29] = matched / n_terms if n_terms else 0.0
    out[30] = float(index.unique_terms[internal_id])
    doc_norm = float(index.tfidf_norm[internal_id])
    if ctx.query_norm > 0 and doc_norm > 0:
        out[31] = tfidf_dot / (ctx.query_norm * doc_norm)

    out[32], out[33], out[35] = _proximity_triple(
        [p for _, p in matched_positions], dl)
    out[34] = _bigram_hits(index, ctx, internal_id)
    return out
