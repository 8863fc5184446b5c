"""Term-by-term CRIX2 reader and index-statistics oracle.

The CRIX2 checks and the `InvertedIndex` statistics written the slow way:
one copy of each term's ids, tfs and positions, each checked on its own, and
one pass over the terms for df, cf, unique_terms and tfidf_norm. Sections are
checked in file order and, within one, term by term, so the first faulty
term of the first faulty section is named. The fast loader and index must
agree with it bit for bit, and raise where it raises with the same text; the
tests compare the two. Not a test module itself.
"""

import numpy as np

from blendrank.binformat import SectionReader
from blendrank.corpus import INDEX_FORMAT

_MAX_DOC_LEN = int(np.iinfo(np.int32).max)


class OracleIndex:
    """postings maps term -> (ids, tfs, positions), one set of arrays per term."""

    def __init__(self, postings: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
                 doc_len: np.ndarray, stemmed: bool = False):
        self.postings = postings
        self.doc_len = np.asarray(doc_len, dtype=np.int64)
        self.stemmed = stemmed
        self.n_docs = int(self.doc_len.shape[0])
        self.total_tokens = int(self.doc_len.sum())
        self.df = {t: int(p[0].shape[0]) for t, p in postings.items()}
        self.cf = {t: int(p[1].sum()) for t, p in postings.items()}
        self.unique_terms = np.zeros(self.n_docs, dtype=np.int64)
        sq_norm = np.zeros(self.n_docs, dtype=np.float64)
        for term in sorted(postings):
            ids, tfs, _ = postings[term]
            self.unique_terms[ids] += 1
            idf = self.idf(term)
            w = tfs.astype(np.float64) * idf
            sq_norm[ids] += w * w
        self.tfidf_norm = np.sqrt(sq_norm)

    def idf(self, term: str) -> float:
        df = self.df.get(term, 0)
        return float(np.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0))


def load_inverted_index(path) -> OracleIndex:
    r = SectionReader(path, INDEX_FORMAT)
    h, a = r.header, r.arrays
    n, n_postings = h["n_docs"], h["n_postings"]
    if h["stemmed"] > 1:
        raise r.fail("header", f"has stemmed flag {h['stemmed']}, not 0 or 1")
    doc_len = a["doc_len"].copy()
    if np.any((doc_len < 0) | (doc_len > _MAX_DOC_LEN)) or int(doc_len.sum()) != h["total_tokens"]:
        raise r.fail("doc_len", f"must lie in 0..{_MAX_DOC_LEN} and sum to the "
                                f"header's total_tokens {h['total_tokens']}")
    bounds = a["term_offsets"].tolist()
    if bounds[0] != 0 or bounds[-1] != h["term_bytes"] or bounds != sorted(bounds):
        raise r.fail("term_offsets", f"must run from 0 to term_bytes={h['term_bytes']} "
                                     "without decreasing")
    dfs = a["df"].tolist()
    if not all(1 <= df <= n_postings for df in dfs) or sum(dfs) != n_postings:
        raise r.fail("df", f"must lie in 1..n_postings and sum to n_postings={n_postings}")
    raw, terms = a["term"].tobytes(), []
    for start, end in zip(bounds, bounds[1:]):
        try:
            term = raw[start:end].decode("utf-8")
        except UnicodeDecodeError:
            raise r.fail("term", f"is not UTF-8 at term {len(terms)}") from None
        if terms and term <= terms[-1]:
            raise r.fail("term", f"{term!r} does not sort after {terms[-1]!r}")
        terms.append(term)
    spans = np.cumsum([0] + dfs).tolist()
    ids = [a["ids"][s:e].copy() for s, e in zip(spans, spans[1:])]
    tfs = [a["tfs"][s:e].copy() for s, e in zip(spans, spans[1:])]
    for term, t_ids in zip(terms, ids):
        if t_ids[0] < 0 or t_ids[-1] >= n or np.any(t_ids[1:] <= t_ids[:-1]):
            raise r.fail("ids", f"of {term!r} must strictly increase within 0..{n - 1}")
    for term, t_ids, t_tfs in zip(terms, ids, tfs):
        if np.any((t_tfs < 1) | (t_tfs > doc_len[t_ids])):
            raise r.fail("tfs", f"of {term!r} must lie in 1..doc_len")
    n_positions = int(sum(t.sum() for t in tfs))
    if n_positions != h["n_positions"]:
        raise r.fail("tfs", f"sum to {n_positions}, not the header's n_positions "
                            f"{h['n_positions']}")
    postings, at = {}, 0
    doc_tokens = np.zeros(n, dtype=np.int64)
    for term, t_ids, t_tfs in zip(terms, ids, tfs):
        pos = a["positions"][at:at + int(t_tfs.sum())].copy()
        at += pos.shape[0]
        rises = pos[1:] > pos[:-1]
        rises[(np.cumsum(t_tfs) - 1)[:-1]] = True  # a new run may start lower
        if pos.min() < 0 or np.any(pos >= np.repeat(doc_len[t_ids], t_tfs)) or not rises.all():
            raise r.fail("positions", f"of {term!r} must strictly increase within "
                                      "each posting and lie in 0..doc_len-1")
        doc_tokens[t_ids] += t_tfs
        postings[term] = (t_ids, t_tfs, pos)
    if not np.array_equal(doc_tokens, doc_len):
        raise r.fail("doc_len", "does not equal each document's position total")
    return OracleIndex(postings, doc_len, stemmed=bool(h["stemmed"]))
