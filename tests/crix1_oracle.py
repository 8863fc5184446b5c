"""Term-by-term CRIX1 loader and index-statistics oracle.

The CRIX1 loader and the `InvertedIndex` statistics as they ran before the
index became one flat layout: one checked copy of each term's ids, tfs and
positions, each checked on its own, and one pass over the terms for df, cf,
unique_terms and tfidf_norm. The flat loader and index must agree with it
bit for bit, and raise where it raises; the tests compare the two. Not a
test module itself.
"""

import numpy as np

from blendrank.binformat import SectionReader
from blendrank.corpus import INDEX_MAGIC

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
    r = SectionReader(path, INDEX_MAGIC)
    stemmed, n_docs, total_tokens = r.fields("header", "<BIQ")
    if stemmed > 1:
        raise r.fail("header", f"has stemmed flag {stemmed}, not 0 or 1")
    doc_len = r.array("doc_len", "<i8", n_docs)
    if np.any((doc_len < 0) | (doc_len > _MAX_DOC_LEN)) or int(doc_len.sum()) != total_tokens:
        raise r.fail("doc_len", f"must lie in 0..{_MAX_DOC_LEN} and sum to the "
                                f"header's total_tokens {total_tokens}")
    (n_terms,) = r.fields("term count", "<I")
    postings = {}
    doc_tokens = np.zeros(n_docs, dtype=np.int64)
    prev = None
    for _ in range(n_terms):
        term_len, df = r.fields("term header", "<HI")
        try:
            term = r.raw("term", term_len).decode("utf-8")
        except UnicodeDecodeError:
            raise r.fail("term", "is not UTF-8") from None
        if prev is not None and term <= prev:
            raise r.fail("term", f"{term!r} does not sort after {prev!r}")
        prev = term
        ids = r.array("ids", "<i8", df)
        if df == 0 or ids[0] < 0 or ids[-1] >= n_docs or np.any(ids[1:] <= ids[:-1]):
            raise r.fail("ids", f"of {term!r} must strictly increase within 0..{n_docs - 1}")
        tfs = r.array("tfs", "<i8", df)
        if np.any((tfs < 1) | (tfs > doc_len[ids])):
            raise r.fail("tfs", f"of {term!r} must lie in 1..doc_len")
        pos = r.array("positions", "<i4", int(tfs.sum()))
        rises = pos[1:] > pos[:-1]
        rises[(np.cumsum(tfs) - 1)[:-1]] = True  # a new run may start lower
        if pos.min() < 0 or np.any(pos >= np.repeat(doc_len[ids], tfs)) or not rises.all():
            raise r.fail("positions", f"of {term!r} must strictly increase within "
                                      "each posting and lie in 0..doc_len-1")
        doc_tokens[ids] += tfs
        postings[term] = (ids, tfs, pos)
    r.end()
    if not np.array_equal(doc_tokens, doc_len):
        raise r.fail("doc_len", "does not equal each document's position total")
    return OracleIndex(postings, doc_len, stemmed=bool(stemmed))
