"""Collection ingestion, tokenization, and the positional inverted index.

The inverted index is the statistics substrate for all lexical features:
per-term postings with positions, document lengths, and collection-level
counts (df, cf, total tokens).
"""

from __future__ import annotations

import functools
import io
import re
import struct
from dataclasses import dataclass, field

import numpy as np

from .binformat import SectionReader

INDEX_MAGIC = b"CRIX1"
_MAX_DOC_LEN = int(np.iinfo(np.int32).max)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

_VOWELS = set("aeiou")


@functools.lru_cache(maxsize=1 << 16)
def _porter_stem(word: str) -> str:
    """Light Porter-style suffix stripping (plurals, -ed/-ing, common derivations)."""
    if len(word) < 3:
        return word
    if word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("ies"):
        word = word[:-2]
    elif word.endswith("ss"):
        pass
    elif word.endswith("s"):
        word = word[:-1]
    if word.endswith("eed"):
        if len(word) > 4:
            word = word[:-1]
    elif word.endswith("ed"):
        stem = word[:-2]
        if any(c in _VOWELS for c in stem):
            word = stem
    elif word.endswith("ing"):
        stem = word[:-3]
        if any(c in _VOWELS for c in stem):
            word = stem
    for suffix, repl in (
        ("ational", "ate"), ("tional", "tion"), ("ization", "ize"),
        ("ation", "ate"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("alize", "al"), ("ical", "ic"),
        ("ful", ""), ("ness", ""),
    ):
        if word.endswith(suffix) and len(word) > len(suffix) + 2:
            word = word[: -len(suffix)] + repl
            break
    return word


def tokenize(text: str, stem: bool = False) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; empty input gives [].

    No stopword removal. Stemming is off by default; when enabled, each
    distinct word is stemmed once and the result cached.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if stem:
        tokens = [_porter_stem(t) for t in tokens]
    return tokens


@dataclass
class Corpus:
    """Ordered document collection with dense internal ids (0..N-1 in file order)."""

    doc_ids: list[str]
    texts: list[str]
    id_to_internal: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.id_to_internal:
            self.id_to_internal = {d: i for i, d in enumerate(self.doc_ids)}
        if len(self.id_to_internal) != len(self.doc_ids):
            raise ValueError(f"doc ids are not unique: {len(self.doc_ids)} ids, "
                             f"{len(self.id_to_internal)} distinct")

    def __len__(self) -> int:
        return len(self.doc_ids)


@dataclass
class QuerySet:
    """Ordered query collection keyed by query id."""

    query_ids: list[str]
    texts: list[str]

    def __len__(self) -> int:
        return len(self.query_ids)

    def subset(self, indices) -> "QuerySet":
        return QuerySet([self.query_ids[i] for i in indices],
                        [self.texts[i] for i in indices])


class Qrels:
    """Graded relevance judgments; an absent (query, doc) pair has grade 0."""

    def __init__(self, judgments: dict[tuple[str, str], int] | None = None):
        self.judgments = judgments or {}
        self._by_query: dict[str, dict[str, int]] = {}
        for (qid, did), grade in self.judgments.items():
            self._by_query.setdefault(qid, {})[did] = grade

    def get(self, query_id: str, doc_id: str) -> int:
        return self.judgments.get((query_id, doc_id), 0)

    def for_query(self, query_id: str) -> dict[str, int]:
        return self._by_query.get(query_id, {})

    def __len__(self) -> int:
        return len(self.judgments)


def _read_tsv(path, id_name: str, empty: str) -> tuple[list[str], list[str]]:
    """(ids, texts) of an "id<TAB>text" file; blank lines are skipped, and a
    line without a tab, a repeated id or a file with no rows is an error."""
    ids: list[str] = []
    texts: list[str] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}: malformed line {lineno}: expected {id_name}<TAB>text")
            row_id, text = line.split("\t", 1)
            if row_id in seen:
                raise ValueError(f"{path}: duplicate {id_name} {row_id!r} at line {lineno}")
            seen.add(row_id)
            ids.append(row_id)
            texts.append(text)
    if not ids:
        raise ValueError(f"{path}: empty {empty}")
    return ids, texts


def load_collection(path) -> Corpus:
    """Read a TSV collection: one "doc_id<TAB>text" line per document."""
    return Corpus(*_read_tsv(path, "doc_id", "collection"))


def load_queries(path) -> QuerySet:
    """Read a TSV query file: one "query_id<TAB>text" line per query."""
    return QuerySet(*_read_tsv(path, "query_id", "query file"))


def load_qrels(path) -> Qrels:
    """Read TREC qrels: whitespace-separated "query_id 0 doc_id grade" lines.

    Unknown query/doc ids are kept; downstream consumers filter them.
    """
    judgments: dict[tuple[str, str], int] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{path}: malformed qrels line {lineno}: expected 4 fields")
            qid, _, did, grade_s = parts
            try:
                grade = int(grade_s)
            except ValueError:
                raise ValueError(f"{path}: non-integer grade at line {lineno}: {grade_s!r}") from None
            if grade < 0:
                raise ValueError(f"{path}: negative grade at line {lineno}: {grade}")
            judgments[(qid, did)] = grade
    return Qrels(judgments)


class InvertedIndex:
    """Positional inverted index with collection statistics.

    postings maps term -> (ids, tfs, positions) where ids is a sorted int64
    array of internal document ids, tfs the matching term frequencies, and
    positions the postings' sorted int32 position runs laid end to end, as
    CRIX1 stores them: posting k's run holds tfs[k] positions.
    """

    def __init__(self, postings: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
                 doc_len: np.ndarray, stemmed: bool = False):
        self.postings = postings
        self.doc_len = np.asarray(doc_len, dtype=np.int64)
        self.stemmed = stemmed
        self.n_docs = int(self.doc_len.shape[0])
        self.total_tokens = int(self.doc_len.sum())
        self.avg_doc_len = self.total_tokens / self.n_docs if self.n_docs else 0.0
        self.df = {t: int(p[0].shape[0]) for t, p in postings.items()}
        self.cf = {t: int(p[1].sum()) for t, p in postings.items()}
        # Posting k's run is positions[run_bounds[term][k]:run_bounds[term][k + 1]].
        self.run_bounds: dict[str, np.ndarray] = {}
        # Derived per-document statistics used by the lexical features.
        self.unique_terms = np.zeros(self.n_docs, dtype=np.int64)
        sq_norm = np.zeros(self.n_docs, dtype=np.float64)
        # Terms in sorted order, as CRIX1 stores them, so that a built index
        # and its loaded copy sum each norm in the same order.
        for term in sorted(postings):
            ids, tfs, _ = postings[term]
            self.run_bounds[term] = np.concatenate(([0], np.cumsum(tfs)))
            self.unique_terms[ids] += 1
            idf = self.idf(term)
            w = tfs.astype(np.float64) * idf
            sq_norm[ids] += w * w
        self.tfidf_norm = np.sqrt(sq_norm)

    def idf(self, term: str) -> float:
        """ln((N - df + 0.5) / (df + 0.5) + 1); defined (and large) for unseen terms."""
        df = self.df.get(term, 0)
        return float(np.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0))


def build_inverted_index(corpus: Corpus, stem: bool = False) -> InvertedIndex:
    """Tokenize every document and build the positional index."""
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    acc: dict[str, tuple[list[int], list[int], list[int]]] = {}
    doc_len = np.zeros(len(corpus), dtype=np.int64)
    for internal_id, text in enumerate(corpus.texts):
        tokens = tokenize(text, stem=stem)
        doc_len[internal_id] = len(tokens)
        by_term: dict[str, list[int]] = {}
        for pos, tok in enumerate(tokens):
            by_term.setdefault(tok, []).append(pos)
        for term, positions in by_term.items():
            ids, tfs, pos = acc.setdefault(term, ([], [], []))
            ids.append(internal_id)
            tfs.append(len(positions))
            pos.extend(positions)
    postings = {term: (np.array(ids, dtype=np.int64), np.array(tfs, dtype=np.int64),
                       np.array(pos, dtype=np.int32))
                for term, (ids, tfs, pos) in acc.items()}
    return InvertedIndex(postings, doc_len, stemmed=stem)


def save_inverted_index(index: InvertedIndex, path) -> None:
    """Serialize to the versioned CRIX1 binary format (terms in sorted order)."""
    buf = io.BytesIO()
    buf.write(INDEX_MAGIC)
    buf.write(struct.pack("<BIQ", 1 if index.stemmed else 0, index.n_docs, index.total_tokens))
    buf.write(index.doc_len.astype("<i8").tobytes())
    terms = sorted(index.postings)
    buf.write(struct.pack("<I", len(terms)))
    for term in terms:
        raw = term.encode("utf-8")
        ids, tfs, pos = index.postings[term]
        buf.write(struct.pack("<HI", len(raw), ids.shape[0]))
        buf.write(raw)
        buf.write(ids.astype("<i8").tobytes())
        buf.write(tfs.astype("<i8").tobytes())
        buf.write(pos.astype("<i4").tobytes())
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def load_inverted_index(path) -> InvertedIndex:
    """Read a CRIX1 file; a damaged or inconsistent file raises ValueError
    naming the path and the section at fault."""
    r = SectionReader(path, INDEX_MAGIC)
    stemmed, n_docs, total_tokens = r.fields("header", "<BIQ")
    if stemmed > 1:
        raise r.fail("header", f"has stemmed flag {stemmed}, not 0 or 1")
    doc_len = r.array("doc_len", "<i8", n_docs)
    # A position is an int32, so no document is longer; this also keeps
    # every sum below in range.
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
    return InvertedIndex(postings, doc_len, stemmed=bool(stemmed))
