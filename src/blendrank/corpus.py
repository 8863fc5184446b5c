"""Collection ingestion, tokenization, and the positional inverted index.

The inverted index is the statistics substrate for all lexical features:
per-term postings with positions, document lengths, and collection-level
counts (df, cf, total tokens, and every term's idf, computed once); saved
as CRIX2, it loads as views of the file's bytes. Relevance judgments are
held per query, with one string per distinct doc id: about 40 B per judgment.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .binformat import Format, SectionReader, write

INDEX_FORMAT = Format(
    "CRIX2", ("stemmed", "n_docs", "total_tokens", "n_terms", "n_postings", "n_positions",
              "term_bytes"),
    (("doc_len", "<i8", lambda h: h["n_docs"]),
     ("term_offsets", "<i8", lambda h: h["n_terms"] + 1), ("df", "<i8", lambda h: h["n_terms"]),
     ("term", "u1", lambda h: h["term_bytes"]), ("ids", "<i8", lambda h: h["n_postings"]),
     ("tfs", "<i8", lambda h: h["n_postings"]), ("positions", "<i4", lambda h: h["n_positions"])),
    "index-lexical")
_MAX_DOC_LEN = int(np.iinfo(np.int32).max)
_BLOCK = 1 << 16  # postings per block of a whole-index pass

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
    """Graded relevance judgments; an absent (query, doc) pair has grade 0.

    Built from a mapping or an iterable of ((query_id, doc_id), grade) pairs and
    held once, as query id -> {doc id: grade} with one string per distinct doc
    id. A repeated pair keeps its first position and its last grade."""

    def __init__(self, judgments: Mapping | Iterable | None = None):
        items = judgments.items() if isinstance(judgments, Mapping) else judgments or ()
        self._by_query: dict[str, dict[str, int]] = {}
        doc_ids: dict[str, str] = {}
        for (qid, did), grade in items:
            self._by_query.setdefault(qid, {})[doc_ids.setdefault(did, did)] = grade

    @property
    def judgments(self) -> dict[tuple[str, str], int]:
        """A new flat (query_id, doc_id) -> grade dict, grouped by query in first-seen order."""
        return {(qid, did): grade for qid, docs in self._by_query.items()
                for did, grade in docs.items()}

    def get(self, query_id: str, doc_id: str) -> int:
        return self._by_query.get(query_id, {}).get(doc_id, 0)

    def for_query(self, query_id: str) -> dict[str, int]:
        return self._by_query.get(query_id, {})

    def __len__(self) -> int:
        return sum(map(len, self._by_query.values()))


def _read_tsv(path, id_name: str, empty: str) -> tuple[list[str], list[str], dict[str, int]]:
    """(ids, texts, id -> row) of an "id<TAB>text" file; blank lines are skipped,
    and a line without a tab, a repeated id or a file with no rows is an error."""
    ids: list[str] = []
    texts: list[str] = []
    seen: dict[str, int] = {}
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
            seen[row_id] = len(ids)
            ids.append(row_id)
            texts.append(text)
    if not ids:
        raise ValueError(f"{path}: empty {empty}")
    return ids, texts, seen


def load_collection(path) -> Corpus:
    """Read a TSV collection: one "doc_id<TAB>text" line per document."""
    return Corpus(*_read_tsv(path, "doc_id", "collection"))


def load_queries(path) -> QuerySet:
    """Read a TSV query file: one "query_id<TAB>text" line per query."""
    return QuerySet(*_read_tsv(path, "query_id", "query file")[:2])


def load_qrels(path) -> Qrels:
    """Read TREC qrels: whitespace-separated "query_id 0 doc_id grade" lines.

    Unknown query/doc ids are kept; downstream consumers filter them.
    """
    with open(path, "r", encoding="utf-8") as f:
        return Qrels(_qrels_lines(path, f))


def _qrels_lines(path, f):
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
        yield (qid, did), grade


class _ByTerm(Mapping):
    """A read-only term -> value mapping over an index's flat arrays."""

    def __init__(self, term_index: dict[str, int], value):
        self._term_index, self._value = term_index, value

    def __getitem__(self, term: str):
        return self._value(self._term_index[term])

    def __iter__(self):
        return iter(self._term_index)

    def __len__(self) -> int:
        return len(self._term_index)


class InvertedIndex:
    """Positional inverted index with collection statistics, in one flat layout:
    term i (of the sorted terms) has postings ids[offsets[i]:offsets[i + 1]]
    (sorted int64 document ids) with their tfs, and posting k has sorted int32
    positions[run_starts[k]:run_starts[k + 1]]. postings (term -> (ids, tfs,
    positions)), df and cf are read-only mappings over these arrays."""

    def __init__(self, terms: list[str], df, ids: np.ndarray, tfs: np.ndarray,
                 positions: np.ndarray, doc_len: np.ndarray, stemmed: bool = False,
                 starts: np.ndarray | None = None):
        self.terms = terms
        self.term_index = {t: i for i, t in enumerate(terms)}
        self.offsets = o = np.concatenate(([0], np.cumsum(df, dtype=np.int64)))
        self.ids = ids = np.asarray(ids, dtype=np.int64)
        self.tfs = tfs = np.asarray(tfs, dtype=np.int64)
        self.positions = positions = np.asarray(positions, dtype=np.int32)
        self.run_starts = r = np.concatenate(([0], np.cumsum(tfs))) if starts is None else starts
        self.doc_len = np.asarray(doc_len, dtype=np.int64)
        self.stemmed = stemmed
        self.n_docs = int(self.doc_len.shape[0])
        self.total_tokens = int(self.doc_len.sum())
        self.avg_doc_len = self.total_tokens / self.n_docs if self.n_docs else 0.0
        df, cf = np.diff(o), np.diff(r[o])
        self.df = _ByTerm(self.term_index, lambda i: int(df[i]))
        self.cf = _ByTerm(self.term_index, lambda i: int(cf[i]))
        self.postings = _ByTerm(self.term_index, lambda i: (
            ids[o[i]:o[i + 1]], tfs[o[i]:o[i + 1]], positions[r[o[i]]:r[o[i + 1]]]))
        self.unique_terms = np.zeros(self.n_docs, dtype=np.int64)
        np.add.at(self.unique_terms, ids, 1)
        # Each term's idf, then an unseen term's (df = 0). add.at sums each document's
        # squared weights in sorted term order, as the ids lie, for built and loaded
        # alike; by blocks of terms, so no temporary is as long.
        dfs, sq = np.append(df, 0), np.zeros(self.n_docs)
        self.idfs = idf = np.log((self.n_docs - dfs + 0.5) / (dfs + 0.5) + 1.0)
        edges = np.searchsorted(o, np.arange(0, o[-1], _BLOCK)).tolist() + [df.shape[0]]
        for a, b in zip(edges, edges[1:]):
            w = np.repeat(idf[a:b], df[a:b]) * tfs[o[a]:o[b]]
            np.add.at(sq, ids[o[a]:o[b]], w * w)
        self.tfidf_norm = np.sqrt(sq)

    def idf(self, term: str) -> float:
        """ln((N - df + 0.5) / (df + 0.5) + 1); defined (and large) for unseen terms."""
        return float(self.idfs[self.term_index.get(term, -1)])


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
    terms = sorted(acc)
    flat = [np.array([v for t in terms for v in acc[t][j]], dtype)
            for j, dtype in enumerate((np.int64, np.int64, np.int32))]
    return InvertedIndex(terms, [len(acc[t][0]) for t in terms], *flat, doc_len, stemmed=stem)


def save_inverted_index(index: InvertedIndex, path) -> None:
    """Serialize to the CRIX2 binary format (terms in sorted order)."""
    raw = [t.encode("utf-8") for t in index.terms]
    term_offsets = np.cumsum([0] + [len(b) for b in raw])
    write(path, INDEX_FORMAT, dict(zip(INDEX_FORMAT.header, (
        int(index.stemmed), index.n_docs, index.total_tokens, len(raw), index.ids.shape[0],
        index.positions.shape[0], int(term_offsets[-1])))), {
        "doc_len": index.doc_len, "term_offsets": term_offsets, "df": np.diff(index.offsets),
        "term": np.frombuffer(b"".join(raw), np.uint8), "ids": index.ids, "tfs": index.tfs,
        "positions": index.positions})


def _first_bad(n: int, bad) -> int:
    """The first i < n that bad(a, b), a mask over [a, b), flags one block at a time; else n."""
    for a in range(0, n, _BLOCK):
        mask = bad(a, min(a + _BLOCK, n))
        if mask.any():
            return a + int(mask.argmax())
    return n


def _falls(values: np.ndarray, starts: np.ndarray, a: int, b: int) -> np.ndarray:
    """Whether each of values[a:b] is not above the one before it in its run."""
    out = np.zeros(b - a, dtype=bool)
    lo = max(a, 1)
    np.less_equal(values[lo:b], values[lo - 1:b - 1], out=out[lo - a:])
    out[starts[np.searchsorted(starts, a):np.searchsorted(starts, b)] - a] = False
    return out


def load_inverted_index(path) -> InvertedIndex:
    """Read a CRIX2 file into an index of views of its bytes. A damaged or inconsistent
    file raises ValueError naming the path, the first faulty section in file order
    and, for a term's arrays, the first faulty term; checks run in blocks of postings."""
    r = SectionReader(path, INDEX_FORMAT)
    h, a = r.header, r.arrays
    n, n_postings = h["n_docs"], h["n_postings"]
    if h["stemmed"] > 1:
        raise r.fail("header", f"has stemmed flag {h['stemmed']}, not 0 or 1")
    doc_len = a["doc_len"]
    # A position is an int32, so no document is longer; this also keeps
    # every sum below in range.
    if np.any((doc_len < 0) | (doc_len > _MAX_DOC_LEN)) or int(doc_len.sum()) != h["total_tokens"]:
        raise r.fail("doc_len", f"must lie in 0..{_MAX_DOC_LEN} and sum to the "
                                f"header's total_tokens {h['total_tokens']}")
    bounds = a["term_offsets"]
    if bounds[0] != 0 or bounds[-1] != h["term_bytes"] or np.any(bounds[1:] < bounds[:-1]):
        raise r.fail("term_offsets", f"must run from 0 to term_bytes={h['term_bytes']} "
                                     "without decreasing")
    df = a["df"]
    if np.any((df < 1) | (df > n_postings)) or int(df.sum()) != n_postings:
        raise r.fail("df", f"must lie in 1..n_postings and sum to n_postings={n_postings}")
    raw, bounds, terms = a["term"].tobytes(), bounds.tolist(), []
    for i, j in zip(bounds, bounds[1:]):
        try:
            term = raw[i:j].decode("utf-8")
        except UnicodeDecodeError:
            raise r.fail("term", f"is not UTF-8 at term {len(terms)}") from None
        if terms and term <= terms[-1]:
            raise r.fail("term", f"{term!r} does not sort after {terms[-1]!r}")
        terms.append(term)
    offsets = np.concatenate(([0], np.cumsum(df)))
    ids, tfs, pos = a["ids"], a["tfs"], a["positions"]

    def term_of(posting: int) -> str:
        return terms[int(np.searchsorted(offsets, posting, side="right")) - 1]

    k = _first_bad(n_postings, lambda i, j: (ids[i:j] < 0) | (ids[i:j] >= n)
                   | _falls(ids, offsets, i, j))
    if k < n_postings:
        raise r.fail("ids", f"of {term_of(k)!r} must strictly increase within 0..{n - 1}")
    k = _first_bad(n_postings, lambda i, j: (tfs[i:j] < 1) | (tfs[i:j] > doc_len[ids[i:j]]))
    starts = np.zeros(n_postings + 1, dtype=np.int64)  # the runs' starts, kept by the index
    np.cumsum(tfs, out=starts[1:])
    if k < n_postings or starts[-1] != h["n_positions"]:
        raise r.fail("tfs", f"of {term_of(k)!r} must lie in 1..doc_len" if k < n_postings else
                     f"sum to {starts[-1]}, not the header's n_positions {h['n_positions']}")
    # Where every run rises, its first and last positions bound it.
    k = min(int(np.searchsorted(starts, _first_bad(pos.shape[0], lambda i, j: _falls(
                pos, starts, i, j)), side="right")) - 1,
            _first_bad(n_postings, lambda i, j: (pos[starts[i:j]] < 0)
                       | (pos[starts[i + 1:j + 1] - 1] >= doc_len[ids[i:j]])))
    if k < n_postings:
        raise r.fail("positions", f"of {term_of(k)!r} must strictly increase within each "
                                  "posting and lie in 0..doc_len-1")
    totals = np.zeros(n, dtype=np.int64)
    np.add.at(totals, ids, tfs)  # each tf is at most 2**31, so no total wraps
    if not np.array_equal(totals, doc_len):
        raise r.fail("doc_len", "does not equal each document's position total")
    return InvertedIndex(terms, df, ids, tfs, pos, doc_len, stemmed=bool(h["stemmed"]),
                         starts=starts)
