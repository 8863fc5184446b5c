"""Collection ingestion, tokenization, and the positional inverted index.

The inverted index is the statistics substrate for all lexical features:
per-term postings with positions, document lengths, and collection-level
counts (df, cf, total tokens). Relevance judgments are held per query, with
one string per distinct doc id: about 40 B per judgment.
"""

from __future__ import annotations

import functools
import io
import re
import struct
from collections.abc import Iterable, Mapping
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
        self.unique_terms = np.bincount(ids, minlength=self.n_docs)
        # bincount adds each document's squared weights in sorted term order,
        # as the ids lie, so a built index and its loaded copy sum them alike.
        w = np.repeat(np.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0), df)
        w *= tfs
        w *= w
        self.tfidf_norm = np.sqrt(np.bincount(ids, w, self.n_docs))

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
    terms = sorted(acc)
    flat = [np.array([v for t in terms for v in acc[t][j]], dtype)
            for j, dtype in enumerate((np.int64, np.int64, np.int32))]
    return InvertedIndex(terms, [len(acc[t][0]) for t in terms], *flat, doc_len, stemmed=stem)


def save_inverted_index(index: InvertedIndex, path) -> None:
    """Serialize to the versioned CRIX1 binary format (terms in sorted order)."""
    buf = io.BytesIO()
    buf.write(INDEX_MAGIC)
    buf.write(struct.pack("<BIQ", 1 if index.stemmed else 0, index.n_docs, index.total_tokens))
    buf.write(index.doc_len.astype("<i8").tobytes())
    buf.write(struct.pack("<I", len(index.terms)))
    for term, (ids, tfs, pos) in index.postings.items():
        raw = term.encode("utf-8")
        buf.writelines((struct.pack("<HI", len(raw), ids.shape[0]), raw, ids.astype("<i8"),
                        tfs.astype("<i8"), pos.astype("<i4")))
    with open(path, "wb") as f:
        f.write(buf.getvalue())


def _falls(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Whether each element is not above the one before it in its run (runs begin at `starts`)."""
    out = np.zeros(values.shape[0] + 1, dtype=bool)  # starts may hold len(values)
    np.less_equal(values[1:], values[:-1], out=out[1:-1])
    out[starts] = False
    return out[:-1]


def _first(bad: np.ndarray, starts: np.ndarray) -> int:
    """The run (runs begin at `starts`) holding the first True, or holding len(bad) if none."""
    i = int(bad.argmax()) if bad.any() else bad.shape[0]
    return int(np.searchsorted(starts, i, side="right")) - 1


def _check_postings(r: SectionReader, terms: list[str], df: list[int], ids: np.ndarray,
                    tfs: np.ndarray, starts: np.ndarray, pos: np.ndarray, n_tfs: int,
                    n_pos: int, doc_len: np.ndarray) -> None:
    """Raise the error that checking each term's ids, tfs and positions in turn
    would meet first. ids, tfs and pos hold the first len(df), n_tfs and n_pos
    terms' arrays; starts is 0 and then cumsum(tfs). Each check looks only at
    the terms before the first fault found so far, where ids index doc_len and
    tfs mark out the runs."""
    n, offsets = doc_len.shape[0], np.concatenate(([0], np.cumsum(df, dtype=np.int64)))
    limit = min(_first((ids < 0) | (ids >= n) | _falls(ids, offsets[:-1]), offsets),
                df.index(0) if 0 in df else len(df))
    fault = ("ids", f"must strictly increase within 0..{n - 1}") if limit < len(df) else None
    upper = min(limit, n_tfs)
    lens = doc_len[ids[:offsets[upper]]]
    t = _first((tfs[:lens.shape[0]] < 1) | (tfs[:lens.shape[0]] > lens), offsets)
    if t < upper:
        fault, limit = ("tfs", "must lie in 1..doc_len"), t
    upper = min(limit, n_pos)
    runs = starts[:offsets[upper] + 1]
    p = pos[:runs[-1]]
    t = _first(_falls(p, runs[:-1]), runs[offsets[:upper + 1]])
    bad = p[runs[:-1]] < 0  # the runs rise, so their first and last positions bound them
    runs[1:] -= 1  # in place, and undone below: the index keeps these starts
    t = min(t, _first(bad | (p[runs[1:]] >= lens[:bad.shape[0]]), offsets))
    runs[1:] += 1
    if t < upper:
        fault, limit = ("positions", "must strictly increase within each posting and "
                                     "lie in 0..doc_len-1"), t
    if fault is not None:
        raise r.fail(fault[0], f"of {terms[limit]!r} {fault[1]}")


def load_inverted_index(path) -> InvertedIndex:
    """Read a CRIX1 file; a damaged or inconsistent file raises ValueError
    naming the path, the section at fault and, for a term's arrays, the term.
    One walk finds where each term's arrays lie; they are checked joined."""
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
    terms, views, walk_error = [], ([], [], []), None  # views of ids, tfs and positions
    try:
        for _ in range(n_terms):
            term_len, df = r.fields("term header", "<HI")
            try:
                term = r.raw("term", term_len).decode("utf-8")
            except UnicodeDecodeError:
                raise r.fail("term", "is not UTF-8") from None
            if terms and term <= terms[-1]:
                raise r.fail("term", f"{term!r} does not sort after {terms[-1]!r}")
            terms.append(term)
            views[0].append(np.frombuffer(r.data, "<i8", df, r.take("ids", 8 * df)))
            views[1].append(np.frombuffer(r.data, "<i8", df, r.take("tfs", 8 * df)))
            n_pos = int(views[1][-1].sum())
            views[2].append(np.frombuffer(r.data, "<i4", n_pos, r.take("positions", 4 * n_pos)))
        r.end()
    except ValueError as e:
        # A bad tf misplaces what follows it: the walked terms are checked first.
        walk_error = e
    df, n_tfs, n_pos = [v.shape[0] for v in views[0]], len(views[1]), len(views[2])
    ids, tfs, pos = (np.concatenate([np.empty(0, dtype), *v])
                     for v, dtype in zip(views, ("<i8", "<i8", "<i4")))
    del views, r.data  # free the file's bytes before the checks
    starts = np.concatenate(([0], np.cumsum(tfs)))  # the runs' starts, also kept by the index
    _check_postings(r, terms, df, ids, tfs, starts, pos, n_tfs, n_pos, doc_len)
    if walk_error is not None:
        raise walk_error
    # Exact in float64: the tfs are positive, so a sum past 2**53 exceeds any doc_len.
    if not np.array_equal(np.bincount(ids, tfs, n_docs), doc_len):
        raise r.fail("doc_len", "does not equal each document's position total")
    return InvertedIndex(terms, df, ids, tfs, pos, doc_len, stemmed=bool(stemmed),
                         starts=starts)
