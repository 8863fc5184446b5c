"""The per-query judgment store against the flat (query, doc) -> grade dict."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendrank.corpus import Qrels, load_qrels


def flat_store(pairs):
    """The flat dict and its per-query copy, built as the store was before."""
    flat = {}
    for key, grade in pairs:
        flat[key] = grade
    by_query = {}
    for (qid, did), grade in flat.items():
        by_query.setdefault(qid, {})[did] = grade
    return flat, by_query


def assert_same_as_flat(qr, pairs, query_ids, doc_ids):
    flat, by_query = flat_store(pairs)
    assert len(qr) == len(flat)
    assert qr.judgments == flat
    # Grouped by query in first-seen order; within a query, first-seen order.
    grouped = [(qid, did) for qid, docs in by_query.items() for did in docs]
    assert list(qr.judgments) == grouped
    for qid in query_ids:
        assert list(qr.for_query(qid).items()) == list(by_query.get(qid, {}).items())
        for did in doc_ids:
            assert qr.get(qid, did) == flat.get((qid, did), 0)


def write_qrels(path, pairs):
    with open(path, "w", encoding="utf-8") as f:
        for (qid, did), grade in pairs:
            f.write(f"{qid} 0 {did} {grade}\n")


QUERY_IDS = ["q1", "q2", "q3", "q10"]
DOC_IDS = ["d1", "d2", "d3", "d4", "d5", "D1"]
PAIRS = st.lists(st.tuples(st.tuples(st.sampled_from(QUERY_IDS), st.sampled_from(DOC_IDS)),
                           st.integers(0, 4)), max_size=40)


class TestStore:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(pairs=PAIRS)
    def test_interleaved_queries_and_repeated_pairs_equal_the_flat_dict(self, pairs):
        # Repeated pairs keep their first position and their last grade.
        assert_same_as_flat(Qrels(iter(pairs)), pairs, QUERY_IDS + ["absent"], DOC_IDS)
        assert_same_as_flat(Qrels(flat_store(pairs)[0]), pairs, QUERY_IDS, DOC_IDS)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(pairs=PAIRS)
    def test_loaded_file_equals_store_of_its_dict(self, pairs, tmp_path_factory):
        path = tmp_path_factory.mktemp("qrels") / "qrels.txt"
        write_qrels(path, pairs)
        loaded, built = load_qrels(path), Qrels(flat_store(pairs)[0])
        assert list(loaded.judgments.items()) == list(built.judgments.items())
        assert len(loaded) == len(built)
        for qid in QUERY_IDS:
            assert list(loaded.for_query(qid).items()) == list(built.for_query(qid).items())

    def test_empty(self):
        for qr in (Qrels(), Qrels({}), Qrels([])):
            assert len(qr) == 0 and qr.judgments == {} and qr.for_query("q1") == {}
            assert qr.get("q1", "d1") == 0

    def test_judgments_is_read_only(self):
        qr = Qrels({("q1", "d1"): 1})
        with pytest.raises(AttributeError):
            qr.judgments = {}

    def test_one_string_per_doc_id(self, tmp_path):
        path = tmp_path / "qrels.txt"
        write_qrels(path, [((f"q{q}", f"d{d}"), 1) for q in range(5) for d in range(3)])
        qr = load_qrels(path)
        keys = [did for q in range(5) for did in qr.for_query(f"q{q}")]
        assert len(keys) == 15 and len({id(did) for did in keys}) == 3

    def test_bad_line_is_named_by_its_line_number(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\n\nq1 0 d2\n")
        with pytest.raises(ValueError, match=r"qrels.txt: malformed qrels line 3: expected 4 fields"):
            load_qrels(path)


def test_load_peak_memory_per_judgment(tmp_path):
    # 1,000 queries x 100 docs drawn from a 10,000-doc pool. The store peaks
    # near 42 B per judgment; a second, tuple-keyed copy of the judgments or a
    # new doc-id string per line would break the bound.
    rng = random.Random(0)
    path = tmp_path / "qrels.txt"
    write_qrels(path, [((f"q{q}", f"d{d}"), rng.randint(0, 3))
                       for q in range(1000) for d in rng.sample(range(10000), 100)])
    tracemalloc.start()
    try:
        qr = load_qrels(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(qr) == 100000
    assert peak <= 80 * len(qr)
