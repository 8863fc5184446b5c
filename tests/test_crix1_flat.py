"""The flat CRIX2 loader and index against the term-by-term oracle.

`load_inverted_index` checks each section's arrays whole, in blocks of
postings, and keeps views of the file; `crix_oracle` copies and checks each
term's arrays on its own. Both must give the same postings and statistics
bit for bit, and a damaged file must fail the same way in both.
"""

import tracemalloc
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import crix_oracle
from blendrank.corpus import (Corpus, build_inverted_index, load_inverted_index,
                              save_inverted_index)
from blendrank.synthetic import make_synthetic
from test_binformat import crix_sections, damaged_cases


def assert_same(index, oracle):
    assert list(index.postings) == sorted(oracle.postings)
    for term, arrays in oracle.postings.items():
        for want, got in zip(arrays, index.postings[term]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert dict(index.df) == oracle.df and dict(index.cf) == oracle.cf
    for term in [*oracle.postings, "unseen term"]:
        assert index.idf(term) == oracle.idf(term)
    for name in ("doc_len", "unique_terms", "tfidf_norm"):
        want, got = getattr(oracle, name), getattr(index, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert (index.n_docs, index.total_tokens, index.stemmed) == \
        (oracle.n_docs, oracle.total_tokens, oracle.stemmed)


def assert_loads_like_oracle(corpus, stem, path):
    built = build_inverted_index(corpus, stem)
    assert_same(built, crix_oracle.OracleIndex(dict(built.postings), built.doc_len, stem))
    save_inverted_index(built, path)
    assert_same(load_inverted_index(path), crix_oracle.load_inverted_index(path))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(texts=st.lists(st.lists(st.sampled_from(["a", "b", "déjà", "running", "runs",
                                                "cats", "cat", "z9"]), max_size=12)
                      .map(" ".join), min_size=1, max_size=8),
       stem=st.booleans())
def test_flat_load_equals_oracle(tmp_path_factory, texts, stem):
    corpus = Corpus([f"d{i}" for i in range(len(texts))], texts)
    assert_loads_like_oracle(corpus, stem, tmp_path_factory.mktemp("crix") / "a.crix")


def test_flat_load_equals_oracle_on_synthetic_corpus(tmp_path):
    # 164,211 postings: the index's statistics and checks span three blocks.
    assert_loads_like_oracle(make_synthetic(6000, 5, 16, 7).corpus, False, tmp_path / "a.crix")


def rechecksummed_cases(original, sections, rng, count):
    """Seeded single-bit flips inside section payloads, each followed by the
    section's CRC32 written anew, so only the loaders' value checks can see
    them."""
    payloads = [(a, e) for name, a, e, _ in sections if name != "magic" and e > a]
    for _ in range(count):
        a, e = payloads[int(rng.integers(len(payloads)))]
        byte = int(rng.integers(a, e))
        damaged = bytearray(original)
        damaged[byte] ^= 1 << int(rng.integers(8))
        damaged[e:e + 4] = zlib.crc32(damaged[a:e]).to_bytes(4, "little")
        yield f"bit flip at {byte}, checksum rewritten", bytes(damaged)


def test_damaged_copies_fail_as_the_oracle_fails(tmp_path):
    """On seeded streams of damaged copies, plain and re-checksummed, both
    loaders raise the same ValueError or load equal indexes."""
    texts = ["the cat sat on the mat", "a cat and a dog", "", "dog eat dog",
             "mat mat mat", "on and on", "the dog sat and sat"]
    index = build_inverted_index(Corpus([f"d{i}" for i in range(len(texts))], texts))
    save_inverted_index(index, tmp_path / "ok.crix")
    original = (tmp_path / "ok.crix").read_bytes()
    sections = crix_sections(index)
    path = tmp_path / "damaged.crix"
    outcomes = {"raised": 0, "loaded": 0}
    cases = [(label, damaged) for label, damaged, _ in
             damaged_cases(original, sections, np.random.default_rng(16), 200)]
    cases += rechecksummed_cases(original, sections, np.random.default_rng(17), 1200)
    for label, damaged in cases:
        path.write_bytes(damaged)
        try:
            want = crix_oracle.load_inverted_index(path)
        except ValueError as e:
            try:
                load_inverted_index(path)
            except ValueError as got:
                assert str(got) == str(e), label
            else:
                raise AssertionError(f"{label}: loaded; the oracle raised {e}")
            outcomes["raised"] += 1
            continue
        assert_same(load_inverted_index(path), want)
        outcomes["loaded"] += 1
    assert outcomes["raised"] > 1000 and outcomes["loaded"] > 0, outcomes


def test_load_peak_memory_within_bound_of_retained(tmp_path):
    """The file's bytes are the index's arrays, and the checks and statistics
    run over blocks of postings: a load's tracemalloc peak stays within 1.3
    times what the loaded index keeps."""
    save_inverted_index(build_inverted_index(make_synthetic(6000, 5, 16, 7).corpus),
                        tmp_path / "a.crix")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loaded = load_inverted_index(tmp_path / "a.crix")
        retained, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert loaded.ids.shape[0] > 2 * 65536  # more than two blocks of postings
    assert peak <= 1.3 * retained, (peak, retained)
