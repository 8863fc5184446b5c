"""The CRIX1, CRIV1 and CREM1 files: bitwise round trips, and damaged copies
that must fail with a ValueError naming the file and the section."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from blendrank.corpus import (Corpus, build_inverted_index, load_inverted_index,
                              save_inverted_index)
from blendrank.embeddings import EmbeddingMatrix, load_embeddings, save_embeddings
from blendrank.ivf import (Centroids, IvfIndex, build_ivf, load_ivf, save_ivf,
                           train_kmeans)


def crix1_sections(index):
    """(section, first byte, end byte) of a saved CRIX1, walked from the index."""
    out = [("magic", 0, 5), ("header", 5, 18), ("doc_len", 18, 18 + 8 * index.n_docs)]
    out.append(("term count", out[-1][2], out[-1][2] + 4))
    for term in sorted(index.postings):
        ids, _, pos = index.postings[term]
        for name, size in (("term header", 6), ("term", len(term.encode("utf-8"))),
                           ("ids", 8 * len(ids)), ("tfs", 8 * len(ids)),
                           ("positions", 4 * len(pos))):
            out.append((name, out[-1][2], out[-1][2] + size))
    return out


def criv1_sections(index):
    sizes = [("magic", 5), ("header", 17), ("centroids", 8 * index.nlist * index.centroids.dim),
             ("offsets", 8 * (index.nlist + 1)), ("ids", 8 * index.n_docs),
             ("vectors", 4 * index.vectors.size)]
    return _spans(sizes)


def crem1_sections(matrix):
    return _spans([("magic", 5), ("header", 8), ("payload", 4 * matrix.rows.size)])


def _spans(sizes):
    out, at = [], 0
    for name, size in sizes:
        out.append((name, at, at + size))
        at += size
    return out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One small valid file per format, with its section map and loader."""
    tmp = tmp_path_factory.mktemp("formats")
    texts = ["the cat sat on the mat", "a cat and a dog", "", "dog eat dog",
             "mat mat mat", "on and on"]
    index = build_inverted_index(Corpus([f"d{i}" for i in range(len(texts))], texts))
    save_inverted_index(index, tmp / "ok.crix")
    vectors = EmbeddingMatrix(np.random.default_rng(11).normal(size=(40, 4)))
    ivf = build_ivf(vectors, train_kmeans(vectors, 5, 5, 11), "cosine")
    save_ivf(ivf, tmp / "ok.criv")
    save_embeddings(vectors, tmp / "ok.crem")
    return {
        "CRIX1": ((tmp / "ok.crix").read_bytes(), crix1_sections(index), load_inverted_index),
        "CRIV1": ((tmp / "ok.criv").read_bytes(), criv1_sections(ivf), load_ivf),
        "CREM1": ((tmp / "ok.crem").read_bytes(), crem1_sections(vectors), load_embeddings),
    }


# Sections whose damage a loader cannot always see, per format:
# - CRIX1: the stemmed flag's low bit, term bytes that still decode in sorted
#   order, and position values that stay sorted within their run and inside
#   the document;
# - CRIV1: the metric code's low bit (dot and cosine), finite float values
#   in centroids and vectors, and an offset that moves without passing its
#   neighbours;
# - CREM1: finite float values in the payload.
UNCHECKABLE = {"CRIX1": {"header", "term", "positions"},
               "CRIV1": {"header", "centroids", "offsets", "vectors"},
               "CREM1": {"payload"}}


def damaged_cases(original, sections, rng):
    """Truncations at every section boundary and one byte either side, then
    seeded single-bit flips: eight in each section, and 200 anywhere."""
    cuts = sorted({b + d for _, a, e in sections for b in (a, e) for d in (-1, 0, 1)
                   if 0 <= b + d < len(original)})
    for cut in cuts:
        yield f"cut at {cut}", original[:cut], None
    flips = [int(rng.integers(a, e)) for _, a, e in sections for _ in range(8)]
    flips += rng.integers(0, len(original), 200).tolist()
    for byte in flips:
        damaged = bytearray(original)
        damaged[byte] ^= 1 << int(rng.integers(8))
        section = next(name for name, a, e in sections if a <= byte < e)
        yield f"bit flip at {byte}", bytes(damaged), section


@pytest.mark.parametrize("fmt", ["CRIX1", "CRIV1", "CREM1"])
def test_damaged_file_raises_value_error_naming_path_and_section(files, tmp_path, fmt):
    """Every damaged copy either fails with a ValueError that names the file
    and one of the format's sections, or differs only in bytes a loader
    cannot check (UNCHECKABLE); no other exception type escapes."""
    original, sections, load = files[fmt]
    names = "|".join(re.escape(name) for name in {s for s, _, _ in sections})
    path = tmp_path / "damaged.bin"
    pattern = re.escape(f"{path}: ") + rf"(.* )?({names}) section"
    silent = []
    for label, damaged, section in damaged_cases(original, sections,
                                                 np.random.default_rng(2024)):
        path.write_bytes(damaged)
        try:
            load(path)
        except ValueError as e:
            assert re.match(pattern, str(e)), f"{label}: {e}"
            continue
        assert section is not None, f"{label}: a truncated file loaded"
        silent.append(section)
    assert set(silent) <= UNCHECKABLE[fmt]


def test_crix1_silent_header_flip_is_only_the_stemmed_flag(files, tmp_path):
    original, _, load = files["CRIX1"]
    path = tmp_path / "flag.crix"
    for byte in range(5, 18):
        for bit in range(8):
            damaged = bytearray(original)
            damaged[byte] ^= 1 << bit
            path.write_bytes(bytes(damaged))
            try:
                loaded = load(path)
            except ValueError:
                continue
            assert (byte, bit) == (5, 0) and loaded.stemmed


def test_crix1_trailing_bytes_rejected(files, tmp_path):
    original, _, load = files["CRIX1"]
    path = tmp_path / "long.crix"
    path.write_bytes(original + b"\0\0")
    with pytest.raises(ValueError, match=re.escape(f"{path}: 2 bytes after the positions section")):
        load(path)


def patched(original, sections, name, nth, offset, value: bytes):
    """Original bytes with `value` written at `offset` into the nth section
    called `name`."""
    start = [a for s, a, _ in sections if s == name][nth] + offset
    return original[:start] + value + original[start + len(value):]


# The CRIX1 fixture's terms sort as a, and, cat, dog, eat, mat, on, sat, the.
# "a" has one posting, in document 1 (length 5), at positions [0, 3]; "mat"
# has runs [5] in document 0 and [0, 1, 2] in document 4.
INCONSISTENT = [
    ("CRIX1", "term", 0, 0, b"z", "term"),  # "z" then "and": out of order
    ("CRIX1", "tfs", 0, 0, struct.pack("<q", 6), "tfs"),  # tf above doc_len
    ("CRIX1", "positions", 0, 4, struct.pack("<i", 5), "positions"),  # 5 >= doc_len
    ("CRIX1", "positions", 5, 8, struct.pack("<i", 0), "positions"),  # run [0, 0, 2]
    ("CRIV1", "centroids", 0, 0, struct.pack("<d", float("nan")), "centroids"),
    ("CRIV1", "vectors", 0, 4, struct.pack("<f", float("inf")), "vectors"),
]


@pytest.mark.parametrize("fmt, name, nth, offset, value, section", INCONSISTENT)
def test_inconsistent_value_names_its_section(files, tmp_path, fmt, name, nth, offset,
                                              value, section):
    original, sections, load = files[fmt]
    path = tmp_path / "inconsistent.bin"
    path.write_bytes(patched(original, sections, name, nth, offset, value))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {section} section")):
        load(path)


def test_crix1_doc_len_must_match_header_and_positions(files, tmp_path):
    original, _, load = files["CRIX1"]
    path = tmp_path / "totals.crix"
    damaged = bytearray(original)
    # doc_len[0] + 1: the lengths no longer sum to the header's total_tokens.
    struct.pack_into("<q", damaged, 18, struct.unpack_from("<q", original, 18)[0] + 1)
    path.write_bytes(bytes(damaged))
    with pytest.raises(ValueError, match=re.escape(f"{path}: doc_len section must lie in")):
        load(path)
    # total_tokens + 1 as well: the sum agrees, document 0's positions do not.
    struct.pack_into("<Q", damaged, 10, struct.unpack_from("<Q", original, 10)[0] + 1)
    path.write_bytes(bytes(damaged))
    with pytest.raises(ValueError, match=re.escape(f"{path}: doc_len section does not equal")):
        load(path)


# ----------------------------------------------------------------------------
# Round trips: save -> load -> save gives the same bytes and the same arrays
# ----------------------------------------------------------------------------

ROUND_TRIP = settings(max_examples=40, derandomize=True, deadline=None)


@ROUND_TRIP
@given(texts=st.lists(st.lists(st.sampled_from(["a", "b", "c", "déjà", "z9"]), max_size=12)
                      .map(" ".join), min_size=1, max_size=8),
       stem=st.booleans())
def test_crix1_round_trip(tmp_path_factory, texts, stem):
    tmp = tmp_path_factory.mktemp("crix")
    index = build_inverted_index(Corpus([f"d{i}" for i in range(len(texts))], texts), stem)
    save_inverted_index(index, tmp / "a.crix")
    loaded = load_inverted_index(tmp / "a.crix")
    save_inverted_index(loaded, tmp / "b.crix")
    assert (tmp / "a.crix").read_bytes() == (tmp / "b.crix").read_bytes()
    assert loaded.stemmed == stem and loaded.doc_len.tobytes() == index.doc_len.tobytes()
    assert sorted(loaded.postings) == sorted(index.postings)
    for term, arrays in index.postings.items():
        for want, got in zip(arrays, loaded.postings[term]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert loaded.tfidf_norm.tobytes() == index.tfidf_norm.tobytes()


finite_f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@ROUND_TRIP
@given(rows=hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                       elements=finite_f32))
def test_crem1_round_trip(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("crem")
    save_embeddings(EmbeddingMatrix(rows), tmp / "a.crem")
    loaded = load_embeddings(tmp / "a.crem", expected_rows=rows.shape[0])
    save_embeddings(loaded, tmp / "b.crem")
    assert (tmp / "a.crem").read_bytes() == (tmp / "b.crem").read_bytes()
    assert loaded.rows.shape == rows.shape and loaded.rows.tobytes() == rows.tobytes()


@ROUND_TRIP
@given(data=st.data(), n_docs=st.integers(0, 10), nlist=st.integers(1, 4),
       dim=st.integers(1, 4), metric=st.sampled_from(["dot", "cosine"]))
def test_criv1_round_trip(tmp_path_factory, data, n_docs, nlist, dim, metric):
    tmp = tmp_path_factory.mktemp("criv")
    centroids = data.draw(hnp.arrays(np.float64, (nlist, dim),
                                     elements=st.floats(allow_nan=False, allow_infinity=False)))
    vectors = data.draw(hnp.arrays(np.float32, (n_docs, dim), elements=finite_f32))
    cuts = data.draw(st.lists(st.integers(0, n_docs), min_size=nlist - 1,
                               max_size=nlist - 1))
    offsets = np.array([0] + sorted(cuts) + [n_docs], dtype=np.int64)
    ids = np.array(data.draw(st.permutations(range(n_docs))), dtype=np.int64)
    index = IvfIndex(Centroids(centroids), offsets, ids, vectors, metric)
    save_ivf(index, tmp / "a.criv")
    loaded = load_ivf(tmp / "a.criv")
    save_ivf(loaded, tmp / "b.criv")
    assert (tmp / "a.criv").read_bytes() == (tmp / "b.criv").read_bytes()
    assert loaded.metric == metric
    for want, got in ((index.centroids.vectors, loaded.centroids.vectors),
                      (index.offsets, loaded.offsets), (index.ids, loaded.ids),
                      (index.vectors, loaded.vectors)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
