"""The CRIX2, CRIV2 and CREM2 files: bitwise round trips, zero-copy loads, and
damaged copies that must fail with a ValueError naming the file and the
section."""

import re
import struct
import zlib

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


def layout(sizes):
    """(section, first byte, payload end, section end) for the 8-byte magic and
    then each (section, payload bytes): the payload, its 4-byte CRC32 and zero
    padding to a multiple of 8 bytes."""
    out, at = [("magic", 0, 8, 8)], 8
    for name, size in sizes:
        end = at + -(-(size + 4) // 8) * 8
        out.append((name, at, at + size, end))
        at = end
    return out


def crix_sections(index):
    n_terms, n_postings = len(index.terms), index.ids.shape[0]
    return layout([("header", 56), ("doc_len", 8 * index.n_docs),
                   ("term_offsets", 8 * (n_terms + 1)), ("df", 8 * n_terms),
                   ("term", sum(len(t.encode("utf-8")) for t in index.terms)),
                   ("ids", 8 * n_postings), ("tfs", 8 * n_postings),
                   ("positions", 4 * index.positions.shape[0])])


def crix_term_spans(index):
    """(part, first byte) of each term's bytes, ids, tfs and positions, in
    term order."""
    starts = {name: a for name, a, _, _ in crix_sections(index)}
    out, at = [], {"term": starts["term"], "ids": starts["ids"], "tfs": starts["tfs"],
                   "positions": starts["positions"]}
    for term, (ids, _, pos) in index.postings.items():
        for part, size in (("term", len(term.encode("utf-8"))), ("ids", 8 * len(ids)),
                           ("tfs", 8 * len(ids)), ("positions", 4 * len(pos))):
            out.append((part, at[part]))
            at[part] += size
    return out


def criv_sections(index):
    return layout([("header", 32), ("centroids", 8 * index.nlist * index.centroids.dim),
                   ("offsets", 8 * (index.nlist + 1)), ("ids", 8 * index.n_docs),
                   ("vectors", 4 * index.vectors.size)])


def crem_sections(matrix):
    return layout([("header", 16), ("rows", 4 * matrix.rows.size)])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One small valid file per format, with its section map, the spans that
    `patched` addresses, and its loader. The keys are the names these tests
    have carried since each format's first version."""
    tmp = tmp_path_factory.mktemp("formats")
    texts = ["the cat sat on the mat", "a cat and a dog", "", "dog eat dog",
             "mat mat mat", "on and on"]
    index = build_inverted_index(Corpus([f"d{i}" for i in range(len(texts))], texts))
    save_inverted_index(index, tmp / "ok.crix")
    vectors = EmbeddingMatrix(np.random.default_rng(11).normal(size=(40, 4)))
    ivf = build_ivf(vectors, train_kmeans(vectors, 5, 5, 11), "cosine")
    save_ivf(ivf, tmp / "ok.criv")
    save_embeddings(vectors, tmp / "ok.crem")
    criv, crem = criv_sections(ivf), crem_sections(vectors)
    return {
        "CRIX1": ((tmp / "ok.crix").read_bytes(), crix_sections(index),
                  crix_term_spans(index), load_inverted_index),
        "CRIV1": ((tmp / "ok.criv").read_bytes(), criv, [s[:2] for s in criv], load_ivf),
        "CREM1": ((tmp / "ok.crem").read_bytes(), crem, [s[:2] for s in crem],
                  load_embeddings),
    }


def damaged_cases(original, sections, rng, flips):
    """Truncations at every section boundary and one byte either side, then
    `flips` seeded single-bit flips: eight in each section (payload, CRC or
    padding), and the rest anywhere."""
    cuts = sorted({b + d for _, a, p, e in sections for b in (a, p, e) for d in (-1, 0, 1)
                   if 0 <= b + d < len(original)})
    for cut in cuts:
        yield f"cut at {cut}", original[:cut], None
    at = [int(rng.integers(a, e)) for _, a, _, e in sections for _ in range(8)]
    at += rng.integers(0, len(original), flips - len(at)).tolist()
    for byte in at:
        damaged = bytearray(original)
        damaged[byte] ^= 1 << int(rng.integers(8))
        section = next(name for name, a, _, e in sections if a <= byte < e)
        yield f"bit flip at {byte}", bytes(damaged), section


@pytest.mark.parametrize("fmt", ["CRIX1", "CRIV1", "CREM1"])
def test_damaged_file_raises_value_error_naming_path_and_section(files, tmp_path, fmt):
    """Every one of 3,000 seeded flips and every truncation fails with a
    ValueError that names the file and a section: no damaged copy loads, and
    no other exception type escapes."""
    original, sections, _, load = files[fmt]
    names = "|".join(re.escape(name) for name, _, _, _ in sections)
    path = tmp_path / "damaged.bin"
    pattern = re.escape(f"{path}: ") + rf"(.* )?({names}) section"
    count = 0
    for label, damaged, section in damaged_cases(original, sections,
                                                 np.random.default_rng(2024), 3000):
        path.write_bytes(damaged)
        with pytest.raises(ValueError) as e:
            load(path)
        assert re.match(pattern, str(e.value)), f"{label}: {e.value}"
        count += section is not None
    assert count == 3000


def rechecksum(data: bytearray, sections, byte: int) -> bytes:
    """`data` with the CRC32 of the section holding `byte` written anew."""
    _, a, p, _ = next(s for s in sections if s[1] <= byte < s[3])
    data[p:p + 4] = zlib.crc32(data[a:p]).to_bytes(4, "little")
    return bytes(data)


def test_crix1_silent_header_flip_is_only_the_stemmed_flag(files, tmp_path):
    """With the header's checksum written anew, the only header bit whose flip
    still loads is the stemmed flag's low bit."""
    original, sections, _, load = files["CRIX1"]
    path = tmp_path / "flag.crix"
    for byte in range(8, 64):
        for bit in range(8):
            damaged = bytearray(original)
            damaged[byte] ^= 1 << bit
            path.write_bytes(rechecksum(damaged, sections, byte))
            try:
                loaded = load(path)
            except ValueError:
                continue
            assert (byte, bit) == (8, 0) and loaded.stemmed


def test_crix1_trailing_bytes_rejected(files, tmp_path):
    original, _, _, load = files["CRIX1"]
    path = tmp_path / "long.crix"
    path.write_bytes(original + b"\0" * 8)
    with pytest.raises(ValueError, match=re.escape(f"{path}: 8 bytes after the positions section")):
        load(path)


def patched(original, sections, spans, name, nth, offset, value: bytes):
    """Original bytes with `value` written at `offset` into the nth span called
    `name`, and the enclosing section's CRC32 written anew."""
    start = [a for s, a in spans if s == name][nth] + offset
    damaged = bytearray(original)
    damaged[start:start + len(value)] = value
    return rechecksum(damaged, sections, start)


# The CRIX fixture's terms sort as a, and, cat, dog, eat, mat, on, sat, the;
# its spans count by term. "a" has one posting, in document 1 (length 5), at
# positions [0, 3]; "mat" has runs [5] in document 0 and [0, 1, 2] in
# document 4.
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
    original, sections, spans, load = files[fmt]
    path = tmp_path / "inconsistent.bin"
    path.write_bytes(patched(original, sections, spans, name, nth, offset, value))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {section} section")):
        load(path)


def test_crix1_doc_len_must_match_header_and_positions(files, tmp_path):
    original, sections, _, load = files["CRIX1"]
    path = tmp_path / "totals.crix"
    doc_len, total_tokens = sections[2][1], 8 + 16  # byte offsets of doc_len[0], the header's
    # doc_len[0] + 1: the lengths no longer sum to the header's total_tokens.
    damaged = bytearray(original)
    struct.pack_into("<q", damaged, doc_len, struct.unpack_from("<q", original, doc_len)[0] + 1)
    path.write_bytes(rechecksum(damaged, sections, doc_len))
    with pytest.raises(ValueError, match=re.escape(f"{path}: doc_len section must lie in")):
        load(path)
    # total_tokens + 1 as well: the sum agrees, document 0's positions do not.
    struct.pack_into("<Q", damaged, total_tokens,
                     struct.unpack_from("<Q", original, total_tokens)[0] + 1)
    path.write_bytes(rechecksum(damaged, sections, total_tokens))
    with pytest.raises(ValueError, match=re.escape(f"{path}: doc_len section does not equal")):
        load(path)


@pytest.mark.parametrize("fmt, command", [("CRIX1", "index-lexical"), ("CRIV1", "index-dense"),
                                          ("CREM1", "convert-embeddings")])
def test_first_version_file_rejected_naming_format_and_command(files, tmp_path, fmt, command):
    """A file of the formats' first version is not read; the error says which
    version it found and which command writes the current one."""
    path = tmp_path / "old.bin"
    path.write_bytes(fmt.encode() + bytes(40))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: magic section is {fmt}, a format this version does not read: "
            f"rebuild the file with `blendrank {command}`")):
        files[fmt][3](path)


def test_loaded_arrays_are_read_only_aligned_views_of_one_buffer(files, tmp_path):
    arrays = {}
    for fmt, ext in (("CRIX1", "crix"), ("CRIV1", "criv"), ("CREM1", "crem")):
        path = tmp_path / f"ok.{ext}"
        path.write_bytes(files[fmt][0])
        arrays[fmt] = files[fmt][3](path)
    index, ivf, matrix = arrays.values()
    for group in ([index.doc_len, index.ids, index.tfs, index.positions],
                  [ivf.centroids.vectors, ivf.offsets, ivf.ids, ivf.vectors],
                  [matrix.rows]):
        bases = {id(a.base) for a in group}
        assert len(bases) == 1 and group[0].base.base is None
        for a in group:
            assert not a.flags.writeable and not a.flags.owndata
            assert a.ctypes.data % 8 == 0
            with pytest.raises(ValueError, match="read-only"):
                a.reshape(-1)[:1] = 0


def test_crix_term_longer_than_64k_bytes_round_trips(tmp_path):
    texts = ["x" * 70_000 + " short", "short", "é" * 35_000]
    index = build_inverted_index(Corpus([f"d{i}" for i in range(len(texts))], texts))
    save_inverted_index(index, tmp_path / "long.crix")
    loaded = load_inverted_index(tmp_path / "long.crix")
    assert loaded.terms == index.terms
    assert [len(t.encode("utf-8")) for t in loaded.terms] == [5, 70_000, 70_000]
    for term, arrays in index.postings.items():
        for want, got in zip(arrays, loaded.postings[term]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
