"""Seeded input preparation and the prepared-artifact cache.

Everything here depends only on (workload, seed, program source, benchmark
source): the generated collection, queries, judgments and vectors, plus the
index files a serve workload loads. It runs in its own process before the
measured one and counts toward no metric.

    python3 perfbench/prepare.py --workload serve-rerank --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CACHE_NAME = ".perfbench_cache"
CACHE_DIR = ROOT / CACHE_NAME
# Prepared entries kept per workload; the oldest beyond this are deleted.
KEEP_ENTRIES = 12


def source_files(root: Path) -> list[Path]:
    """Files that key the cache: the program package and the benchmark."""
    out = []
    for base in (root / "src" / "blendrank", root / "perfbench"):
        for p in sorted(base.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts and p.suffix != ".pyc":
                out.append(p)
    return out


def cache_key(root: Path, workload: str, seed: int) -> str:
    """Hash of the workload, the seed and every source file's path and bytes."""
    h = hashlib.sha256(f"{workload}\0{seed}\0".encode())
    for p in source_files(root):
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(p.read_bytes() + b"\0")
    return h.hexdigest()[:20]


def entry_dir(root: Path, workload: str, seed: int) -> Path:
    return root / CACHE_NAME / f"{workload}-s{seed}-{cache_key(root, workload, seed)}"


def ensure_prepared(root: Path, workload: str, seed: int) -> Path:
    """Return the prepared entry, building it in a child process if absent."""
    entry = entry_dir(root, workload, seed)
    if (entry / "DONE").exists():
        return entry
    tmp = entry.with_name(entry.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "prepare.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(tmp)],
        cwd=root, stdout=subprocess.DEVNULL, timeout=600)
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise RuntimeError(f"preparing {workload} seed {seed} failed "
                           f"(exit {proc.returncode})")
    shutil.rmtree(entry, ignore_errors=True)
    tmp.rename(entry)
    _evict(entry.parent, workload, keep=entry)
    return entry


def _evict(cache: Path, workload: str, keep: Path) -> None:
    entries = sorted((p for p in cache.glob(f"{workload}-s*") if p.is_dir() and p != keep),
                     key=lambda p: p.stat().st_mtime)
    for p in entries[:max(0, len(entries) - (KEEP_ENTRIES - 1))]:
        shutil.rmtree(p, ignore_errors=True)


def _write_queries(path: Path, queries, rows: list[int]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i in rows:
            f.write(f"{queries.query_ids[i]}\t{queries.texts[i]}\n")


def split_rows(cfg: dict, query_ids: list[str], qrels) -> dict[str, list[int]]:
    """Query rows of each split. A split with a band takes, in order, the
    unused pool queries whose number of relevant documents lies in the band;
    the other splits follow the pool."""
    pool, bands = cfg.get("pool", 0), cfg.get("bands", {})
    n_rel = [sum(1 for g in qrels.for_query(query_ids[i]).values() if g >= 1)
             for i in range(pool)]
    used: set[int] = set()
    rows, start = {}, pool
    for name, size in cfg["splits"].items():
        if name in bands:
            lo, hi = bands[name]
            rows[name] = [i for i in range(pool) if i not in used and lo <= n_rel[i] <= hi][:size]
            if len(rows[name]) < size:
                raise RuntimeError(f"{len(rows[name])} pool queries in band {lo}-{hi}, "
                                   f"{name} needs {size}")
            used.update(rows[name])
        else:
            rows[name] = list(range(start, start + size))
            start += size
    return rows


def prepare(workload: str, seed: int, out: Path) -> None:
    """Generate the workload's inputs into `out` (program files only)."""
    import numpy as np

    from blendrank import corpus, embeddings, ivf, ltr, synthetic
    from blendrank import pipeline
    from perfbench.workloads import WORKLOADS, ForestGrower, pipeline_config

    cfg = WORKLOADS[workload]
    n_queries = cfg.get("pool", 0) + sum(size for name, size in cfg["splits"].items()
                                         if name not in cfg.get("bands", {}))
    data = synthetic.make_synthetic(cfg["docs"], n_queries, cfg["dim"], seed)
    rows = split_rows(cfg, data.queries.query_ids, data.qrels)
    with open(out / "collection.tsv", "w", encoding="utf-8") as f:
        for did, text in zip(data.corpus.doc_ids, data.corpus.texts):
            f.write(f"{did}\t{text}\n")
    # Judgments only for the queries that are trained on or evaluated.
    judged = {data.queries.query_ids[i] for name, r in rows.items() if name != "warmup"
              for i in (r[:cfg["eval_queries"]] if name == "serve" else r)}
    with open(out / "qrels.txt", "w", encoding="utf-8") as f:
        for (qid, did), grade in data.qrels.judgments.items():
            if qid in judged:
                f.write(f"{qid} 0 {did} {grade}\n")
    embeddings.save_embeddings(data.doc_embeddings, out / "doc_embeddings.crem")
    for name, r in rows.items():
        _write_queries(out / f"queries-{name}.tsv", data.queries, r)
        embeddings.save_embeddings(np.ascontiguousarray(data.query_embeddings.rows[r]),
                                   out / f"query_embeddings-{name}.crem")
    if "lexical.crix" in cfg["prepared"]:
        inv = corpus.build_inverted_index(data.corpus)
        corpus.save_inverted_index(inv, out / "lexical.crix")
    if "dense.criv" in cfg["prepared"]:
        cent = ivf.train_kmeans(data.doc_embeddings, ivf.default_nlist(cfg["docs"]),
                                cfg["kmeans_iters"], seed)
        index = ivf.build_ivf(data.doc_embeddings, cent)
        ivf.save_ivf(index, out / "dense.criv")
    if "forest.json" in cfg["prepared"]:
        # Grown from the index as loaded, like the serving side: a CRIX1 round
        # trip changes tfidf_norm in the last bit, and so the features.
        forest = rows["forest"]
        qvecs = {data.queries.query_ids[i]: data.query_embeddings.rows[i] for i in forest}
        pipe = pipeline.Pipeline(pipeline_config(cfg, seed, 0), data.corpus,
                                 corpus.load_inverted_index(out / "lexical.crix"),
                                 data.doc_embeddings, index, qvecs)
        grower = ForestGrower(cfg, seed, pipe, data.queries.subset(forest), qvecs, data.qrels)
        grower.grow(cfg["trees"])
        ltr.save_model(grower.ensemble(), out / "forest.json")
    # Flush the files now, so their write-back does not run during the
    # measured process that follows.
    for p in out.iterdir():
        with open(p, "rb") as f:
            os.fsync(f.fileno())
    (out / "DONE").write_text(f"{time.time()}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    prepare(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
