"""Layer sweeps run after the traced serving phase, timed directly.

- serve-firststage: `ivf.search` p50 over an nprobe grid that ends at nlist.
- serve-rerank: `feature_matrix` p50 at two cutoffs, and the compiled scorer
  against naive `Ensemble.score_batch` over prefixes of the served forest
  (trees) x rows.

Cells are named by suffix: `.np32`, `.c400`, `.t100.r1000`.
"""

from __future__ import annotations

import time

import numpy as np

from blendrank import ivf, ltr, scorer

NPROBE_GRID = (4, 8, 16, 32, 64, 128, 200)
FEATURE_CUTOFFS = (100, 400)
TREE_PREFIXES = (100, 150)
ROW_COUNTS = (100, 1000)
SWEEP_QUERIES = 100
# Probe depth for the candidate lists of the feature and scorer sweeps: deep
# enough that every query has FEATURE_CUTOFFS[-1] candidates.
SWEEP_NPROBE = 8
REPEATS = 5


def metric_names() -> dict[str, str]:
    """Every sweep metric with its unit."""
    names = {f"ivf.search_p50_ms.np{n}": "ms" for n in NPROBE_GRID}
    names.update({f"features.feature_matrix_p50_ms.c{c}": "ms" for c in FEATURE_CUTOFFS})
    for t in TREE_PREFIXES:
        for r in ROW_COUNTS:
            names[f"scorer.score_batch_ns_per_doc.t{t}.r{r}"] = "ns"
            names[f"ltr.ensemble_score_batch_ns_per_doc.t{t}.r{r}"] = "ns"
    return names


def _p50_ms(fn, items) -> float:
    times = []
    for item in items:
        t0 = time.perf_counter()
        fn(item)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def nprobe_sweep(pipe, qvecs: list[np.ndarray], k: int) -> dict[str, float]:
    index = pipe.ivf_index
    if NPROBE_GRID[-1] != index.nlist:
        raise ValueError(f"nprobe grid must end at nlist={index.nlist}")
    return {f"ivf.search_p50_ms.np{n}": _p50_ms(lambda q: ivf.search(index, q, k, n), qvecs)
            for n in NPROBE_GRID}


def rerank_sweeps(pipe, queries: list[tuple[str, str, np.ndarray]], k: int) -> dict[str, float]:
    ex = pipe.extractor
    prepared = [(ex.tokenize_query(text), q, ivf.search(pipe.ivf_index, q, k, SWEEP_NPROBE).ids)
                for _, text, q in queries]
    out = {}
    for c in FEATURE_CUTOFFS:
        out[f"features.feature_matrix_p50_ms.c{c}"] = _p50_ms(
            lambda p: ex.feature_matrix(p[0], p[1], p[2][:c]), prepared)
    rows, n = [], 0
    for toks, q, cand in prepared:
        rows.append(ex.feature_matrix(toks, q, cand[:FEATURE_CUTOFFS[-1]]))
        n += rows[-1].shape[0]
        if n >= ROW_COUNTS[-1]:
            break
    X = np.vstack(rows)[:, pipe.mask.included]
    model = pipe.model
    for t in TREE_PREFIXES:
        prefix = ltr.Ensemble(model.trees[:t], model.learning_rate, model.feature_count)
        compiled = scorer.compile_ensemble(prefix)
        for r in ROW_COUNTS:
            Xr = X[:r]
            for name, fn in (("scorer.score_batch", lambda: scorer.score_batch(compiled, Xr)),
                             ("ltr.ensemble_score_batch", lambda: prefix.score_batch(Xr))):
                fn()
                times = []
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    fn()
                    times.append(time.perf_counter() - t0)
                out[f"{name}_ns_per_doc.t{t}.r{r}"] = float(np.median(times)) * 1e9 / r
    return out
