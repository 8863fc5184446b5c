"""Span tracing of the program's public functions, from outside the program.

`Tracer.install` replaces each target attribute with a wrapper that records
one span per call: name, start, end, parent span, query id and benchmark
phase. Spans are kept in memory and written as JSONL by `write_jsonl` when
the run ends. A target that no longer exists is recorded in `missing`, and
every per-layer metric that depends on it is left out of the summary rather
than reported as 0.

Targets are patched where the caller looks them up: `pipeline.run_query`
calls `search`, `score_batch` and `compile_ensemble` through names imported
into `blendrank.pipeline`, so those are wrapped there.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from dataclasses import dataclass, field

import numpy as np


def _search_info(args, kwargs, result):
    index, q, _k, nprobe = (list(args) + [kwargs.get("k"), kwargs.get("nprobe")])[:4]
    return {"index": index, "q": q, "nprobe": nprobe}


def _features_info(args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _score_info(args, kwargs, result):
    return {"rows": int(result.shape[0]), "trees": int(args[0].n_trees)}


def _tree_info(args, kwargs, result):
    return {"tree": args[0], "rows": int(result.shape[0])}


def _run_query_info(args, kwargs, result):
    return {"entries": len(result[0])}


# (module path, attribute path, span name, info function)
TARGETS = (
    ("blendrank.pipeline", "Pipeline.run_query", "pipeline.run_query", _run_query_info),
    ("blendrank.pipeline", "Pipeline.__init__", "pipeline.init", None),
    ("blendrank.pipeline", "first_stage_rankings", "pipeline.first_stage_rankings", None),
    ("blendrank.pipeline", "Pipeline.encode_query", "embeddings.encode", None),
    ("blendrank.pipeline", "search", "ivf.search", _search_info),
    ("blendrank.pipeline", "score_batch", "scorer.score_batch", _score_info),
    ("blendrank.pipeline", "compile_ensemble", "scorer.compile_ensemble", None),
    ("blendrank.features", "FeatureExtractor.feature_matrix", "features.feature_matrix",
     _features_info),
    ("blendrank.embeddings", "load_embeddings", "embeddings.load_embeddings", None),
    ("blendrank.ivf", "load_ivf", "ivf.load_ivf", None),
    ("blendrank.ivf", "train_kmeans", "ivf.train_kmeans", None),
    ("blendrank.ivf", "build_ivf", "ivf.build_ivf", None),
    ("blendrank.corpus", "load_collection", "corpus.load_collection", None),
    ("blendrank.corpus", "load_inverted_index", "corpus.load_inverted_index", None),
    ("blendrank.corpus", "build_inverted_index", "corpus.build_inverted_index", None),
    ("blendrank.ltr", "load_model", "ltr.load_model", None),
    ("blendrank.ltr", "build_training_set", "ltr.build_training_set", None),
    ("blendrank.ltr", "train", "ltr.train", None),
    ("blendrank.ltr", "compute_lambdas", "ltr.compute_lambdas", None),
    ("blendrank.ltr", "RegressionTree.predict_batch", "ltr.predict_batch", _tree_info),
    ("blendrank.ltr", "ndcg_from_scores", "ltr.ndcg_from_scores", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    query: str | None
    phase: str
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; `query` and `phase` are set by the benchmark."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.query: str | None = None
        self.phase = "other"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, targets=TARGETS) -> None:
        for module_name, attr_path, span_name, info in targets:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(span_name)
                continue
            setattr(owner, attr, self._wrap(orig, span_name, info))
            self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _wrap(self, fn, name, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.query, self.phase)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        stack = self._stack
        span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.query, self.phase)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                rec = {"name": s.name, "start": s.start - t0, "end": s.end - t0,
                       "parent": s.parent, "query": s.query, "phase": s.phase}
                rec.update({k: v for k, v in s.info.items()
                            if isinstance(v, (int, float, str))})
                f.write(json.dumps(rec) + "\n")


def scanned_candidates(index, q, nprobe: int) -> int:
    """Documents in the nprobe lists whose centroids score highest against q."""
    return int(sum(len(index.list_ids(int(c))) for c in top_lists(index, q, nprobe)))


def top_lists(index, q, nprobe: int) -> np.ndarray:
    """Lists probed for q: centroid score descending, list id ascending."""
    cent = index.centroids.vectors
    q = np.asarray(q, dtype=np.float64)
    scores = cent @ q
    if index.metric == "cosine":
        norms = np.linalg.norm(cent, axis=1) * np.linalg.norm(q)
        scores = np.divide(scores, norms, out=np.zeros_like(scores), where=norms > 0)
    return np.lexsort((np.arange(cent.shape[0]), -scores))[:nprobe]


def self_times(spans: list[Span], root_name: str) -> tuple[list[float], list[str]]:
    """Self time of every `root_name` span (duration minus direct children),
    and a list of problems where children overlap or leave their parent."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out, problems = [], []
    for i, s in enumerate(spans):
        if s.name != root_name or s.phase != "serve":
            continue
        kids = sorted(children.get(i, []), key=lambda c: c.start)
        cursor = s.start
        for c in kids:
            if c.start < cursor or c.end > s.end:
                problems.append(f"query {s.query}: span {c.name} overlaps a sibling "
                                f"or leaves {root_name}")
            cursor = max(cursor, c.end)
        self_t = s.dur - sum(c.dur for c in kids)
        if abs(self_t + sum(c.dur for c in kids) - s.dur) > 1e-9 or self_t < 0:
            problems.append(f"query {s.query}: stages do not sum to {root_name}")
        out.append(self_t)
    return out, problems


def summarize(tracer: Tracer, jobs: int = 1) -> tuple[dict[str, tuple[float, str, int]],
                                                     list[str]]:
    """Per-layer metrics from the spans: name -> (value, unit, samples).

    Training-phase times are per training job (the phase total over
    `jobs`). Layers a workload does not exercise read 0 with 0 samples.
    Metrics that depend on a missing target are left out.
    """
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def serve(name):
        return [s for s in by_name.get(name, []) if s.phase == "serve"]

    def phase_total(name, phase):
        return sum(s.dur for s in by_name.get(name, []) if s.phase == phase)

    def setup_or_train_s(name):
        """Median per set-up repeat where the call is part of set-up,
        otherwise its total in the training phase."""
        setups = sorted({s.phase for s in spans if s.phase.startswith("setup")})
        per = [phase_total(name, p) for p in setups]
        if any(per):
            return float(np.median(per)), len(setups)
        train = [s for s in by_name.get(name, []) if s.phase == "train"]
        return sum(s.dur for s in train) / jobs, len(train)

    def p50_ms(items):
        return (float(np.median([s.dur for s in items])) * 1e3 if items else 0.0), len(items)

    m: dict[str, tuple[float, str, int]] = {}
    rq = serve("pipeline.run_query")
    m["pipeline.run_query_p50_ms"] = (*p50_ms(rq)[:1], "ms", len(rq))
    selfs, _ = self_times(spans, "pipeline.run_query")
    m["pipeline.self_p50_ms"] = (float(np.median(selfs)) * 1e3 if selfs else 0.0, "ms",
                                 len(selfs))
    for name in ("pipeline.init", "embeddings.load_embeddings", "ivf.load_ivf",
                 "ivf.train_kmeans", "ivf.build_ivf", "corpus.load_collection",
                 "corpus.load_inverted_index", "corpus.build_inverted_index",
                 "scorer.compile_ensemble", "ltr.load_model"):
        v, n = setup_or_train_s(name)
        m[f"{name}_s"] = (v, "s", n)
    for name in ("pipeline.first_stage_rankings", "ltr.build_training_set",
                 "ltr.compute_lambdas", "ltr.predict_batch"):
        items = [s for s in by_name.get(name, []) if s.phase == "train"]
        m[f"{name}_s"] = (sum(s.dur for s in items) / jobs, "s", len(items))
    nd = [s for s in by_name.get("ltr.ndcg_from_scores", []) if s.phase == "train"]
    m["ltr.valid_ndcg_s"] = (sum(s.dur for s in nd) / jobs, "s", len(nd))

    enc = serve("embeddings.encode")
    m["embeddings.encode_p50_ms"] = (p50_ms(enc)[0], "ms", len(enc))
    se = serve("ivf.search")
    m["ivf.search_p50_ms"] = (p50_ms(se)[0], "ms", len(se))
    cands = [scanned_candidates(s.info["index"], s.info["q"], s.info["nprobe"]) for s in se]
    m["ivf.candidates_mean"] = (float(np.mean(cands)) if cands else 0.0, "count", len(cands))
    fm = serve("features.feature_matrix")
    rows = sum(s.info["rows"] for s in fm)
    m["features.feature_matrix_p50_ms"] = (p50_ms(fm)[0], "ms", len(fm))
    m["features.rows_mean"] = (rows / len(fm) if fm else 0.0, "count", len(fm))
    m["features.us_per_row"] = (sum(s.dur for s in fm) * 1e6 / rows if rows else 0.0, "us",
                                len(fm))
    sb = serve("scorer.score_batch")
    work = sum(s.info["rows"] * s.info["trees"] for s in sb)
    m["scorer.score_batch_p50_ms"] = (p50_ms(sb)[0], "ms", len(sb))
    m["scorer.ns_per_row_tree"] = (sum(s.dur for s in sb) * 1e9 / work if work else 0.0, "ns",
                                   len(sb))

    tr = [s for s in by_name.get("ltr.train", []) if s.phase == "train"]
    grown = [s for s in by_name.get("ltr.predict_batch", []) if s.phase == "train"]
    trees = list({id(s.info["tree"]): s.info["tree"] for s in grown}.values())
    boost = [s for s in by_name.get("bench.boosting", []) if s.phase == "train"]
    boost_s = sum(s.dur for s in boost)
    m["ltr.trees_fit"] = (len(trees) / jobs, "count", len(trees))
    m["ltr.s_per_tree"] = (boost_s / len(trees) if trees else 0.0, "s", len(trees))
    m["ltr.leaves_mean"] = (float(np.mean([t.n_leaves for t in trees])) if trees else 0.0,
                            "count", len(trees))
    rows_fit = grown[0].info["rows"] if grown else 0
    m["ltr.rows"] = (float(rows_fit), "count", 1 if grown else 0)
    train_ids = {i for i, s in enumerate(spans) if s.name == "ltr.train" and s.phase == "train"}
    self_train = sum(s.dur for s in tr) - sum(c.dur for c in spans if c.parent in train_ids)
    m["ltr.train_self_s"] = (self_train / jobs, "s", len(tr))

    missing = set(tracer.missing)
    depends = {
        "pipeline.run_query": ("pipeline.run_query_p50_ms", "pipeline.self_p50_ms"),
        "pipeline.init": ("pipeline.init_s",),
        "pipeline.first_stage_rankings": ("pipeline.first_stage_rankings_s",),
        "embeddings.encode": ("embeddings.encode_p50_ms", "pipeline.self_p50_ms"),
        "ivf.search": ("ivf.search_p50_ms", "ivf.candidates_mean", "pipeline.self_p50_ms"),
        "features.feature_matrix": ("features.feature_matrix_p50_ms", "features.rows_mean",
                                    "features.us_per_row", "pipeline.self_p50_ms"),
        "scorer.score_batch": ("scorer.score_batch_p50_ms", "scorer.ns_per_row_tree",
                               "pipeline.self_p50_ms"),
        "ltr.train": ("ltr.train_self_s",),
        "ltr.compute_lambdas": ("ltr.compute_lambdas_s", "ltr.train_self_s"),
        "ltr.predict_batch": ("ltr.predict_batch_s", "ltr.train_self_s", "ltr.trees_fit",
                              "ltr.s_per_tree", "ltr.leaves_mean", "ltr.rows"),
        "ltr.ndcg_from_scores": ("ltr.valid_ndcg_s", "ltr.train_self_s"),
    }
    for target in missing:
        for name in depends.get(target, (f"{target}_s",)):
            m.pop(name, None)
    return m, sorted(missing)
