"""End-to-end cascade orchestration: query encoding (file lookup or toy
encoder), IVF candidate generation, feature extraction over the re-rank
cutoff, model scoring, and merge.

Re-ranking permutes the first-stage candidates and never adds or removes
documents: the top `rerank_cutoff` block is reordered by model score and
the tail keeps first-stage order, which makes recall at the candidate
depth invariant by construction. Run entries carry rank-derived scores
(descending integers) so emitted run files are monotone and reload
byte-stably. A query's entries are its ids taken in one call from an object
array of the corpus's doc ids, zipped with rank scores built once per length.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Corpus, InvertedIndex, Qrels, QuerySet
from .embeddings import EmbeddingMatrix, toy_encode
from .features import FeatureExtractor, FeatureMask, FeatureRegistry, make_mask
from .ivf import IvfIndex, Ranking, rank_order, search
from .ltr import (Ensemble, LtrDataset, TrainParams,
                  build_training_set, random_search_tune, train)
from .metrics import RunList, evaluate_run
from .scorer import CompiledEnsemble, compile_ensemble, score_batch


@dataclass
class PipelineConfig:
    """Cascade knobs; paths live beside them so a config file can drive the CLI."""

    dim: int = 0
    k_first: int = 1000
    rerank_cutoff: int = 1000
    nprobe: int = 1
    k_final: int = 1000
    seed: int = 0
    collection: str = ""
    queries: str = ""
    doc_embeddings: str = ""
    query_embeddings: str = ""
    lexical_index: str = ""
    dense_index: str = ""
    model: str = ""

    def __post_init__(self):
        if self.rerank_cutoff > self.k_first:
            raise ValueError("rerank_cutoff must not exceed k_first")
        if self.k_final > self.k_first:
            raise ValueError("k_final must not exceed k_first")

    @classmethod
    def from_file(cls, path, **overrides) -> "PipelineConfig":
        """Parse a key=value config file; # starts a comment."""
        values: dict = {}
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}: bad config line {line!r}")
                key, val = (s.strip() for s in line.split("=", 1))
                values[key] = val
        cfg = cls()
        for key, val in values.items():
            if not hasattr(cfg, key):
                raise ValueError(f"{path}: unknown config key {key!r}")
            kind = type(getattr(cfg, key))
            try:
                values[key] = kind(val)
            except ValueError:
                raise ValueError(f"{path}: {key!r} needs {kind.__name__}, got {val!r}") from None
        values.update(overrides)
        return cls(**values)


STAGES = ("encode", "first_stage", "feature_extraction", "rerank", "total")


class LatencyBreakdown:
    """Per-query stage timings in milliseconds, one list per stage."""

    def __init__(self):
        self.times: dict[str, list[float]] = {stage: [] for stage in STAGES}

    def record(self, *stage_ms: float) -> None:
        for times, ms in zip(self.times.values(), stage_ms, strict=True):
            times.append(ms)

    def aggregate(self) -> dict[str, dict[str, float]]:
        return {stage: {"mean": float(np.mean(v)), "p50": float(np.percentile(v, 50)),
                        "p95": float(np.percentile(v, 95))}
                if v else {"mean": 0.0, "p50": 0.0, "p95": 0.0}
                for stage, v in self.times.items()}


@functools.lru_cache(maxsize=64)
def _rank_scores(n: int) -> tuple[float, ...]:
    """The run scores n, n - 1, ..., 1 as floats; a tuple, since it is shared."""
    return tuple(np.arange(n, 0, -1, dtype=np.float64).tolist())


class Pipeline:
    """Loaded runtime for the two-stage cascade."""

    def __init__(self, config: PipelineConfig, corpus: Corpus,
                 inverted_index: InvertedIndex, doc_embeddings: EmbeddingMatrix,
                 ivf_index: IvfIndex, query_vectors: dict[str, np.ndarray] | None = None,
                 model: Ensemble | None = None):
        self.config = config
        self.corpus = corpus
        self.inverted_index = inverted_index
        self.doc_embeddings = doc_embeddings
        self.ivf_index = ivf_index
        self.query_vectors = query_vectors or {}
        self.doc_id_array = np.array(corpus.doc_ids, dtype=object)
        self.extractor = FeatureExtractor(inverted_index, doc_embeddings)
        self.model = model
        self.compiled: CompiledEnsemble | None = None
        self.mask: FeatureMask | None = None
        if model is not None:
            reg = self.extractor.registry
            if model.registry_hash and model.registry_hash != reg.registry_hash:
                raise ValueError("model was trained against a different feature registry")
            cols = np.arange(reg.total) if model.mask_included is None else model.mask_included
            if cols.shape[0] != model.feature_count or (cols >= reg.total).any():
                raise ValueError(f"the model's {model.feature_count} feature columns do not "
                                 f"fit the {reg.total}-feature registry")
            self.compiled = compile_ensemble(model)
            self.mask = FeatureMask(model.mask_variant, cols, reg.registry_hash)

    def with_overrides(self, **kwargs) -> "Pipeline":
        clone = Pipeline.__new__(Pipeline)
        clone.__dict__.update(self.__dict__)
        clone.config = replace(self.config, **kwargs)
        return clone

    @property
    def run_tag(self) -> str:
        base = f"blendrank.np{self.config.nprobe}.c{self.config.rerank_cutoff}"
        if self.model is None or self.config.rerank_cutoff == 0:
            return base + ".firststage"
        return base + f".{self.model.mask_variant}"

    def encode_query(self, query_id: str, text: str) -> np.ndarray:
        vec = self.query_vectors.get(query_id)
        if vec is not None:
            return np.asarray(vec, dtype=np.float64)
        return toy_encode(text, self.doc_embeddings.dim, self.config.seed)

    def run_query(self, query_id: str, text: str):
        """Execute the cascade for one query.

        Returns (ordered list of (doc_id, score), per-stage latencies in ms).
        Output scores are rank-derived (n, n-1, ...) so the ordering is the
        payload and files stay monotone.
        """
        cfg = self.config
        t0 = time.perf_counter()
        q_vec = self.encode_query(query_id, text)
        t1 = time.perf_counter()
        ranking = search(self.ivf_index, q_vec, cfg.k_first, cfg.nprobe)
        t2 = time.perf_counter()
        cut = min(cfg.rerank_cutoff, len(ranking)) if self.compiled is not None else 0
        if cut > 0:
            head = ranking.ids[:cut]
            feats = self.extractor.feature_matrix(self.extractor.tokenize_query(text), q_vec, head)
            t3 = time.perf_counter()
            scores = score_batch(self.compiled, feats[:, self.mask.included])
            merged = np.concatenate([head.take(rank_order(-scores, head)), ranking.ids[cut:]])
            t4 = time.perf_counter()
        else:
            t3 = t4 = time.perf_counter()
            merged = ranking.ids
        final = merged[:cfg.k_final]
        entries = list(zip(self.doc_id_array.take(final).tolist(), _rank_scores(final.shape[0])))
        t5 = time.perf_counter()
        lat = ((t1 - t0) * 1e3, (t2 - t1) * 1e3, (t3 - t2) * 1e3,
               (t4 - t3) * 1e3, (t5 - t0) * 1e3)
        return entries, lat

    def run_batch(self, queries: QuerySet, qrels: Qrels | None = None):
        """Run every query; returns (RunList, LatencyBreakdown, MetricReport or None)."""
        run = RunList(self.run_tag)
        latency = LatencyBreakdown()
        for qid, text in zip(queries.query_ids, queries.texts):
            entries, lat = self.run_query(qid, text)
            run.add(qid, entries)
            latency.record(*lat)
        report = evaluate_run(run, qrels) if qrels is not None else None
        return run, latency, report


SWEEP_COLUMNS = ("nprobe", "cutoff", "ndcg@10", "latency_ms", "r@1000", "mrr@10")


def sweep(pipeline: Pipeline, probe_list, cutoff_list, queries: QuerySet,
          qrels: Qrels, emit_latency: bool = True) -> list[dict]:
    """Probe x cutoff grid; cutoff 0 rows give the first-stage baseline.

    With emit_latency=False the latency column is written as 0.0, which
    makes the CSV deterministic for byte-compare runs (wall-clock timings
    never are).
    """
    if not probe_list or not cutoff_list:
        raise ValueError("probe and cutoff lists must be non-empty")
    cutoffs = list(dict.fromkeys([0] + list(cutoff_list)))
    rows = []
    for nprobe in probe_list:
        for cutoff in cutoffs:
            p = pipeline.with_overrides(nprobe=int(nprobe), rerank_cutoff=int(cutoff))
            _, latency, report = p.run_batch(queries, qrels)
            rows.append({
                "nprobe": int(nprobe),
                "cutoff": int(cutoff),
                "ndcg@10": report.means["ndcg@10"],
                "latency_ms": latency.aggregate()["total"]["mean"] if emit_latency else 0.0,
                "r@1000": report.means["recall@1000"],
                "mrr@10": report.means["mrr@10"],
            })
    return rows


def sweep_to_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            f.write(f"{row['nprobe']},{row['cutoff']},{row['ndcg@10']!r},"
                    f"{row['latency_ms']!r},{row['r@1000']!r},{row['mrr@10']!r}\n")


def first_stage_rankings(pipeline: Pipeline, queries: QuerySet, k: int,
                         nprobe: int | None = None) -> dict[str, Ranking]:
    """Top-k candidates per query (defaults to probing every list)."""
    nprobe = pipeline.ivf_index.nlist if nprobe is None else nprobe
    out = {}
    for qid, text in zip(queries.query_ids, queries.texts):
        q_vec = pipeline.encode_query(qid, text)
        out[qid] = search(pipeline.ivf_index, q_vec, k, nprobe)
    return out


def build_blended_datasets(pipeline: Pipeline, train_queries: QuerySet,
                           valid_queries: QuerySet, qrels: Qrels, n_neg: int,
                           seed: int) -> tuple[LtrDataset, LtrDataset]:
    """Unmasked training and validation sets; candidates come from the
    exact first stage (every IVF list probed)."""
    overlap = set(train_queries.query_ids) & set(valid_queries.query_ids)
    if overlap:
        raise ValueError(f"train and validation query ids overlap: {sorted(overlap)[:5]}")
    k = pipeline.config.k_first
    rankings = first_stage_rankings(pipeline, train_queries, k)
    rankings.update(first_stage_rankings(pipeline, valid_queries, k))
    qvecs = {qid: pipeline.encode_query(qid, text)
             for qid, text in zip(train_queries.query_ids + valid_queries.query_ids,
                                  train_queries.texts + valid_queries.texts)}
    full_train = build_training_set(train_queries, qrels, rankings, pipeline.corpus,
                                    pipeline.extractor, qvecs, n_neg, seed)
    full_valid = build_training_set(valid_queries, qrels, rankings, pipeline.corpus,
                                    pipeline.extractor, qvecs, n_neg, seed + 1)
    return full_train, full_valid


def train_variant(full_train: LtrDataset, full_valid: LtrDataset,
                  registry: FeatureRegistry, variant: str, params: TrainParams,
                  tune_trials: int = 0, seed: int = 0,
                  tune_ranges: dict | None = None) -> Ensemble:
    """Fit one feature-mask variant on unmasked datasets: select the mask's
    columns, train (or random-search the parameters and keep the best trial's
    model), and record the registry the model's features follow."""
    mask = make_mask(registry, variant)
    train_ds = full_train.select_columns(mask.included)
    valid_ds = full_valid.select_columns(mask.included)
    if tune_trials > 0:
        ensemble = random_search_tune(train_ds, valid_ds, tune_trials, seed, base=params,
                                      mask=mask, **(tune_ranges or {}))
    else:
        ensemble = train(train_ds, valid_ds, params, mask)
    ensemble.metadata["registry_dim"] = registry.dim
    ensemble.metadata["registry_lexical"] = registry.lexical_count
    return ensemble
