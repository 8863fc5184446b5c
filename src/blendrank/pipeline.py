"""End-to-end cascade orchestration: query encoding (file lookup or toy
encoder), IVF candidate generation, feature extraction over the re-rank
cutoff, model scoring, and merge.

Re-ranking permutes the first-stage candidates and never adds or removes
documents: the top `rerank_cutoff` block is reordered by model score and
the tail keeps first-stage order, which makes recall at the candidate
depth invariant by construction. Run entries carry rank-derived scores
(descending integers) so emitted run files are monotone and reload
byte-stably.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import Corpus, InvertedIndex, Qrels, QuerySet
from .embeddings import EmbeddingMatrix, toy_encode
from .features import FeatureExtractor, FeatureRegistry, make_mask
from .ivf import IvfIndex, Ranking, search
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
            current = getattr(cfg, key)
            values[key] = type(current)(val) if not isinstance(current, str) else val
        values.update(overrides)
        return cls(**values)


@dataclass
class LatencyBreakdown:
    """Per-query stage timings in milliseconds."""

    encode: list[float] = field(default_factory=list)
    first_stage: list[float] = field(default_factory=list)
    feature_extraction: list[float] = field(default_factory=list)
    rerank: list[float] = field(default_factory=list)
    total: list[float] = field(default_factory=list)

    def record(self, encode, first_stage, features, rerank, total) -> None:
        self.encode.append(encode)
        self.first_stage.append(first_stage)
        self.feature_extraction.append(features)
        self.rerank.append(rerank)
        self.total.append(total)

    def aggregate(self) -> dict[str, dict[str, float]]:
        out = {}
        for stage in ("encode", "first_stage", "feature_extraction", "rerank", "total"):
            vals = np.asarray(getattr(self, stage), dtype=np.float64)
            if vals.size == 0:
                out[stage] = {"mean": 0.0, "p50": 0.0, "p95": 0.0}
            else:
                out[stage] = {
                    "mean": float(vals.mean()),
                    "p50": float(np.percentile(vals, 50)),
                    "p95": float(np.percentile(vals, 95)),
                }
        return out


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
        self.extractor = FeatureExtractor(inverted_index, doc_embeddings)
        self.model = model
        self.compiled: CompiledEnsemble | None = None
        self.mask = None
        if model is not None:
            self.compiled = compile_ensemble(model)
            self.mask = make_mask(self.extractor.registry, model.mask_variant)
            if model.registry_hash and model.registry_hash != self.extractor.registry.registry_hash:
                raise ValueError("model was trained against a different feature registry")

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
            tokens = self.extractor.tokenize_query(text)
            feats = self.extractor.feature_matrix(tokens, q_vec, ranking.ids[:cut])
            t3 = time.perf_counter()
            scores = score_batch(self.compiled, feats[:, self.mask.included])
            order = np.lexsort((ranking.ids[:cut], -scores))
            merged = np.concatenate([ranking.ids[:cut][order], ranking.ids[cut:]])
            t4 = time.perf_counter()
        else:
            t3 = t4 = time.perf_counter()
            merged = ranking.ids
        final = merged[:cfg.k_final]
        n = final.shape[0]
        entries = list(zip(map(self.corpus.doc_ids.__getitem__, final.tolist()),
                           np.arange(n, 0, -1, dtype=np.float64).tolist()))
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


def train_variants(pipeline: Pipeline, train_queries: QuerySet,
                   valid_queries: QuerySet, qrels: Qrels,
                   variants=("full", "lexical", "dense"),
                   params: TrainParams | None = None, n_neg: int = 30,
                   tune_trials: int = 0, seed: int = 0,
                   tune_ranges: dict | None = None) -> dict[str, Ensemble]:
    """Train one model per feature-mask variant over a shared candidate and
    feature construction, so the variants differ only in mask and trees."""
    params = params or TrainParams()
    full_train, full_valid = build_blended_datasets(
        pipeline, train_queries, valid_queries, qrels, n_neg, seed)
    return {variant: train_variant(full_train, full_valid, pipeline.extractor.registry,
                                   variant, params, tune_trials, seed, tune_ranges)
            for variant in variants}


def train_pipeline(pipeline: Pipeline, train_queries: QuerySet,
                   valid_queries: QuerySet, qrels: Qrels,
                   params: TrainParams | None = None, mask_variant: str = "full",
                   n_neg: int = 30, tune_trials: int = 0, seed: int = 0,
                   tune_ranges: dict | None = None) -> Ensemble:
    """Build the training/validation datasets from first-stage candidates
    and fit a model for the given feature mask variant."""
    return train_variants(pipeline, train_queries, valid_queries, qrels,
                          (mask_variant,), params, n_neg, tune_trials, seed,
                          tune_ranges)[mask_variant]

