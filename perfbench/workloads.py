"""Workload definitions and the measured run.

A run is ROUNDS rounds of: set-up (timed), a training step (timed), an
untimed warm-up on queries of its own, and a timed closed-loop serving
chunk with one client. Spreading every timed phase over the whole run, rather
than timing each once, keeps the figures steady on a host whose speed drifts
over tens of seconds. Served queries are distinct within a run. Quality is
evaluated on the first `eval_queries` served queries, which every run serves
whatever its speed, so `ndcg_10` and `recall_1000` depend on the seed only.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from blendrank import corpus, embeddings, features, ivf, ltr, metrics, pipeline, scorer
from perfbench import checks

WORKLOADS = {
    "serve-rerank": {
        "docs": 20000, "dim": 32,
        "splits": {"forest": 12, "train": 60, "valid": 20, "warmup": 45, "serve": 1500},
        "pool": 1200, "bands": {"forest": (20, 24), "train": (25, 45), "valid": (25, 45)},
        "prepared": ("lexical.crix", "dense.criv", "forest.json"),
        "kmeans_iters": 10,
        "nprobe": 8, "k_first": 1000, "cutoff": 300, "k_final": 1000,
        "cutoffs": tuple(range(150, 451, 25)),
        "trees": 150, "leaves": 64, "n_neg": 30,
        "min_data_leaf": 5, "learning_rate": 0.01, "truncation": 64,
        "rounds": 4,
        "eval_queries": 200, "checked_queries": 20, "lexical_samples": 60,
    },
    "serve-firststage": {
        "docs": 40000, "dim": 32,
        "splits": {"warmup": 300, "serve": 12000},
        "prepared": ("lexical.crix", "dense.criv"),
        "kmeans_iters": 6,
        "nprobe": 32, "k_first": 1000, "cutoff": 0, "k_final": 1000,
        "eval_queries": 4000, "checked_queries": 20,
    },
}

ROUNDS = 3


def read_queries(art: Path, split: str):
    """(QuerySet, {query id: stored vector}) of one prepared split."""
    qs = corpus.load_queries(art / f"queries-{split}.tsv")
    rows = embeddings.load_embeddings(art / f"query_embeddings-{split}.crem", len(qs))
    return qs, {qid: rows.rows[i] for i, qid in enumerate(qs.query_ids)}


def pipeline_config(cfg: dict, seed: int, cutoff: int) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(dim=cfg["dim"], k_first=cfg["k_first"], rerank_cutoff=cutoff,
                                   nprobe=cfg["nprobe"], k_final=cfg["k_final"], seed=seed)


class ForestGrower:
    """The serve-rerank forest, grown by the program's learner: fit_tree on
    lambdas from compute_lambdas for a fixed number of rounds.

    The forest queries all have 20-24 relevant documents, so every seed
    trains on about the same number of rows. The nDCG truncation covers the
    whole group and the learning rate is the smallest allowed, so every pair
    keeps a gradient and the trees keep growing to the leaf budget instead of
    saturating after a few rounds on this nearly separable data.
    """

    def __init__(self, cfg: dict, seed: int, pipe, forest_q, qvecs, qrels):
        rankings = pipeline.first_stage_rankings(pipe, forest_q, cfg["k_first"], cfg["nprobe"])
        ds = ltr.build_training_set(forest_q, qrels, rankings, pipe.corpus, pipe.extractor,
                                    qvecs, cfg["n_neg"], seed)
        self.X, self.labels, self.doc_ids, self.offsets = ds.stacked()
        self.params = ltr.TrainParams(
            learning_rate=cfg["learning_rate"], num_leaves=cfg["leaves"],
            min_sum_hessian_leaf=0.0, min_data_leaf=cfg["min_data_leaf"],
            truncation=cfg["truncation"], seed=seed)
        self.mask = features.make_mask(pipe.extractor.registry, "full")
        self.scores = np.zeros(self.X.shape[0])
        self.trees: list = []

    def grow(self, n_trees: int) -> None:
        p, lr = self.params, self.params.learning_rate
        lambdas = np.empty(self.X.shape[0])
        hessians = np.empty(self.X.shape[0])
        for _ in range(n_trees):
            for g in range(self.offsets.shape[0] - 1):
                a, b = self.offsets[g], self.offsets[g + 1]
                lambdas[a:b], hessians[a:b] = ltr.compute_lambdas(
                    self.scores[a:b], self.labels[a:b], p.sigma, p.truncation, self.doc_ids[a:b])
            tree = ltr.fit_tree(self.X, lambdas, hessians, p)
            self.trees.append(tree)
            self.scores += lr * tree.predict_batch(self.X)

    def ensemble(self) -> ltr.Ensemble:
        return ltr.Ensemble(list(self.trees), self.params.learning_rate, self.X.shape[1],
                            self.mask.variant, self.mask.registry_hash,
                            self.mask.included.copy())


class Run:
    """One measured run: metrics, operation counts and check problems."""

    def __init__(self, name: str, seed: int, art: Path, scratch: Path, tracer=None):
        self.name, self.seed, self.art, self.scratch = name, seed, art, scratch
        self.cfg = WORKLOADS[name]
        self.tracer = tracer
        self.metrics: dict[str, tuple[float, str]] = {}
        self.problems: list[str] = []
        self.cutoff_of: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: dict = {}

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def span(self, name: str):
        return contextlib.nullcontext() if self.tracer is None else self.tracer.span(name)

    # -- the measured rounds ---------------------------------------------------

    def measure(self, setup, train, seconds: float, train_total: str) -> None:
        """ROUNDS x (set-up, training step, warm-up, serving chunk).

        setup() -> serving pipeline; train(k, pipe) -> timed seconds.
        `train_total` says whether train_s is the sum of the steps (one job
        in segments) or their median (repeated jobs).
        """
        warm = self.queries("warmup")[0]
        serve_q = self.serve_q
        w = len(warm) // ROUNDS
        chunk_min = math.ceil(self.cfg["eval_queries"] / ROUNDS)
        setup_t, train_t, lat, results = [], [], [], []
        next_q = 0
        pipe = None
        for k in range(ROUNDS):
            pipe = pipes = None
            gc.collect()
            self.phase(f"setup{k}")
            t0 = time.perf_counter()
            pipe = setup()
            setup_t.append(time.perf_counter() - t0)
            self.phase("train")
            train_t.append(train(k, pipe))
            self.attempted += 1
            # Collect now what set-up and training left, rather than during serving.
            gc.collect()
            self.phase("warmup")
            pipes = self.serving_pipes(pipe)
            for i in range(k * w, (k + 1) * w):
                pipes[i % len(pipes)].run_query(warm.query_ids[i], warm.texts[i])
            self.phase("serve")
            next_q = self.serve_chunk(pipes, serve_q, next_q, seconds / ROUNDS, chunk_min,
                                      lat, results)
            self.phase("other")
        self.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                       "MB")
        self.metrics["setup_s"] = (median(setup_t), "s")
        self.metrics["train_s"] = (sum(train_t) if train_total == "sum" else median(train_t), "s")
        self.train_jobs = 1 if train_total == "sum" else ROUNDS
        lat_ms = np.asarray(lat) * 1e3
        # One client in a closed loop: queries per second of serving time,
        # without the benchmark's bookkeeping between queries.
        self.metrics["qps"] = (len(results) / sum(lat), "1/s")
        self.metrics["query_p50_ms"] = (float(np.percentile(lat_ms, 50)), "ms")
        self.metrics["query_p95_ms"] = (float(np.percentile(lat_ms, 95)), "ms")
        self.notes.update(setup_times=setup_t, train_times=train_t, served=len(results),
                          serve_s=sum(lat))
        if len(results) < self.cfg["eval_queries"]:
            self.problems.append(f"served {len(results)} queries, fewer than "
                                 f"{self.cfg['eval_queries']}")
        self.pipe, self.results = pipe, results

    def serving_pipes(self, pipe) -> list:
        """The pipelines that serve in turn, query i on pipes[i % len(pipes)]:
        one per re-rank cutoff of the workload's `cutoffs` cycle, or `pipe`."""
        cuts = self.cfg.get("cutoffs")
        return [pipe.with_overrides(rerank_cutoff=c) for c in cuts] if cuts else [pipe]

    def serve_chunk(self, pipes, qs, start: int, seconds: float, minimum: int, lat, results):
        """Serve distinct queries from `start` until `seconds` have passed and
        at least `minimum` were served; returns the next query index.

        Each run list is checked and reduced to its document ids between
        queries, outside the timed calls, so the run keeps no per-query
        entry tuples that would make its memory follow its speed."""
        tracer = self.tracer
        served = 0
        i = start
        deadline = time.perf_counter() + seconds
        while i < len(qs):
            qid, text = qs.query_ids[i], qs.texts[i]
            pipe = pipes[i % len(pipes)]
            self.cutoff_of[qid] = pipe.config.rerank_cutoff
            i += 1
            if tracer is not None:
                tracer.query = qid
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                entries, _ = pipe.run_query(qid, text)
            except Exception as exc:  # counted in `failed`; the loop keeps serving
                self.failed += 1
                print(f"perfbench: {qid}: run_query raised {exc!r}", file=sys.stderr)
                continue
            t1 = time.perf_counter()
            lat.append(t1 - t0)
            self.problems += checks.check_run_lists([(qid, entries)])
            results.append((qid, [d for d, _ in entries]))
            served += 1
            if t1 >= deadline and served >= minimum:
                break
        if tracer is not None:
            tracer.query = None
        return i

    # -- shared pieces -------------------------------------------------------

    def queries(self, split: str):
        return read_queries(self.art, split)

    def load_serving(self, ivf_path: Path, model_path: Path | None, cutoff: int, splits):
        """Serve set-up: load every artifact and build the Pipeline."""
        art = self.art
        coll = corpus.load_collection(art / "collection.tsv")
        inv = corpus.load_inverted_index(art / "lexical.crix")
        emb = embeddings.load_embeddings(art / "doc_embeddings.crem", len(coll))
        index = ivf.load_ivf(ivf_path)
        qvecs = {}
        for split in splits:
            qvecs.update(self.queries(split)[1])
        model = ltr.load_model(model_path) if model_path else None
        return pipeline.Pipeline(pipeline_config(self.cfg, self.seed, cutoff), coll, inv, emb,
                                 index, qvecs, model)

    def evaluate(self, qrels) -> list:
        """Quality over the evaluated prefix, checked against a recomputation.

        Evaluation needs only the order, so entries are rebuilt from the kept
        ids with rank-derived scores."""
        evald = [(qid, [(d, float(len(ids) - r)) for r, d in enumerate(ids)])
                 for qid, ids in self.results[:self.cfg["eval_queries"]]]
        run = metrics.RunList("perfbench")
        for qid, entries in evald:
            run.add(qid, entries)
        report = metrics.evaluate_run(run, qrels)
        self.metrics["ndcg_10"] = (report.means["ndcg@10"], "ratio")
        self.metrics["recall_1000"] = (report.means["recall@1000"], "ratio")
        self.problems += checks.check_quality(evald, qrels, report)
        return evald

    def sample(self) -> list:
        """Seeded sample of the evaluated queries, the same for every run of a seed."""
        rng = np.random.default_rng(self.seed)
        n = min(len(self.results), self.cfg["eval_queries"])
        picked = rng.choice(n, size=min(self.cfg["checked_queries"], n), replace=False)
        return [self.results[i] for i in sorted(picked)]

    def check_beats_first_stage(self, evald, qrels) -> None:
        """Re-ranked nDCG@10 exceeds the first-stage order's on the same queries."""
        c, pipe = self.cfg, self.pipe
        fs = []
        for qid, _ in evald:
            r = ivf.search(pipe.ivf_index, pipe.query_vectors[qid], c["k_first"], c["nprobe"])
            fs.append((qid, [(pipe.corpus.doc_ids[int(d)], 0.0) for d in r.ids]))
        first = checks.quality(fs, qrels)[0]
        self.notes["first_stage_ndcg_10"] = first
        if not self.metrics["ndcg_10"][0] > first:
            self.problems.append(f"re-ranked ndcg_10 {self.metrics['ndcg_10'][0]} does not "
                                 f"exceed first-stage {first}")

    def check_rerank(self) -> None:
        """Permutation of the candidates on every query; forest order, at the
        query's own cutoff, on the seeded sample."""
        c, pipe = self.cfg, self.pipe
        texts = dict(zip(self.serve_q.query_ids, self.serve_q.texts))

        def candidates(qid):
            return ivf.search(pipe.ivf_index, pipe.query_vectors[qid], c["k_first"],
                              c["nprobe"]).ids

        to_internal = pipe.corpus.id_to_internal
        for qid, ids in self.results:
            self.problems += checks.check_permutation([to_internal[d] for d in ids],
                                                      candidates(qid).tolist(), qid)
        for qid, ids in self.sample():
            run_ids = np.array([to_internal[d] for d in ids])
            q, cand, cut = pipe.query_vectors[qid], candidates(qid), self.cutoff_of[qid]
            feats = pipe.extractor.feature_matrix(pipe.extractor.tokenize_query(texts[qid]), q,
                                                  cand[:cut])[:, pipe.mask.included]
            prog = scorer.score_batch(pipe.compiled, feats)
            self.problems += checks.check_rerank_order(run_ids, cand, feats, pipe.model, prog,
                                                       cut, qid)

    # -- workloads -----------------------------------------------------------

    def run_serve_rerank(self, seconds: float) -> None:
        c, art = self.cfg, self.art
        qrels = corpus.load_qrels(art / "qrels.txt")
        self.serve_q = self.queries("serve")[0]
        train_q, valid_q = self.queries("train")[0], self.queries("valid")[0]
        models: list = []

        def train(k, pipe):
            """One training job: the training set (first stage over every list
            plus features for the sampled rows), fixed boosting rounds through
            ltr.train, and the model save. The served forest stays the
            prepared one."""
            t0 = time.perf_counter()
            rankings = pipeline.first_stage_rankings(pipe, train_q, c["k_first"])
            rankings.update(pipeline.first_stage_rankings(pipe, valid_q, c["k_first"]))
            tr = ltr.build_training_set(train_q, qrels, rankings, pipe.corpus, pipe.extractor,
                                        pipe.query_vectors, c["n_neg"], self.seed)
            va = ltr.build_training_set(valid_q, qrels, rankings, pipe.corpus, pipe.extractor,
                                        pipe.query_vectors, c["n_neg"], self.seed + 1)
            params = ltr.TrainParams(max_trees=c["rounds"], patience=c["rounds"],
                                     seed=self.seed)
            with self.span("bench.boosting"):
                ensemble = ltr.train(tr, va, params,
                                     features.make_mask(pipe.extractor.registry, "full"))
            ltr.save_model(ensemble, self.scratch / "model.json")
            dt = time.perf_counter() - t0
            models.append(ensemble)
            self.train_set = tr
            return dt

        self.measure(lambda: self.load_serving(art / "dense.criv", art / "forest.json",
                                               c["cutoff"],
                                               ("serve", "warmup", "train", "valid")),
                     train, seconds, "median")
        served = self.pipe.model
        self.notes["forest"] = {"trees": served.n_trees,
                                "leaves_mean": float(np.mean([t.n_leaves for t in served.trees]))}
        self.check_training(models, train_q)
        evald = self.evaluate(qrels)
        self.check_rerank()
        self.check_beats_first_stage(evald, qrels)

    def check_training(self, models: list, train_q) -> None:
        """The jobs agree, early stopping kept the right prefix, every round
        ran, and sampled training rows match the collection text."""
        c, ensemble = self.cfg, models[-1]
        self.notes.update(train_rows=int(sum(g.features.shape[0] for g in self.train_set.groups)),
                          kept_trees=ensemble.n_trees)
        if not all(same_trees(m, ensemble) for m in models):
            self.problems.append("repeated training jobs gave different models")
        self.problems += checks.check_kept_trees(ensemble)
        if len(ensemble.metadata["valid_log"]) != c["rounds"]:
            self.problems.append(f"fit {len(ensemble.metadata['valid_log'])} rounds, "
                                 f"expected {c['rounds']}")
        rng = np.random.default_rng(self.seed)
        texts = dict(zip(train_q.query_ids, train_q.texts))
        rows = [(texts[g.query_id], int(g.doc_ids[r]), g.features[r])
                for g in self.train_set.groups for r in range(g.features.shape[0])]
        pick = rng.choice(len(rows), size=min(c["lexical_samples"], len(rows)), replace=False)
        reg = self.pipe.extractor.registry
        self.problems += checks.check_lexical(self.pipe.corpus.texts,
                                              [rows[i] for i in sorted(pick)],
                                              3 * reg.dim + 2, list(reg.lexical_names))

    def run_serve_firststage(self, seconds: float) -> None:
        c, art = self.cfg, self.art
        qrels = corpus.load_qrels(art / "qrels.txt")
        self.serve_q = self.queries("serve")[0]

        def train(k, pipe):
            """Train the dense first stage again: k-means, lists, CRIV1 file."""
            t0 = time.perf_counter()
            cent = ivf.train_kmeans(pipe.doc_embeddings, pipe.ivf_index.nlist, c["kmeans_iters"],
                                    self.seed)
            index = ivf.build_ivf(pipe.doc_embeddings, cent)
            ivf.save_ivf(index, self.scratch / "dense.criv")
            dt = time.perf_counter() - t0
            if not same_index(index, pipe.ivf_index):
                self.problems.append(f"round {k}: retrained IVF differs from the prepared one")
            return dt

        self.measure(lambda: self.load_serving(art / "dense.criv", None, 0, ("serve", "warmup")),
                     train, seconds, "median")
        self.evaluate(qrels)
        pipe, index = self.pipe, self.pipe.ivf_index
        sample = self.sample()
        qv = pipe.query_vectors
        self.problems += checks.check_exact_search(ivf.search, index, pipe.doc_embeddings.rows,
                                                   [(qid, qv[qid]) for qid, _ in sample],
                                                   c["k_first"])
        for qid, doc_ids in sample:
            ids = np.array([pipe.corpus.id_to_internal[d] for d in doc_ids])
            self.problems += checks.check_probe_membership(index, qv[qid], ids, c["nprobe"], qid)
            want = ivf.search(index, qv[qid], c["k_first"], c["nprobe"]).ids[:c["k_final"]]
            if not np.array_equal(ids, want):
                self.problems.append(f"{qid}: first-stage run differs from ivf.search")


def same_trees(a: ltr.Ensemble, b: ltr.Ensemble) -> bool:
    """Equal forests, array for array."""
    fields = ("feature", "threshold", "left", "right", "value")
    return a.n_trees == b.n_trees and all(
        np.array_equal(getattr(x, f), getattr(y, f))
        for x, y in zip(a.trees, b.trees) for f in fields)


def same_index(a: ivf.IvfIndex, b: ivf.IvfIndex) -> bool:
    return (np.array_equal(a.centroids.vectors, b.centroids.vectors)
            and np.array_equal(a.offsets, b.offsets) and np.array_equal(a.ids, b.ids))


def run(name: str, seed: int, seconds: float, art: Path, scratch: Path, tracer=None) -> Run:
    r = Run(name, seed, art, scratch, tracer)
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        {"serve-rerank": r.run_serve_rerank,
         "serve-firststage": r.run_serve_firststage}[name](seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return r
