"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -s  to see the per-criterion
report. Oracle-style checks (brute force, explicit swaps, numerical
integration) live next to the criteria they back; tolerances and runtime
budgets are asserted, not just observed.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from blendrank.corpus import build_inverted_index
from blendrank.embeddings import EmbeddingMatrix
from blendrank.ivf import build_ivf, default_nlist, search, train_kmeans
from blendrank.ltr import (Ensemble, LtrDataset, LtrGroup, TrainParams,
                           compute_lambdas, train)
from blendrank.metrics import bonferroni, mrr_at_k, ndcg_at_k, paired_t_test, recall_at_k
from blendrank.pipeline import Pipeline, PipelineConfig
from blendrank.scorer import compile_ensemble, score_batch
from blendrank.synthetic import make_synthetic

import forest_oracle
from ivf_oracle import exhaustive_search
from pipeline_training import train_pipeline, train_variants
from test_ltr import brute_lambdas
from test_metrics import brute_ndcg
from test_scorer import random_ensemble


@contextlib.contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:>2} {name:<52} FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:>2} {name:<52} PASS  ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def build_world(n_docs, n_queries, dim, seed, nlist=None, kmeans_iters=10,
                k_first=1000, metric="dot"):
    data = make_synthetic(n_docs, n_queries, dim, seed)
    inv = build_inverted_index(data.corpus)
    nlist = nlist or default_nlist(n_docs)
    cents = train_kmeans(data.doc_embeddings, nlist, kmeans_iters, seed)
    ivf = build_ivf(data.doc_embeddings, cents, metric)
    qvecs = {qid: data.query_embeddings.rows[i]
             for i, qid in enumerate(data.queries.query_ids)}
    k_first = min(k_first, n_docs)
    cfg = PipelineConfig(dim=dim, k_first=k_first, rerank_cutoff=k_first,
                         nprobe=nlist, k_final=k_first)
    return data, Pipeline(cfg, data.corpus, inv, data.doc_embeddings, ivf, qvecs)


def desk_params(**kw):
    defaults = dict(learning_rate=0.15, num_leaves=32, min_sum_hessian_leaf=0.0,
                    min_data_leaf=10, patience=6, max_trees=25)
    defaults.update(kw)
    return TrainParams(**defaults)


def test_01_ivf_oracle_equivalence():
    with criterion(1, "IVF full probe equals exhaustive search", 5.0):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            m = EmbeddingMatrix(rng.normal(size=(500, 16)).astype(np.float32))
            idx = build_ivf(m, train_kmeans(m, 32, 10, seed), "dot")
            for _ in range(4):
                q = rng.normal(size=16)
                got = search(idx, q, 100, nprobe=32)
                want = exhaustive_search(m, q, 100, "dot")
                assert np.array_equal(got.ids, want.ids)
                np.testing.assert_allclose(got.scores, want.scores, atol=1e-6)


def test_02_monotone_recall_in_nprobe():
    with criterion(2, "recall@10 non-decreasing in nprobe (5 seeds)", 10.0):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            m = EmbeddingMatrix(rng.normal(size=(500, 16)).astype(np.float32))
            idx = build_ivf(m, train_kmeans(m, 32, 10, seed), "dot")
            queries = rng.normal(size=(15, 16))
            truth = [set(exhaustive_search(m, q, 10, "dot").ids.tolist())
                     for q in queries]
            prev = -1.0
            for nprobe in (1, 2, 4, 8, 16, 32):
                recall = float(np.mean([
                    len(set(search(idx, q, 10, nprobe).ids.tolist()) & t) / 10
                    for q, t in zip(queries, truth)]))
                assert recall >= prev - 1e-12, f"seed {seed} nprobe {nprobe}"
                prev = recall
            assert prev == 1.0


def test_03_scorer_equivalence():
    with criterion(3, "compiled scorer exactly equals naive traversal", 30.0):
        from test_scorer import random_tree
        rng_x = np.random.default_rng(7)
        X = np.round(rng_x.normal(size=(10_000, 25)), 2)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            trees = [random_tree(rng, 25, 64) for _ in range(200)]
            ens = Ensemble(trees, 0.1, 25)
            assert all(t.n_leaves == 64 for t in ens.trees)
            comp = compile_ensemble(ens)
            naive = forest_oracle.score_batch(ens, X)
            fast = score_batch(comp, X)
            assert np.array_equal(naive, fast), f"ensemble seed {seed}"


def test_04_lambda_correctness():
    with criterion(4, "lambdas match explicit-swap brute force", 10.0):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 4, n)
            tie_ids = rng.permutation(n)
            lam, hes = compute_lambdas(scores, labels, 1.0, 10, tie_ids)
            blam, bhes = brute_lambdas(scores, labels, 1.0, 10, tie_ids)
            assert np.max(np.abs(lam - blam)) <= 1e-9
            assert np.max(np.abs(hes - bhes)) <= 1e-9


def test_05_metric_oracles():
    with criterion(5, "nDCG/MRR/recall match hand-derived and brute force", 30.0):
        # Fixed hand-derived table. The third case is the worked example:
        # with the contractual exponential gain it evaluates to 0.6590018
        # (the 0.66967 figure corresponds to linear gain, which the metric does
        # not offer; the brute-force oracle checks it below).
        table = [
            (ndcg_at_k([2, 1, 0], [2, 1, 0], 10), 1.0),
            (ndcg_at_k([0, 0, 0], [2, 1], 10), 0.0),
            (ndcg_at_k([0, 2, 1], [2, 1, 0], 10), 0.6590018),
            (mrr_at_k([0, 0, 2, 1], 10), 1.0 / 3.0),
            (mrr_at_k([0] * 10 + [1], 10), 0.0),
            (recall_at_k(["a", "x", "b", "y"], {"a", "b", "c", "d"}, 4), 0.5),
        ]
        for got, want in table:
            assert abs(got - want) < 1e-5
        assert abs(brute_ndcg([0, 2, 1], [2, 1, 0], 10, exponential=False)
                   - 0.66967) < 1e-5
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = int(rng.integers(1, 20))
            all_grades = rng.integers(0, 4, n).tolist()
            ranked = list(all_grades)
            rng.shuffle(ranked)
            k = int(rng.integers(1, 15))
            assert abs(ndcg_at_k(ranked, all_grades, k)
                       - brute_ndcg(ranked, all_grades, k)) <= 1e-9


ABLATION_SEEDS = (201, 202, 203, 204, 205)


def test_06_ablation_trend():
    with criterion(6, "full-feature model beats single-family models", 300.0):
        means = {"full": [], "lexical": [], "dense": []}
        wins = 0
        for seed in ABLATION_SEEDS:
            data, pipe = build_world(5000, 500, 32, seed)
            tr = data.queries.subset(range(300))
            va = data.queries.subset(range(300, 400))
            te = data.queries.subset(range(400, 500))
            models = train_variants(pipe, tr, va, data.qrels,
                                    params=desk_params(), seed=seed)
            scores = {}
            for variant, model in models.items():
                ranked = Pipeline(pipe.config, pipe.corpus, pipe.inverted_index,
                                  pipe.doc_embeddings, pipe.ivf_index,
                                  pipe.query_vectors, model)
                _, _, rep = ranked.run_batch(te, data.qrels)
                scores[variant] = rep.means["ndcg@10"]
                means[variant].append(scores[variant])
            if scores["full"] >= scores["lexical"] and scores["full"] >= scores["dense"]:
                wins += 1
            print(f"    seed {seed}: full={scores['full']:.4f} "
                  f"lexical={scores['lexical']:.4f} dense={scores['dense']:.4f}")
        seed_mean = {v: float(np.mean(vals)) for v, vals in means.items()}
        print(f"    seed-mean: {seed_mean}")
        assert wins >= 4, f"full won only {wins}/5 seeds"
        assert seed_mean["full"] > seed_mean["lexical"]
        assert seed_mean["full"] > seed_mean["dense"]


def test_07_cascade_invariants():
    with criterion(7, "re-ranking permutes candidates and lifts nDCG@10", 120.0):
        data, pipe = build_world(2000, 200, 32, 301, k_first=1000)
        tr = data.queries.subset(range(100))
        va = data.queries.subset(range(100, 130))
        te = data.queries.subset(range(130, 200))
        model = train_pipeline(pipe, tr, va, data.qrels, params=desk_params(),
                               mask_variant="full", seed=301)
        ranked = Pipeline(pipe.config, pipe.corpus, pipe.inverted_index,
                          pipe.doc_embeddings, pipe.ivf_index,
                          pipe.query_vectors, model)
        nlist = pipe.ivf_index.nlist
        for nprobe in (1, 4, 16, nlist):
            base_run, _, base_rep = ranked.with_overrides(
                nprobe=nprobe, rerank_cutoff=0).run_batch(te, data.qrels)
            for cutoff in (20, 100, 1000):
                run, _, rep = ranked.with_overrides(
                    nprobe=nprobe, rerank_cutoff=cutoff).run_batch(te, data.qrels)
                for qid in base_run.entries:
                    assert set(run.doc_ids(qid)) == set(base_run.doc_ids(qid))
                assert rep.means["recall@1000"] == base_rep.means["recall@1000"]
                for qid, v in rep.per_query["recall@1000"].items():
                    assert v == base_rep.per_query["recall@1000"][qid]
                if cutoff in (20, 100):
                    assert rep.means["ndcg@10"] >= base_rep.means["ndcg@10"], \
                        f"nprobe={nprobe} cutoff={cutoff}"


def test_08_latency_trend():
    with criterion(8, "latency grows with nprobe; re-rank overhead bounded", 180.0):
        data, pipe = build_world(50_000, 80, 32, 401, nlist=256, kmeans_iters=5)
        tr = data.queries.subset(range(40))
        va = data.queries.subset(range(40, 60))
        te = data.queries.subset(range(60, 80))
        model = train_pipeline(pipe, tr, va, data.qrels,
                               params=desk_params(max_trees=30),
                               mask_variant="full", seed=401)
        ranked = Pipeline(pipe.config, pipe.corpus, pipe.inverted_index,
                          pipe.doc_embeddings, pipe.ivf_index,
                          pipe.query_vectors, model)
        means = {}
        for nprobe in (1, 8, 64, 256):
            p = ranked.with_overrides(nprobe=nprobe, rerank_cutoff=0)
            p.run_batch(te)  # warm caches before timing
            _, lat, _ = p.run_batch(te)
            means[nprobe] = lat.aggregate()["first_stage"]["mean"]
        print(f"    first-stage mean ms: "
              + ", ".join(f"nprobe={k}: {v:.3f}" for k, v in means.items()))
        assert means[1] < means[8] < means[64] < means[256]
        _, lat, _ = ranked.with_overrides(nprobe=256, rerank_cutoff=100).run_batch(te)
        agg = lat.aggregate()
        overhead = agg["feature_extraction"]["mean"] + agg["rerank"]["mean"]
        first = agg["first_stage"]["mean"]
        print(f"    re-rank overhead {overhead:.3f}ms vs first stage {first:.3f}ms "
              f"({100 * overhead / first:.0f}%)")
        assert overhead < 0.5 * first


def test_09_determinism(tmp_path):
    with criterion(9, "end-to-end pipeline is byte-reproducible", 120.0):
        from blendrank.cli import main as cli_main
        outputs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            out.mkdir()
            assert cli_main(["make-synthetic", "--out-dir", str(out), "--docs",
                             "400", "--queries", "60", "--dim", "16",
                             "--seed", "11", "--splits", "30,10,20"]) == 0
            assert cli_main(["index-lexical", "--collection",
                             f"{out}/collection.tsv", "--out",
                             f"{out}/index.crix"]) == 0
            assert cli_main(["index-dense", "--embeddings",
                             f"{out}/doc_embeddings.crem", "--out",
                             f"{out}/index.criv", "--kmeans-iters", "8",
                             "--seed", "11"]) == 0
            common = ["--collection", f"{out}/collection.tsv",
                      "--lexical-index", f"{out}/index.crix",
                      "--dense-index", f"{out}/index.criv",
                      "--doc-embeddings", f"{out}/doc_embeddings.crem",
                      "--k-first", "300", "--rerank-cutoff", "300",
                      "--k-final", "300"]
            assert cli_main(["build-train", *common,
                             "--train-queries", f"{out}/queries-train.tsv",
                             "--valid-queries", f"{out}/queries-valid.tsv",
                             "--qrels", f"{out}/qrels.txt", "--seed", "11",
                             "--train-out", f"{out}/train.npz",
                             "--valid-out", f"{out}/valid.npz"]) == 0
            assert cli_main(["train", "--train-data", f"{out}/train.npz",
                             "--valid-data", f"{out}/valid.npz",
                             "--out", f"{out}/model.json",
                             "--num-leaves", "16", "--min-sum-hessian", "0",
                             "--min-data-leaf", "5", "--patience", "4",
                             "--max-trees", "10", "--seed", "11"]) == 0
            assert cli_main(["search", *common,
                             "--queries", f"{out}/queries-test.tsv",
                             "--model", f"{out}/model.json",
                             "--out", f"{out}/run.txt"]) == 0
            assert cli_main(["sweep", *common,
                             "--queries", f"{out}/queries-test.tsv",
                             "--model", f"{out}/model.json",
                             "--qrels", f"{out}/qrels.txt",
                             "--probes", "1,4,16", "--cutoffs", "20,100",
                             "--no-latency", "--out", f"{out}/sweep.csv"]) == 0
            assert cli_main(["sweep", *common,
                             "--queries", f"{out}/queries-test.tsv",
                             "--model", f"{out}/model.json",
                             "--qrels", f"{out}/qrels.txt",
                             "--probes", "1,4", "--cutoffs", "20",
                             "--out", f"{out}/sweep-latency.csv"]) == 0
            outputs.append(out)
        a, b = outputs
        for name in ("run.txt", "model.json", "sweep.csv", "collection.tsv",
                     "qrels.txt", "index.crix", "index.criv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        # The latency-bearing sweep matches on every column except latency,
        # which is wall-clock and therefore excluded from the byte compare.
        rows_a = [line.split(",") for line in (a / "sweep-latency.csv").read_text().splitlines()]
        rows_b = [line.split(",") for line in (b / "sweep-latency.csv").read_text().splitlines()]
        for ra, rb in zip(rows_a, rows_b):
            assert [v for i, v in enumerate(ra) if i != 3] == \
                   [v for i, v in enumerate(rb) if i != 3]


def test_10_statistics():
    with criterion(10, "paired t-test and Bonferroni behave as derived", 30.0):
        # Hand-derived: differences [2.1, 1.9, 2.0, 2.2, 1.8], mean 2.0,
        # sample sd sqrt(0.025) -> t = mean / (sd / sqrt(n)) = 28.2843.
        r = paired_t_test([2.1, 1.9, 2.0, 2.2, 1.8], [0.0] * 5)
        assert abs(r.t - 28.28427125) < 0.05
        assert r.p < 1e-5
        rng = np.random.default_rng(47)
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            fwd, rev = paired_t_test(x, y), paired_t_test(y, x)
            assert fwd.t == -rev.t and fwd.p == rev.p
            assert 0.0 <= fwd.p <= 1.0
        assert bonferroni([0.004], 2) == [0.008]
        assert bonferroni([0.9, 0.3], 5) == [1.0, 1.0]
        assert bonferroni([0.03], 1) == [0.03]
        eq = paired_t_test([0.5, 0.6], [0.5, 0.6])
        assert eq.t == 0.0 and eq.p == 1.0
        zv = paired_t_test([1.0, 1.0, 1.0, 1.0], [0.0] * 4)
        assert zv.p == 0.0 and math.isinf(zv.t)
