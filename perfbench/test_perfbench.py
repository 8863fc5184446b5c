"""Tests of the benchmark's own checks, cache key, tracer and entry point.

Each output check must accept the program's real output and reject a
deliberately wrong one.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blendrank import corpus, features, ivf, ltr, metrics, scorer, synthetic
from perfbench import checks, prepare, tracing

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def small():
    data = synthetic.make_synthetic(400, 20, 8, seed=3)
    inv = corpus.build_inverted_index(data.corpus)
    index = ivf.build_ivf(data.doc_embeddings, ivf.train_kmeans(data.doc_embeddings, 10, 5, 3))
    return data, inv, index


def _forest(n_features=12, n_trees=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, n_features))
    params = ltr.TrainParams(num_leaves=16, min_data_leaf=5, min_sum_hessian_leaf=0.0)
    trees = [ltr.fit_tree(X, rng.normal(size=300), rng.uniform(0.1, 1.0, size=300), params)
             for _ in range(n_trees)]
    return ltr.Ensemble(trees, 0.1, n_features), rng.normal(size=(60, n_features))


def test_run_lists_reject_swapped_ranks_and_duplicates():
    good = [("q", [("a", 3.0), ("b", 2.0), ("c", 1.0)])]
    assert checks.check_run_lists(good) == []
    swapped = [("q", [("b", 2.0), ("a", 3.0), ("c", 1.0)])]
    assert checks.check_run_lists(swapped)
    dup = [("q", [("a", 3.0), ("a", 2.0), ("c", 1.0)])]
    assert checks.check_run_lists(dup)


def test_quality_check_rejects_off_by_one_ndcg(small):
    data = small[0]
    results = []
    for qid in data.queries.query_ids[:10]:
        judged = list(data.qrels.for_query(qid))
        ids = judged[::-1] + [d for d in data.corpus.doc_ids[:30] if d not in judged]
        results.append((qid, [(d, float(len(ids) - i)) for i, d in enumerate(ids)]))
    run = metrics.RunList("t")
    for qid, entries in results:
        run.add(qid, entries)
    report = metrics.evaluate_run(run, data.qrels)
    assert checks.check_quality(results, data.qrels, report) == []
    per = {k: dict(v) for k, v in report.per_query.items()}
    for qid, entries in results:
        judged = data.qrels.for_query(qid)
        grades = [judged.get(d, 0) for d, _ in entries]
        per["ndcg@10"][qid] = checks.ndcg_at(grades, list(judged.values()), 11)
    off = metrics.MetricReport(per)
    assert off.means["ndcg@10"] != report.means["ndcg@10"]
    assert checks.check_quality(results, data.qrels, off)


def test_exact_search_and_probe_membership(small):
    data, _, index = small
    rows = data.doc_embeddings.rows
    qvecs = [(qid, data.query_embeddings.rows[i]) for i, qid in enumerate(data.queries.query_ids)]
    assert checks.check_exact_search(ivf.search, index, rows, qvecs[:5], 50) == []

    def swapped(index, q, k, nprobe):
        r = ivf.search(index, q, k, nprobe)
        ids = r.ids.copy()
        ids[[0, 1]] = ids[[1, 0]]
        return ivf.Ranking(ids, r.scores)

    assert checks.check_exact_search(swapped, index, rows, qvecs[:5], 50)
    q = qvecs[0][1]
    got = ivf.search(index, q, 50, 2).ids
    assert checks.check_probe_membership(index, q, got, 2, "q") == []
    outside = np.setdiff1d(np.arange(index.n_docs),
                           np.concatenate([index.list_ids(int(c))
                                           for c in tracing.top_lists(index, q, 2)]))
    bad = np.concatenate([got[:-1], outside[:1]])
    assert checks.check_probe_membership(index, q, bad, 2, "q")


def test_forest_walk_matches_program_and_rejects_wrong_order():
    ens, X = _forest()
    own = checks.walk_forest(ens.trees, ens.learning_rate, X)
    prog = scorer.score_batch(scorer.compile_ensemble(ens), X)
    assert np.array_equal(own, prog)
    assert np.array_equal(own, ens.score_batch(X))
    cand = np.arange(100, 100 + X.shape[0] + 20)
    cut = X.shape[0]
    head = cand[:cut]
    order = np.concatenate([head[np.lexsort((head, -own))], cand[cut:]])
    assert checks.check_rerank_order(order, cand, X, ens, prog, cut, "q") == []
    swapped = order.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert checks.check_rerank_order(swapped, cand, X, ens, prog, cut, "q")
    nudged = prog.copy()
    nudged[3] = np.nextafter(nudged[3], np.inf)
    assert checks.check_rerank_order(order, cand, X, ens, nudged, cut, "q")
    assert checks.check_permutation(order.tolist(), cand.tolist(), "q") == []
    dup = order.copy()
    dup[1] = dup[0]
    assert checks.check_permutation(dup.tolist(), cand.tolist(), "q")


def test_kept_trees_check_rejects_off_by_one():
    ens, _ = _forest(n_trees=2)
    ens.metadata["valid_log"] = [0.5, 0.7, 0.7, 0.6]
    assert ens.n_trees == 2
    assert checks.check_kept_trees(ens) == []
    ens.trees = ens.trees[:1]
    assert checks.check_kept_trees(ens)


def test_lexical_check_against_program_features(small):
    data, inv, _ = small
    ex = features.FeatureExtractor(inv, data.doc_embeddings)
    reg = ex.registry
    samples = []
    for i in range(5):
        text = data.queries.texts[i]
        docs = np.arange(i * 20, i * 20 + 20)
        feats = ex.feature_matrix(ex.tokenize_query(text), data.query_embeddings.rows[i], docs)
        samples += [(text, int(d), feats[j]) for j, d in enumerate(docs)]
    off = 3 * reg.dim + 2
    names = list(reg.lexical_names)
    assert checks.check_lexical(data.corpus.texts, samples, off, names) == []
    col = off + names.index("lex_bm25_total")
    hit = next(k for k, s in enumerate(samples) if s[2][col] > 0)
    row = samples[hit][2].copy()
    row[col] *= 1 + 1e-9
    bad = samples[:hit] + [(samples[hit][0], samples[hit][1], row)] + samples[hit + 1:]
    assert checks.check_lexical(data.corpus.texts, bad, off, names)


def test_cache_key_changes_with_every_program_file(tmp_path):
    shutil.copytree(ROOT / "src" / "blendrank", tmp_path / "src" / "blendrank",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    base = prepare.cache_key(tmp_path, "train", 1)
    assert prepare.cache_key(tmp_path, "train", 1) == base
    assert prepare.cache_key(tmp_path, "train", 2) != base
    files = sorted((tmp_path / "src" / "blendrank").rglob("*.py"))
    assert files
    for p in files:
        original = p.read_bytes()
        p.write_bytes(original + b"\n")
        assert prepare.cache_key(tmp_path, "train", 1) != base, p.name
        p.write_bytes(original)
    (tmp_path / "src" / "blendrank" / "extra.py").write_text("")
    assert prepare.cache_key(tmp_path, "train", 1) != base
    (tmp_path / "src" / "blendrank" / "extra.py").unlink()
    (tmp_path / "perfbench" / "workloads.py").write_text("# changed\n")
    assert prepare.cache_key(tmp_path, "train", 1) != base


def test_missing_traced_function_is_reported_not_zero():
    t = tracing.Tracer()
    t.install([("blendrank.ivf", "no_such_search", "ivf.search", None)])
    t.uninstall()
    assert t.missing == ["ivf.search"]
    layer, missing = tracing.summarize(t)
    assert missing == ["ivf.search"]
    assert "ivf.search_p50_ms" not in layer and "ivf.candidates_mean" not in layer
    assert "features.feature_matrix_p50_ms" in layer


def test_self_time_detects_overlapping_stages():
    S = tracing.Span
    good = [S("pipeline.run_query", 0.0, 10.0, -1, "q", "serve"),
            S("ivf.search", 1.0, 4.0, 0, "q", "serve"),
            S("scorer.score_batch", 4.0, 9.0, 0, "q", "serve")]
    selfs, problems = tracing.self_times(good, "pipeline.run_query")
    assert problems == [] and selfs == [pytest.approx(2.0)]
    bad = good[:2] + [S("scorer.score_batch", 3.0, 9.0, 0, "q", "serve")]
    assert tracing.self_times(bad, "pipeline.run_query")[1]


def test_entry_point_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve-rerank",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_match_the_harness():
    import json

    from perfbench import sweeps, workloads
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    layer, _ = tracing.summarize(tracing.Tracer())
    produced = set(layer) | set(sweeps.metric_names()) | {"scorer.trees", "scorer.conditions"}
    assert {m["name"] for m in bench["per_layer"]} == produced
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "qps", "query_p50_ms", "query_p95_ms", "train_s", "ndcg_10", "recall_1000",
        "peak_rss_mb"}
