"""Cascade orchestration, synthetic generator, and CLI tests."""

import numpy as np
import pytest

from blendrank.cli import main as cli_main
from blendrank.corpus import build_inverted_index, load_qrels
from blendrank.embeddings import toy_encode
from blendrank.ivf import build_ivf, default_nlist, exhaustive_search, train_kmeans
from blendrank.ltr import TrainParams
from blendrank.metrics import evaluate_run, load_run
from blendrank.pipeline import (LatencyBreakdown, Pipeline, PipelineConfig,
                                first_stage_rankings, sweep, sweep_to_csv,
                                train_pipeline)
from blendrank.synthetic import make_synthetic


@pytest.fixture(scope="module")
def world():
    """Small synthetic world with indexes, shared across this module."""
    data = make_synthetic(400, 60, 16, seed=5)
    inv = build_inverted_index(data.corpus)
    nlist = default_nlist(400)
    cents = train_kmeans(data.doc_embeddings, nlist, 10, 5)
    ivf = build_ivf(data.doc_embeddings, cents, "dot")
    qvecs = {qid: data.query_embeddings.rows[i]
             for i, qid in enumerate(data.queries.query_ids)}
    cfg = PipelineConfig(dim=16, k_first=200, rerank_cutoff=200, nprobe=nlist,
                         k_final=200)
    return data, Pipeline(cfg, data.corpus, inv, data.doc_embeddings, ivf, qvecs)


@pytest.fixture(scope="module")
def trained(world):
    data, pipe = world
    tr = data.queries.subset(range(30))
    va = data.queries.subset(range(30, 40))
    params = TrainParams(learning_rate=0.15, num_leaves=16,
                         min_sum_hessian_leaf=0.0, min_data_leaf=5,
                         patience=5, max_trees=15)
    model = train_pipeline(pipe, tr, va, data.qrels, params=params, seed=5)
    return Pipeline(pipe.config, pipe.corpus, pipe.inverted_index,
                    pipe.doc_embeddings, pipe.ivf_index, pipe.query_vectors, model)


class TestSynthetic:
    def test_deterministic(self):
        a = make_synthetic(150, 10, 8, seed=3)
        b = make_synthetic(150, 10, 8, seed=3)
        assert a.corpus.texts == b.corpus.texts
        assert a.queries.texts == b.queries.texts
        assert a.qrels.judgments == b.qrels.judgments
        np.testing.assert_array_equal(a.doc_embeddings.rows, b.doc_embeddings.rows)

    def test_every_query_has_grade2(self):
        data = make_synthetic(300, 40, 8, seed=9)
        for qid in data.queries.query_ids:
            assert 2 in data.qrels.for_query(qid).values()

    def test_relevance_requires_topic_and_overlap(self):
        data = make_synthetic(300, 25, 8, seed=11)
        topic_of = {d: int(t) for d, t in zip(data.corpus.doc_ids, data.doc_topics)}
        token_sets = [set(t.split()) for t in data.corpus.texts]
        internal = data.corpus.id_to_internal
        for j, qid in enumerate(data.queries.query_ids):
            words = set(data.queries.texts[j].split())
            for did, grade in data.qrels.for_query(qid).items():
                assert grade >= 1
                assert topic_of[did] == int(data.query_topics[j])
                assert len(words & token_sets[internal[did]]) >= len(words) - 1

    def test_minimum_doc_count(self):
        with pytest.raises(ValueError):
            make_synthetic(50, 5, 8, seed=0)


def test_bm25_vs_cosine_top10_disagreement():
    data = make_synthetic(400, 40, 16, seed=5)
    inv = build_inverted_index(data.corpus)
    from blendrank.features import _QueryContext
    from lexical_oracle import lexical_features
    disagree = 0
    for j, qid in enumerate(data.queries.query_ids):
        tokens = data.queries.texts[j].split()
        ctx = _QueryContext(inv, tokens)
        bm25 = np.array([lexical_features(inv, ctx, d)[24] for d in range(400)])
        top_bm25 = set(np.lexsort((np.arange(400), -bm25))[:10].tolist())
        q = data.query_embeddings.rows[j].astype(np.float64)
        top_cos = set(exhaustive_search(data.doc_embeddings, q, 10, "cosine").ids.tolist())
        if top_bm25 != top_cos:
            disagree += 1
    assert disagree / len(data.queries.query_ids) > 0.10


class TestConfig:
    def test_cutoff_bounds(self):
        with pytest.raises(ValueError):
            PipelineConfig(k_first=100, rerank_cutoff=200)
        with pytest.raises(ValueError):
            PipelineConfig(k_first=100, k_final=200)

    def test_from_file_with_overrides(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# cascade settings\nnprobe = 4\nk_first = 50\nmodel = m.json\n")
        cfg = PipelineConfig.from_file(p, rerank_cutoff=10, k_final=20)
        assert cfg.nprobe == 4 and cfg.k_first == 50
        assert cfg.model == "m.json"
        assert cfg.rerank_cutoff == 10

    def test_unknown_key_rejected(self, tmp_path):
        # The IVF metric is fixed when the index is built, the mask comes from
        # the model and qrels from --qrels, so none is a config key.
        p = tmp_path / "run.cfg"
        for line in ("bogus = 1", "metric = cosine", "mask_variant = lexical",
                     "qrels = qrels.txt"):
            p.write_text(line + "\n")
            with pytest.raises(ValueError, match="unknown config key"):
                PipelineConfig.from_file(p)


def _query(data, i):
    return data.queries.query_ids[i], data.queries.texts[i]


class TestCascade:
    def test_zero_cutoff_is_first_stage_identity(self, world, trained):
        data, _ = world
        p = trained.with_overrides(rerank_cutoff=0)
        qid, text = _query(data, 41)
        entries, _ = p.run_query(qid, text)
        ranking = first_stage_rankings(p, _single(qid, text), p.config.k_first,
                                       p.config.nprobe)[qid]
        assert [d for d, _ in entries] == [p.corpus.doc_ids[i] for i in ranking.ids]

    def test_entries_are_doc_ids_with_descending_float_scores(self, world, trained):
        data, _ = world
        qid, text = _query(data, 44)
        entries, _ = trained.run_query(qid, text)
        n = len(entries)
        assert [s for _, s in entries] == [float(n - i) for i in range(n)]
        assert all(type(d) is str and type(s) is float for d, s in entries)
        assert len({d for d, _ in entries}) == n

    def test_rerank_is_permutation_of_candidates(self, world, trained):
        data, _ = world
        qid, text = _query(data, 42)
        with_model, _ = trained.run_query(qid, text)
        without, _ = trained.with_overrides(rerank_cutoff=0).run_query(qid, text)
        assert sorted(d for d, _ in with_model) == sorted(d for d, _ in without)

    def test_recall_invariant_under_reranking(self, world, trained):
        data, _ = world
        test_queries = data.queries.subset(range(40, 60))
        _, _, rep0 = trained.with_overrides(rerank_cutoff=0).run_batch(test_queries, data.qrels)
        for cutoff in (20, 100, 200):
            _, _, rep = trained.with_overrides(rerank_cutoff=cutoff).run_batch(
                test_queries, data.qrels)
            assert rep.means["recall@1000"] == rep0.means["recall@1000"]

    def test_reranking_improves_ndcg(self, world, trained):
        data, _ = world
        test_queries = data.queries.subset(range(40, 60))
        _, _, rep0 = trained.with_overrides(rerank_cutoff=0).run_batch(test_queries, data.qrels)
        _, _, rep = trained.run_batch(test_queries, data.qrels)
        assert rep.means["ndcg@10"] >= rep0.means["ndcg@10"]

    def test_deterministic_run(self, world, trained):
        data, _ = world
        qs = data.queries.subset(range(40, 48))
        run_a, _, _ = trained.run_batch(qs)
        run_b, _, _ = trained.run_batch(qs)
        assert run_a == run_b

    def test_missing_model_flagged_in_tag(self, world):
        _, pipe = world
        assert pipe.run_tag.endswith(".firststage")

    def test_empty_query_set(self, trained):
        from blendrank.corpus import QuerySet
        run, latency, _ = trained.run_batch(QuerySet([], []))
        assert run.entries == {}
        assert latency.aggregate()["total"]["mean"] == 0.0

    def test_emitted_run_metrics_equal_in_process(self, world, trained, tmp_path):
        from blendrank.metrics import write_run
        data, _ = world
        qs = data.queries.subset(range(40, 50))
        run, _, report = trained.run_batch(qs, data.qrels)
        path = tmp_path / "run.txt"
        write_run(run, path)
        reloaded = evaluate_run(load_run(path), data.qrels)
        for metric, vals in report.per_query.items():
            for qid, v in vals.items():
                assert reloaded.per_query[metric][qid] == v

    def test_latency_totals_cover_stages(self, world, trained):
        data, _ = world
        qid, text = _query(data, 43)
        _, lat = trained.run_query(qid, text)
        encode, first, feats, rerank, total = lat
        assert total >= encode + first + feats + rerank - 0.5
        assert min(encode, first, feats, rerank, total) >= 0.0

    def test_latency_aggregate_fields(self):
        lb = LatencyBreakdown()
        lb.record(1.0, 2.0, 3.0, 4.0, 10.5)
        agg = lb.aggregate()
        assert agg["total"]["mean"] == 10.5
        assert set(agg) == {"encode", "first_stage", "feature_extraction",
                            "rerank", "total"}

    def test_toy_encode_fallback_for_unknown_query(self, trained):
        entries, _ = trained.run_query("unseen", "p0s0 p0s1 p0s2")
        assert len(entries) > 0


class TestSweep:
    def test_rows_and_baseline(self, world, trained):
        data, _ = world
        qs = data.queries.subset(range(40, 50))
        rows = sweep(trained, [1, 2], [20, 100], qs, data.qrels)
        assert len(rows) == 2 * 3  # cutoffs {0, 20, 100} per probe
        assert {r["cutoff"] for r in rows} == {0, 20, 100}

    def test_recall_non_decreasing_in_probes(self, world, trained):
        data, _ = world
        qs = data.queries.subset(range(40, 50))
        rows = sweep(trained, [1, 2, 4], [20], qs, data.qrels, emit_latency=False)
        for cutoff in (0, 20):
            recalls = [r["r@1000"] for r in rows if r["cutoff"] == cutoff]
            assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))

    def test_csv_deterministic_without_latency(self, world, trained, tmp_path):
        data, _ = world
        qs = data.queries.subset(range(40, 46))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep_to_csv(sweep(trained, [1, 2], [20], qs, data.qrels, emit_latency=False), p1)
        sweep_to_csv(sweep(trained, [1, 2], [20], qs, data.qrels, emit_latency=False), p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "nprobe,cutoff,ndcg@10,latency_ms,r@1000,mrr@10"

    def test_empty_lists_rejected(self, world, trained):
        data, _ = world
        with pytest.raises(ValueError):
            sweep(trained, [], [10], data.queries, data.qrels)


class TestTrainPipeline:
    def test_overlapping_split_rejected(self, world):
        data, pipe = world
        qs = data.queries.subset(range(5))
        with pytest.raises(ValueError, match="overlap"):
            train_pipeline(pipe, qs, qs, data.qrels)

    def test_mask_variants_share_structure(self, world, tmp_path):
        from blendrank.ltr import save_model
        data, pipe = world
        tr = data.queries.subset(range(20))
        va = data.queries.subset(range(20, 28))
        params = TrainParams(learning_rate=0.15, num_leaves=8,
                             min_sum_hessian_leaf=0.0, min_data_leaf=5,
                             patience=3, max_trees=5)
        for variant in ("full", "lexical", "dense"):
            model = train_pipeline(pipe, tr, va, data.qrels, params=params,
                                   mask_variant=variant, seed=1)
            assert model.mask_variant == variant
            save_model(model, tmp_path / f"{variant}.json")
        assert (tmp_path / "full.json").exists()

    def test_retrain_same_seed_byte_identical(self, world, tmp_path):
        from blendrank.ltr import save_model
        data, pipe = world
        tr = data.queries.subset(range(20))
        va = data.queries.subset(range(20, 28))
        params = TrainParams(learning_rate=0.15, num_leaves=8,
                             min_sum_hessian_leaf=0.0, min_data_leaf=5,
                             patience=3, max_trees=5)
        for name in ("a", "b"):
            model = train_pipeline(pipe, tr, va, data.qrels, params=params, seed=2)
            save_model(model, tmp_path / f"{name}.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_variants_share_negative_sampling(self, world):
        from blendrank.pipeline import train_variants
        data, pipe = world
        tr = data.queries.subset(range(20))
        va = data.queries.subset(range(20, 28))
        params = TrainParams(learning_rate=0.15, num_leaves=8,
                             min_sum_hessian_leaf=0.0, min_data_leaf=5,
                             patience=3, max_trees=4)
        models = train_variants(pipe, tr, va, data.qrels, params=params, seed=7)
        assert set(models) == {"full", "lexical", "dense"}
        single = train_pipeline(pipe, tr, va, data.qrels, params=params,
                                mask_variant="lexical", seed=7)
        X = np.random.default_rng(0).random((8, models["lexical"].feature_count))
        np.testing.assert_array_equal(models["lexical"].score_batch(X),
                                      single.score_batch(X))

    def test_tuning_fits_each_trial_once_and_keeps_the_winner(self, world, monkeypatch,
                                                               tmp_path):
        from blendrank import ltr, pipeline
        from blendrank.pipeline import build_blended_datasets, train_variant
        data, pipe = world
        full_tr, full_va = build_blended_datasets(pipe, data.queries.subset(range(20)),
                                                  data.queries.subset(range(20, 28)),
                                                  data.qrels, 10, 3)
        params = TrainParams(learning_rate=0.15, num_leaves=8, min_sum_hessian_leaf=0.0,
                             min_data_leaf=5, patience=3, max_trees=4)
        ranges = {"min_data_range": (1, 5), "hessian_range": (0.0, 1.0)}
        registry = pipe.extractor.registry
        real_train = ltr.train
        calls = []

        def counted_train(*args, **kwargs):
            calls.append(args[2])
            return real_train(*args, **kwargs)

        monkeypatch.setattr(ltr, "train", counted_train)
        monkeypatch.setattr(pipeline, "train", counted_train)
        tuned = train_variant(full_tr, full_va, registry, "lexical", params,
                              tune_trials=3, seed=4, tune_ranges=ranges)
        assert len(calls) == 3
        refit = train_variant(full_tr, full_va, registry, "lexical",
                              TrainParams(**tuned.metadata["params"]))
        ltr.save_model(tuned, tmp_path / "tuned.json")
        ltr.save_model(refit, tmp_path / "refit.json")
        assert (tmp_path / "tuned.json").read_bytes() == (tmp_path / "refit.json").read_bytes()


class TestDatasetFiles:
    def test_round_trip(self, world, tmp_path):
        from blendrank.ltr import load_dataset, save_dataset
        from blendrank.pipeline import build_blended_datasets
        data, pipe = world
        tr = data.queries.subset(range(10))
        va = data.queries.subset(range(10, 15))
        full_train, _ = build_blended_datasets(pipe, tr, va, data.qrels, 10, 3)
        path = tmp_path / "train.npz"
        save_dataset(full_train, path, registry_dim=pipe.extractor.registry.dim)
        loaded, dim = load_dataset(path)
        assert dim == 16
        assert len(loaded.groups) == len(full_train.groups)
        for a, b in zip(loaded.groups, full_train.groups):
            assert a.query_id == b.query_id
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.doc_ids, b.doc_ids)


class TestRegistryBinding:
    def test_model_from_another_registry_rejected(self, world, trained, tmp_path):
        import json
        from blendrank.features import build_registry
        from blendrank.ltr import load_model, save_model
        _, pipe = world
        path = tmp_path / "model.json"
        save_model(trained.model, path)
        doc = json.loads(path.read_text())
        assert doc["registry_hash"] == pipe.extractor.registry.registry_hash
        doc["registry_hash"] = build_registry(8).registry_hash
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="different feature registry"):
            Pipeline(pipe.config, pipe.corpus, pipe.inverted_index, pipe.doc_embeddings,
                     pipe.ivf_index, pipe.query_vectors, load_model(path))


def _single(qid, text):
    from blendrank.corpus import QuerySet
    return QuerySet([qid], [text])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    rc = cli_main(["make-synthetic", "--out-dir", str(out), "--docs", "300",
                   "--queries", "45", "--dim", "8", "--seed", "1",
                   "--splits", "25,10,10"])
    assert rc == 0
    rc = cli_main(["index-lexical", "--collection", f"{out}/collection.tsv",
                   "--out", f"{out}/index.crix"])
    assert rc == 0
    rc = cli_main(["index-dense", "--embeddings", f"{out}/doc_embeddings.crem",
                   "--out", f"{out}/index.criv", "--kmeans-iters", "5",
                   "--seed", "1"])
    assert rc == 0
    for name in ("train", "valid", "test"):
        query_slice(out, name, f"{out}/qe-{name}.crem")
    return out


def query_slice(workspace, name, path):
    """Query embeddings are stored for the full set; slice per split."""
    from blendrank.corpus import load_queries
    from blendrank.embeddings import load_embeddings, save_embeddings, EmbeddingMatrix
    all_q = load_queries(f"{workspace}/queries-train.tsv").query_ids \
        + load_queries(f"{workspace}/queries-valid.tsv").query_ids \
        + load_queries(f"{workspace}/queries-test.tsv").query_ids
    emb = load_embeddings(f"{workspace}/query_embeddings.crem")
    wanted = load_queries(f"{workspace}/queries-{name}.tsv").query_ids
    pos = {q: i for i, q in enumerate(all_q)}
    rows = np.vstack([emb.rows[pos[q]] for q in wanted])
    save_embeddings(EmbeddingMatrix(rows), path)


@pytest.fixture(scope="module")
def trained_workspace(workspace):
    """The workspace plus model.json, trained directly by the CLI."""
    out = workspace
    rc = cli_main([
        "train", "--collection", f"{out}/collection.tsv",
        "--lexical-index", f"{out}/index.crix",
        "--dense-index", f"{out}/index.criv",
        "--doc-embeddings", f"{out}/doc_embeddings.crem",
        "--train-queries", f"{out}/queries-train.tsv",
        "--valid-queries", f"{out}/queries-valid.tsv",
        "--train-query-embeddings", f"{out}/qe-train.crem",
        "--valid-query-embeddings", f"{out}/qe-valid.crem",
        "--qrels", f"{out}/qrels.txt", "--out", f"{out}/model.json",
        "--log", f"{out}/train.csv",
        "--k-first", "150", "--rerank-cutoff", "150", "--k-final", "150",
        "--num-leaves", "8", "--min-sum-hessian", "0", "--min-data-leaf", "5",
        "--patience", "3", "--max-trees", "5", "--seed", "3"])
    assert rc == 0
    return out


class TestCli:
    def test_full_cli_cycle(self, trained_workspace, tmp_path):
        out = trained_workspace
        rc = cli_main([
            "search", "--collection", f"{out}/collection.tsv",
            "--lexical-index", f"{out}/index.crix",
            "--dense-index", f"{out}/index.criv",
            "--doc-embeddings", f"{out}/doc_embeddings.crem",
            "--queries", f"{out}/queries-test.tsv",
            "--query-embeddings", f"{out}/qe-test.crem",
            "--model", f"{out}/model.json",
            "--qrels", f"{out}/qrels.txt",
            "--k-first", "150", "--rerank-cutoff", "150", "--k-final", "150",
            "--out", f"{out}/run.txt"])
        assert rc == 0
        rc = cli_main(["evaluate", "--run", f"{out}/run.txt",
                       "--qrels", f"{out}/qrels.txt",
                       "--csv", f"{out}/metrics.csv"])
        assert rc == 0
        rc = cli_main([
            "sweep", "--collection", f"{out}/collection.tsv",
            "--lexical-index", f"{out}/index.crix",
            "--dense-index", f"{out}/index.criv",
            "--doc-embeddings", f"{out}/doc_embeddings.crem",
            "--queries", f"{out}/queries-test.tsv",
            "--query-embeddings", f"{out}/qe-test.crem",
            "--model", f"{out}/model.json", "--qrels", f"{out}/qrels.txt",
            "--k-first", "150", "--rerank-cutoff", "150", "--k-final", "150",
            "--probes", "1,2", "--cutoffs", "20", "--no-latency",
            "--out", f"{out}/sweep.csv"])
        assert rc == 0
        rc = cli_main(["gain-report", "--model", f"{out}/model.json"])
        assert rc == 0
        rc = cli_main(["diff-report", "--run-a", f"{out}/run.txt",
                       "--run-b", f"{out}/run.txt", "--qrels", f"{out}/qrels.txt"])
        assert rc == 0
        assert load_run(f"{out}/run.txt").entries
        assert (out / "sweep.csv").read_text().count("\n") == 1 + 2 * 2

    def test_build_train_then_train_from_npz(self, trained_workspace, tmp_path):
        out = trained_workspace
        common = ["--collection", f"{out}/collection.tsv",
                  "--lexical-index", f"{out}/index.crix",
                  "--dense-index", f"{out}/index.criv",
                  "--doc-embeddings", f"{out}/doc_embeddings.crem",
                  "--k-first", "150", "--rerank-cutoff", "150", "--k-final", "150"]
        rc = cli_main(["build-train", *common,
                       "--train-queries", f"{out}/queries-train.tsv",
                       "--valid-queries", f"{out}/queries-valid.tsv",
                       "--train-query-embeddings", f"{out}/qe-train.crem",
                       "--valid-query-embeddings", f"{out}/qe-valid.crem",
                       "--qrels", f"{out}/qrels.txt",
                       "--train-out", str(tmp_path / "train.npz"),
                       "--valid-out", str(tmp_path / "valid.npz"),
                       "--seed", "3"])
        assert rc == 0
        rc = cli_main(["train",
                       "--train-data", str(tmp_path / "train.npz"),
                       "--valid-data", str(tmp_path / "valid.npz"),
                       "--out", str(tmp_path / "model-npz.json"),
                       "--num-leaves", "8", "--min-sum-hessian", "0",
                       "--min-data-leaf", "5", "--patience", "3",
                       "--max-trees", "5", "--seed", "3"])
        assert rc == 0
        rc = cli_main(["train",
                       "--train-data", str(tmp_path / "train.npz"),
                       "--valid-data", str(tmp_path / "valid.npz"),
                       "--out", str(tmp_path / "model-tuned.json"),
                       "--num-leaves", "8", "--patience", "3",
                       "--max-trees", "4", "--trials", "2",
                       "--min-data-range", "2,10", "--hessian-range", "0,1",
                       "--seed", "3"])
        assert rc == 0
        # Same data and params as the direct training path: identical trees.
        a = (tmp_path / "model-npz.json").read_text()
        b = (out / "model.json").read_text()
        import json
        assert json.loads(a)["trees"] == json.loads(b)["trees"]

    def test_both_train_paths_write_identical_model_files(self, workspace, tmp_path):
        out = workspace
        query_slice(out, "train", tmp_path / "qe-train.crem")
        query_slice(out, "valid", tmp_path / "qe-valid.crem")
        common = ["--collection", f"{out}/collection.tsv",
                  "--lexical-index", f"{out}/index.crix",
                  "--dense-index", f"{out}/index.criv",
                  "--doc-embeddings", f"{out}/doc_embeddings.crem",
                  "--k-first", "150", "--rerank-cutoff", "150", "--k-final", "150",
                  "--train-queries", f"{out}/queries-train.tsv",
                  "--valid-queries", f"{out}/queries-valid.tsv",
                  "--train-query-embeddings", str(tmp_path / "qe-train.crem"),
                  "--valid-query-embeddings", str(tmp_path / "qe-valid.crem"),
                  "--qrels", f"{out}/qrels.txt", "--seed", "3"]
        params = ["--mask-variant", "lexical", "--num-leaves", "8",
                  "--min-sum-hessian", "0", "--min-data-leaf", "5",
                  "--patience", "3", "--max-trees", "5", "--seed", "3"]
        assert cli_main(["train", *common, *params,
                         "--out", str(tmp_path / "direct.json")]) == 0
        assert cli_main(["build-train", *common,
                         "--train-out", str(tmp_path / "train.npz"),
                         "--valid-out", str(tmp_path / "valid.npz")]) == 0
        assert cli_main(["train", "--train-data", str(tmp_path / "train.npz"),
                         "--valid-data", str(tmp_path / "valid.npz"), *params,
                         "--out", str(tmp_path / "from-npz.json")]) == 0
        direct = (tmp_path / "direct.json").read_bytes()
        assert b'"registry_lexical"' in direct
        assert (tmp_path / "from-npz.json").read_bytes() == direct

    def test_encode_toy_and_convert(self, tmp_path):
        src = tmp_path / "texts.tsv"
        src.write_text("a\thello world\nb\tgoodbye\n")
        rc = cli_main(["encode-toy", "--input", str(src), "--out",
                       str(tmp_path / "t.crem"), "--dim", "8", "--seed", "0"])
        assert rc == 0
        from blendrank.embeddings import load_embeddings
        m = load_embeddings(tmp_path / "t.crem", 2)
        np.testing.assert_allclose(m.rows[0],
                                   toy_encode("hello world", 8, 0).astype(np.float32),
                                   atol=1e-6)
        raw = tmp_path / "raw.tsv"
        raw.write_text("x\t1.0\t2.0\ny\t3.0\t4.0\n")
        rc = cli_main(["convert-embeddings", "--input", str(raw), "--out",
                       str(tmp_path / "r.crem")])
        assert rc == 0
        m = load_embeddings(tmp_path / "r.crem", 2)
        np.testing.assert_array_equal(m.rows, [[1.0, 2.0], [3.0, 4.0]])
