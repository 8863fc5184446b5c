"""Cascade orchestration, synthetic generator, and CLI tests."""

import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from blendrank.cli import build_parser, main as cli_main
from blendrank.corpus import build_inverted_index, load_qrels
from blendrank.embeddings import EmbeddingMatrix, toy_encode
from blendrank.features import DEFAULT_LEXICAL_NAMES
from blendrank.ivf import Centroids, build_ivf, default_nlist, search, train_kmeans
from blendrank.ltr import TrainParams
from blendrank.metrics import evaluate_run, load_run
from blendrank.pipeline import (LatencyBreakdown, Pipeline, PipelineConfig,
                                first_stage_rankings, sweep, sweep_to_csv)
from blendrank.scorer import score_batch
from blendrank.synthetic import make_synthetic
import forest_oracle
from ivf_oracle import exhaustive_search
from pipeline_training import train_pipeline


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


class TestEdgeQueries:
    """Edge inputs sent through run_query, each checked against the cascade
    rebuilt from its parts with the naive forest walk."""

    @staticmethod
    def expected(pipe, qid, text):
        cfg = pipe.config
        q = pipe.encode_query(qid, text)
        first = search(pipe.ivf_index, q, cfg.k_first, cfg.nprobe).ids
        head = first[:cfg.rerank_cutoff]
        feats = pipe.extractor.feature_matrix(pipe.extractor.tokenize_query(text), q, head)
        scores = forest_oracle.score_batch(pipe.model, feats[:, pipe.mask.included])
        ids = np.concatenate([head[np.lexsort((head, -scores))], first[len(head):]])
        ids = ids[:cfg.k_final]
        return ([(pipe.corpus.doc_ids[i], float(len(ids) - r)) for r, i in enumerate(ids)],
                first, feats)

    def check(self, pipe, qid, text, count):
        entries, _ = pipe.run_query(qid, text)
        want, first, feats = self.expected(pipe, qid, text)
        assert len(entries) == count and entries == want
        return first, feats

    def test_empty_text_ranks_by_id_then_model(self, trained):
        first, _ = self.check(trained, "new-empty", "", 200)
        # The toy encoder gives the zero vector: every candidate ties at 0.
        assert first.tolist() == list(range(200))

    def test_all_oov_text_matches_no_term(self, trained):
        _, feats = self.check(trained, "new-oov", "qqqzz xxyyq", 200)
        lex = 3 * trained.extractor.registry.dim + 2
        assert not feats[:, lex + DEFAULT_LEXICAL_NAMES.index("lex_matched")].any()

    def test_repeated_terms(self, world, trained):
        data, _ = world
        term = data.queries.texts[0].split()[0]
        assert term in trained.inverted_index.postings
        _, feats = self.check(trained, "new-repeat", f"{term} {term} {term}", 200)
        lex = 3 * trained.extractor.registry.dim + 2
        assert (feats[:, lex + DEFAULT_LEXICAL_NAMES.index("lex_query_len")] == 3.0).all()

    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    def test_stored_zero_vector(self, world, trained, metric):
        data, _ = world
        rows = data.doc_embeddings.rows.copy()
        rows[3] = 0.0  # a zero document vector as well
        docs = EmbeddingMatrix(rows)
        ivf = build_ivf(docs, train_kmeans(docs, trained.ivf_index.nlist, 10, 5), metric)
        pipe = Pipeline(trained.config, data.corpus, trained.inverted_index, docs, ivf,
                        {"zero": np.zeros(16)}, trained.model)
        first, _ = self.check(pipe, "zero", data.queries.texts[0], 200)
        assert first.tolist() == list(range(200))

    def test_fewer_candidates_than_k(self, world, trained):
        data, _ = world
        qid, text = _query(data, 45)
        pipe = trained.with_overrides(nprobe=1)
        n = len(search(pipe.ivf_index, pipe.encode_query(qid, text), 200, 1))
        assert 0 < n < 200
        self.check(pipe, qid, text, n)


class TestRunEntries:
    """run_query's entries equal the per-query formula
    list(zip(map(doc_ids.__getitem__, ids), arange(n, 0, -1).tolist())) over
    the cascade's final ids, whatever their count."""

    @staticmethod
    def final_ids(pipe, qid, text):
        cfg = pipe.config
        q = pipe.encode_query(qid, text)
        ids = search(pipe.ivf_index, q, cfg.k_first, cfg.nprobe).ids
        cut = min(cfg.rerank_cutoff, len(ids)) if pipe.compiled is not None else 0
        if cut:
            head = ids[:cut]
            feats = pipe.extractor.feature_matrix(pipe.extractor.tokenize_query(text), q, head)
            scores = score_batch(pipe.compiled, feats[:, pipe.mask.included])
            ids = np.concatenate([head[np.lexsort((head, -scores))], ids[cut:]])
        return ids[:cfg.k_final]

    def check(self, pipe, qid, text):
        ids = self.final_ids(pipe, qid, text)
        n = len(ids)
        want = list(zip(map(pipe.corpus.doc_ids.__getitem__, ids.tolist()),
                        np.arange(n, 0, -1, dtype=np.float64).tolist()))
        entries, _ = pipe.run_query(qid, text)
        assert entries == want
        assert all(type(d) is str and type(s) is float for d, s in entries)
        return n

    @pytest.mark.parametrize("overrides", [
        {}, {"k_final": 37}, {"rerank_cutoff": 60}, {"rerank_cutoff": 60, "k_final": 37},
        {"rerank_cutoff": 60, "k_final": 150}, {"rerank_cutoff": 0, "k_final": 1},
    ])
    @pytest.mark.parametrize("reranked", [False, True], ids=["firststage", "reranked"])
    def test_equal_to_formula(self, world, trained, reranked, overrides):
        data, pipe = world
        pipe = (trained if reranked else pipe).with_overrides(**overrides)
        for i in range(0, 60, 7):
            assert self.check(pipe, *_query(data, i)) == pipe.config.k_final

    @pytest.mark.parametrize("reranked", [False, True], ids=["firststage", "reranked"])
    def test_fewer_candidates_than_k(self, world, trained, reranked):
        data, pipe = world
        pipe = (trained if reranked else pipe).with_overrides(nprobe=1, k_final=150)
        counts = {self.check(pipe, *_query(data, i)) for i in range(40, 60)}
        assert min(counts) < 150

    def test_zero_candidates(self, world, trained):
        data, pipe = world
        far = np.zeros((1, 16))
        far[0, 0] = 1e6  # no document is nearest to it: an empty list
        cents = Centroids(np.vstack([pipe.ivf_index.centroids.vectors, far]))
        ivf = build_ivf(data.doc_embeddings, cents, "dot")
        assert ivf.offsets[-1] == ivf.offsets[-2]
        for model in (None, trained.model):
            p = Pipeline(PipelineConfig(k_first=200, rerank_cutoff=200, nprobe=1, k_final=200),
                         data.corpus, pipe.inverted_index, data.doc_embeddings, ivf,
                         {"far": far[0] / 1e6}, model)
            assert self.check(p, "far", "any text") == 0


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

    def test_value_of_the_wrong_type_names_file_and_key(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("k_first = 50\nnprobe = abc\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: 'nprobe' needs int, "
                                             "got 'abc'$"):
            PipelineConfig.from_file(p)

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
        from pipeline_training import train_variants
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

    def test_registry_dimension_is_required_and_checked_at_load(self, world, tmp_path):
        from blendrank.ltr import load_dataset, save_dataset
        from blendrank.pipeline import build_blended_datasets
        data, pipe = world
        full_train, _ = build_blended_datasets(pipe, data.queries.subset(range(3)),
                                               data.queries.subset(range(3, 5)), data.qrels, 4, 3)
        with pytest.raises(TypeError):
            save_dataset(full_train, tmp_path / "a.npz")
        for dim in (-1, 0):
            path = tmp_path / f"dim{dim}.npz"
            save_dataset(full_train, path, dim)
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: registry dimension {dim}; it must be at least 1")):
                load_dataset(path)


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

    def reload(self, world, model):
        _, pipe = world
        return Pipeline(pipe.config, pipe.corpus, pipe.inverted_index, pipe.doc_embeddings,
                        pipe.ivf_index, pipe.query_vectors, model)

    def test_recorded_columns_are_served_whatever_the_variant_says(self, world, trained):
        from dataclasses import replace
        data, _ = world
        model = replace(trained.model, mask_variant="dense")
        pipe = self.reload(world, model)
        np.testing.assert_array_equal(pipe.mask.included, trained.mask.included)
        assert pipe.mask.variant == "dense"
        assert pipe.run_query(*_query(data, 45))[0] == trained.run_query(*_query(data, 45))[0]

    def test_columns_outside_the_registry_rejected_at_init(self, world, trained):
        from dataclasses import replace
        reg = world[1].extractor.registry
        n = trained.model.feature_count
        shifted = replace(trained.model, mask_included=trained.model.mask_included + 1)
        unrecorded = replace(trained.model, mask_included=None, feature_count=n + 1)
        for model, count in ((shifted, n), (unrecorded, n + 1)):
            with pytest.raises(ValueError, match=re.escape(
                    f"the model's {count} feature columns do not fit the "
                    f"{reg.total}-feature registry")):
                self.reload(world, model)

    def test_a_model_without_recorded_columns_reads_every_column(self, world, trained):
        from dataclasses import replace
        pipe = self.reload(world, replace(trained.model, mask_included=None))
        np.testing.assert_array_equal(pipe.mask.included,
                                      np.arange(world[1].extractor.registry.total))


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


def cascade_flags(out):
    return ["--collection", f"{out}/collection.tsv", "--lexical-index", f"{out}/index.crix",
            "--dense-index", f"{out}/index.criv",
            "--doc-embeddings", f"{out}/doc_embeddings.crem",
            "--k-first", "150", "--rerank-cutoff", "150", "--k-final", "150"]


def train_query_flags(out):
    return ["--train-queries", f"{out}/queries-train.tsv",
            "--valid-queries", f"{out}/queries-valid.tsv",
            "--train-query-embeddings", f"{out}/qe-train.crem",
            "--valid-query-embeddings", f"{out}/qe-valid.crem",
            "--qrels", f"{out}/qrels.txt"]


def build_train_flags(out):
    return [*cascade_flags(out), *train_query_flags(out)]


@pytest.fixture(scope="module")
def trained_workspace(workspace):
    """The workspace plus train.npz and valid.npz from build-train, and
    model.json and train.csv fitted on them by train."""
    out = workspace
    rc = cli_main(["build-train", *build_train_flags(out), "--seed", "3",
                   "--train-out", f"{out}/train.npz", "--valid-out", f"{out}/valid.npz"])
    assert rc == 0
    rc = cli_main([
        "train", "--train-data", f"{out}/train.npz", "--valid-data", f"{out}/valid.npz",
        "--out", f"{out}/model.json", "--log", f"{out}/train.csv",
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
        rc = cli_main(["build-train", *build_train_flags(out),
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
        # Same data and params as the workspace's model: identical trees.
        a = (tmp_path / "model-npz.json").read_text()
        b = (out / "model.json").read_text()
        import json
        assert json.loads(a)["trees"] == json.loads(b)["trees"]

    def test_cli_model_equals_the_in_process_model_byte_for_byte(self, workspace, tmp_path):
        """build-train then train write the model that build_blended_datasets
        then train_variant fit in process under the same seeds."""
        from blendrank.corpus import load_collection, load_inverted_index, load_queries
        from blendrank.embeddings import load_embeddings
        from blendrank.ivf import load_ivf
        from blendrank.ltr import save_model
        from blendrank.pipeline import build_blended_datasets, train_variant
        out = workspace
        assert cli_main(["build-train", *build_train_flags(out), "--seed", "3",
                         "--train-out", str(tmp_path / "train.npz"),
                         "--valid-out", str(tmp_path / "valid.npz")]) == 0
        assert cli_main(["train", "--train-data", str(tmp_path / "train.npz"),
                         "--valid-data", str(tmp_path / "valid.npz"),
                         "--mask-variant", "lexical", "--num-leaves", "8",
                         "--min-sum-hessian", "0", "--min-data-leaf", "5",
                         "--patience", "3", "--max-trees", "5", "--seed", "3",
                         "--out", str(tmp_path / "cli.json")]) == 0
        coll = load_collection(f"{out}/collection.tsv")
        splits = [load_queries(f"{out}/queries-{name}.tsv") for name in ("train", "valid")]
        qvecs = {qid: row for name, queries in zip(("train", "valid"), splits)
                 for qid, row in zip(queries.query_ids,
                                     load_embeddings(f"{out}/qe-{name}.crem").rows)}
        pipe = Pipeline(PipelineConfig(k_first=150, rerank_cutoff=150, k_final=150, seed=3),
                        coll, load_inverted_index(f"{out}/index.crix"),
                        load_embeddings(f"{out}/doc_embeddings.crem", len(coll)),
                        load_ivf(f"{out}/index.criv"), qvecs)
        full_train, full_valid = build_blended_datasets(pipe, *splits, load_qrels(
            f"{out}/qrels.txt"), 30, 3)
        params = TrainParams(num_leaves=8, min_sum_hessian_leaf=0.0, min_data_leaf=5,
                             patience=3, max_trees=5, seed=3)
        save_model(train_variant(full_train, full_valid, pipe.extractor.registry, "lexical",
                                 params, 0, 3), tmp_path / "in-process.json")
        in_process = (tmp_path / "in-process.json").read_bytes()
        assert b'"registry_lexical"' in in_process
        assert (tmp_path / "cli.json").read_bytes() == in_process

    def test_build_train_reads_the_seed_from_the_config_file(self, workspace, tmp_path):
        """A config file's seed samples the negatives that --seed does."""
        out = workspace
        config = tmp_path / "cascade.cfg"
        config.write_text(f"seed = 3\nk_first = 150\nrerank_cutoff = 150\nk_final = 150\n"
                          f"collection = {out}/collection.tsv\nlexical_index = {out}/index.crix\n"
                          f"dense_index = {out}/index.criv\n"
                          f"doc_embeddings = {out}/doc_embeddings.crem\n")
        for name, flags in (("config", ["--config", str(config)]),
                            ("flag", [*cascade_flags(out), "--seed", "3"])):
            assert cli_main(["build-train", *flags, *train_query_flags(out),
                             "--train-out", str(tmp_path / f"{name}-train.npz"),
                             "--valid-out", str(tmp_path / f"{name}-valid.npz")]) == 0
        for split in ("train", "valid"):
            with np.load(tmp_path / f"config-{split}.npz") as a, \
                    np.load(tmp_path / f"flag-{split}.npz") as b:
                assert a.files == b.files
                for key in a.files:
                    np.testing.assert_array_equal(a[key], b[key], err_msg=f"{split} {key}")

    def test_train_rejects_datasets_of_two_registries(self, tmp_path):
        """A validation set whose columns follow another registry would be
        read through the training set's columns; train refuses the pair."""
        from blendrank.features import build_registry
        from blendrank.ltr import LtrDataset, LtrGroup, save_dataset
        rng = np.random.default_rng(0)
        for name, dim in (("train", 8), ("valid", 16)):
            group = LtrGroup("q", rng.normal(size=(4, build_registry(dim).total)),
                             np.array([0, 1, 2, 0]), np.array(["a", "b", "c", "d"]))
            save_dataset(LtrDataset([group]), tmp_path / f"{name}.npz", dim)
        with pytest.raises(SystemExit, match="^" + re.escape(
                f"{tmp_path}/valid.npz: registry dimension 16, but {tmp_path}/train.npz "
                "has 8") + "$"):
            cli_main(["train", "--train-data", str(tmp_path / "train.npz"),
                      "--valid-data", str(tmp_path / "valid.npz"),
                      "--out", str(tmp_path / "model.json")])
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("splits", ["10,10,10,10", "-5,10,10", "20,20,1"])
    def test_make_synthetic_rejects_splits_it_cannot_honour(self, splits, tmp_path):
        with pytest.raises(SystemExit, match="^" + re.escape(
                "--splits takes at most three non-negative sizes (train,valid,test) summing "
                f"to at most --queries 40, got {splits!r}") + "$"):
            cli_main(["make-synthetic", "--out-dir", str(tmp_path), "--docs", "50",
                      "--queries", "40", "--dim", "4", f"--splits={splits}"])
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value, message", [
        ("--min-data-range", "5", "expected lo,hi, got '5'"),
        ("--min-data-range", "10,5", "lo 10 exceeds hi 5"),
        ("--hessian-range", "1,0", "lo 1.0 exceeds hi 0.0"),
    ], ids=["one-value", "reversed-int", "reversed-float"])
    def test_tuning_ranges_must_be_ordered_pairs(self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["train", "--train-data", "t.npz", "--valid-data",
                                       "v.npz", "--out", "m.json", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: {message}\n" in capsys.readouterr().err

    def test_tuning_ranges_parse_to_typed_pairs(self):
        args = build_parser().parse_args(["train", "--train-data", "t.npz", "--valid-data",
                                          "v.npz", "--out", "m.json", "--min-data-range",
                                          "2,2", "--hessian-range", "0,1.5"])
        assert args.min_data_range == (2, 2) and args.hessian_range == (0.0, 1.5)
        assert type(args.min_data_range[0]) is int and type(args.hessian_range[0]) is float

    def test_readme_walkthrough_parses(self):
        """Every command of README's CLI walkthrough is one the parser takes."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        block = readme.split("## CLI walkthrough", 1)[1].split("```")[1]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.strip()]
        assert {argv[0] for argv in commands} == {"blendrank"}
        assert [argv[1] for argv in commands] == [
            "make-synthetic", "index-lexical", "index-dense", "build-train", "train",
            "search", "evaluate", "sweep", "gain-report", "diff-report"]
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])

    def test_flags_override_the_config_file_before_it_is_checked(self, trained_workspace,
                                                                  tmp_path):
        """k_first = 200 alone fails the default rerank_cutoff of 1000; the
        flags make it valid. Every path comes from the file but --queries."""
        out = trained_workspace
        config = tmp_path / "cascade.cfg"
        config.write_text(f"k_first = 200\nnprobe = 17\ncollection = {out}/collection.tsv\n"
                          f"lexical_index = {out}/index.crix\ndense_index = {out}/index.criv\n"
                          f"doc_embeddings = {out}/doc_embeddings.crem\n"
                          f"queries = {tmp_path}/missing.tsv\n"
                          f"query_embeddings = {out}/qe-test.crem\nmodel = {out}/model.json\n")
        rc = cli_main(["search", "--config", str(config), "--rerank-cutoff", "100",
                       "--k-final", "100", "--queries", f"{out}/queries-test.tsv",
                       "--out", str(tmp_path / "run.txt")])
        assert rc == 0
        run = load_run(tmp_path / "run.txt")
        assert len(run.entries) == 10
        assert {len(e) for e in run.entries.values()} == {100}
        assert run.tag == "blendrank.np17.c100.full"
        with pytest.raises(ValueError, match="rerank_cutoff must not exceed k_first"):
            cli_main(["search", "--config", str(config), "--out", str(tmp_path / "r2.txt")])

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

    def test_encode_toy_names_file_and_line(self, tmp_path):
        src, out = tmp_path / "texts.tsv", str(tmp_path / "t.crem")
        src.write_text("a\thello\n\nno tab here\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(src))}: malformed line 3: "):
            cli_main(["encode-toy", "--input", str(src), "--out", out, "--dim", "8"])
        src.write_text("a\thello\nb\tbye\na\tagain\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(src))}: duplicate query_id "
                                             "'a' at line 3$"):
            cli_main(["encode-toy", "--input", str(src), "--out", out, "--dim", "8"])

    def test_convert_names_file_and_line_of_a_non_number(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("x\t1.0\t2.0\ny\t3.0\tx\n")
        with pytest.raises(SystemExit, match="^" + re.escape(
                f"{raw}: line 2: could not convert string to float: 'x\\n'") + "$"):
            cli_main(["convert-embeddings", "--input", str(raw), "--out",
                      str(tmp_path / "r.crem")])

    def test_convert_names_file_and_line_of_a_ragged_row(self, tmp_path):
        raw = tmp_path / "raw.tsv"
        raw.write_text("x\t1.0\t2.0\ny\t3.0\t4.0\nz\t5.0\n")
        with pytest.raises(SystemExit, match=f"^{re.escape(str(raw))}: line 3: 1 values, the "
                                             "first row has 2$"):
            cli_main(["convert-embeddings", "--input", str(raw), "--out",
                      str(tmp_path / "r.crem")])

    def test_compare_names_the_queries_one_run_lacks(self, tmp_path):
        qrels, run_a, run_b = (tmp_path / n for n in ("qrels.txt", "a.txt", "b.txt"))
        qrels.write_text("q1 0 d1 1\nq2 0 d2 1\n")
        run_a.write_text("q1 Q0 d1 1 2.0 a\nq2 Q0 d2 1 2.0 a\n")
        run_b.write_text("q1 Q0 d1 1 2.0 b\n")
        with pytest.raises(ValueError, match=re.escape(
                "query sets differ: only in the first ['q2'], only in the second []")):
            cli_main(["evaluate", "--run", str(run_a), "--qrels", str(qrels),
                      "--compare", str(run_b)])
