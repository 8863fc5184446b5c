"""Saved and reloaded files serve what the objects they were saved from serve.

A Pipeline built from in-memory objects and one built from the same objects
saved and loaded back (CRIX2, CRIV2, CREM2 and the model file) must give
identical `run_query` entries for every query, on seeded worlds with either
first-stage metric, stemmed or not. Unlike pinned digests, this holds on any
platform.
"""

import pytest

from blendrank.corpus import build_inverted_index, load_inverted_index, save_inverted_index
from blendrank.embeddings import load_embeddings, save_embeddings
from blendrank.ivf import build_ivf, load_ivf, save_ivf, search, train_kmeans
from blendrank.ltr import TrainParams, load_model, save_model
from blendrank.pipeline import Pipeline, PipelineConfig
from blendrank.synthetic import make_synthetic
from pipeline_training import train_pipeline


@pytest.mark.parametrize("stem", [False, True], ids=["plain", "stemmed"])
@pytest.mark.parametrize("metric", ["dot", "cosine"])
def test_reloaded_files_serve_identical_entries(tmp_path, metric, stem):
    seed = 3 + 2 * stem + (metric == "cosine")
    data = make_synthetic(300, 40, 8, seed)
    qids, texts = data.queries.query_ids, data.queries.texts
    inv = build_inverted_index(data.corpus, stem)
    ivf = build_ivf(data.doc_embeddings, train_kmeans(data.doc_embeddings, 12, 6, seed), metric)
    cfg = PipelineConfig(k_first=150, rerank_cutoff=80, nprobe=4, k_final=100)
    first = Pipeline(cfg, data.corpus, inv, data.doc_embeddings, ivf,
                     dict(zip(qids, data.query_embeddings.rows)))
    params = TrainParams(num_leaves=8, min_sum_hessian_leaf=0.0, min_data_leaf=5,
                         patience=3, max_trees=6)
    model = train_pipeline(first, data.queries.subset(range(20)),
                           data.queries.subset(range(20, 30)), data.qrels, params, seed=seed)
    built = Pipeline(cfg, data.corpus, inv, data.doc_embeddings, ivf, first.query_vectors, model)
    save_inverted_index(inv, tmp_path / "index.crix")
    save_ivf(ivf, tmp_path / "index.criv")
    save_embeddings(data.doc_embeddings, tmp_path / "docs.crem")
    save_embeddings(data.query_embeddings, tmp_path / "queries.crem")
    save_model(model, tmp_path / "model.json")
    loaded = Pipeline(cfg, data.corpus, load_inverted_index(tmp_path / "index.crix"),
                      load_embeddings(tmp_path / "docs.crem", len(data.corpus)),
                      load_ivf(tmp_path / "index.criv"),
                      dict(zip(qids, load_embeddings(tmp_path / "queries.crem").rows)),
                      load_model(tmp_path / "model.json"))
    assert loaded.compiled.n_trees == model.n_trees > 0
    for qid, text in zip(qids, texts):
        assert loaded.run_query(qid, text)[0] == built.run_query(qid, text)[0], qid
        q = built.encode_query(qid, text)
        head = search(ivf, q, cfg.k_first, cfg.nprobe).ids[:cfg.rerank_cutoff]
        terms = built.extractor.tokenize_query(text)
        assert (loaded.extractor.feature_matrix(terms, q, head).tobytes()
                == built.extractor.feature_matrix(terms, q, head).tobytes()), qid
