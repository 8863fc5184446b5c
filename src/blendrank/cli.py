"""Command-line frontend: index building, synthetic data, training,
search, evaluation, the probe/cutoff sweep, and the analysis reports."""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import fields

import numpy as np

from . import corpus as corpus_io
from . import ivf as ivf_mod
from .embeddings import EmbeddingMatrix, load_embeddings, save_embeddings, toy_encode
from .features import build_registry
from .ltr import (TrainParams, feature_gains, load_dataset, load_model, save_dataset,
                  save_model, write_train_log)
from .metrics import (bonferroni, evaluate_run, load_run, paired_t_test, paired_values,
                      per_query_diff, write_run)
from .pipeline import (Pipeline, PipelineConfig, build_blended_datasets, sweep,
                       sweep_to_csv, train_variant)
from .synthetic import make_synthetic


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _range_of(kind):
    """argparse type: a `lo,hi` pair of `kind` with lo <= hi."""
    def parse(text: str) -> tuple:
        try:
            lo, hi = (kind(x) for x in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected lo,hi, got {text!r}") from None
        if lo > hi:
            raise argparse.ArgumentTypeError(f"lo {lo} exceeds hi {hi}")
        return lo, hi
    return parse


def cmd_make_synthetic(args) -> int:
    splits = _int_list(args.splits) if args.splits else [args.queries]
    if len(splits) > 3 or min(splits, default=0) < 0 or sum(splits) > args.queries:
        raise SystemExit(f"--splits takes at most three non-negative sizes (train,valid,test) "
                         f"summing to at most --queries {args.queries}, got {args.splits!r}")
    data = make_synthetic(args.docs, args.queries, args.dim, args.seed)
    out = args.out_dir.rstrip("/")
    with open(f"{out}/collection.tsv", "w", encoding="utf-8") as f:
        for did, text in zip(data.corpus.doc_ids, data.corpus.texts):
            f.write(f"{did}\t{text}\n")
    start = 0
    for name, size in zip(("train", "valid", "test"), splits):
        with open(f"{out}/queries-{name}.tsv", "w", encoding="utf-8") as f:
            for i in range(start, start + size):
                f.write(f"{data.queries.query_ids[i]}\t{data.queries.texts[i]}\n")
        start += size
    with open(f"{out}/qrels.txt", "w", encoding="utf-8") as f:
        for (qid, did), grade in data.qrels.judgments.items():
            f.write(f"{qid} 0 {did} {grade}\n")
    save_embeddings(data.doc_embeddings, f"{out}/doc_embeddings.crem")
    save_embeddings(data.query_embeddings, f"{out}/query_embeddings.crem")
    print(f"wrote {len(data.corpus)} docs, {len(data.queries)} queries, "
          f"{len(data.qrels)} judgments to {out}/")
    return 0


def cmd_index_lexical(args) -> int:
    coll = corpus_io.load_collection(args.collection)
    index = corpus_io.build_inverted_index(coll, stem=args.stem)
    corpus_io.save_inverted_index(index, args.out)
    print(f"indexed {index.n_docs} docs, {len(index.postings)} terms -> {args.out}")
    return 0


def cmd_index_dense(args) -> int:
    emb = load_embeddings(args.embeddings)
    nlist = args.nlist or ivf_mod.default_nlist(emb.n_rows)
    centroids = ivf_mod.train_kmeans(emb, nlist, args.kmeans_iters, args.seed)
    index = ivf_mod.build_ivf(emb, centroids, args.metric)
    ivf_mod.save_ivf(index, args.out)
    print(f"built IVF index: {emb.n_rows} docs, nlist={nlist}, metric={args.metric} -> {args.out}")
    return 0


def cmd_encode_toy(args) -> int:
    rows = [toy_encode(text, args.dim, args.seed)
            for text in corpus_io.load_queries(args.input).texts]
    save_embeddings(EmbeddingMatrix(np.array(rows, dtype=np.float32)), args.out)
    print(f"encoded {len(rows)} rows at dim {args.dim} -> {args.out}")
    return 0


def cmd_convert_embeddings(args) -> int:
    rows = []
    with open(args.input, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            where, cells = f"{args.input}: line {lineno}", line.split("\t")[1:]
            if not cells:
                raise SystemExit(f"{where}: expected id and values")
            if rows and len(cells) != len(rows[0]):
                raise SystemExit(f"{where}: {len(cells)} values, the first row has {len(rows[0])}")
            try:
                rows.append([float(x) for x in cells])
            except ValueError as e:
                raise SystemExit(f"{where}: {e}") from None
    save_embeddings(EmbeddingMatrix(np.array(rows, dtype=np.float32)), args.out)
    print(f"converted {len(rows)} rows -> {args.out}")
    return 0


def _query_vectors(queries, path) -> dict:
    """Query id -> vector from a CREM2 file holding one row per query, in
    order; empty when there is no file."""
    if not path:
        return {}
    qemb = load_embeddings(path, len(queries))
    return {qid: qemb.rows[i] for i, qid in enumerate(queries.query_ids)}


def _load_pipeline(args):
    """(Pipeline, QuerySet of --queries or None). Every flag that names a
    PipelineConfig field overrides --config before the config is checked."""
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)
                 if getattr(args, f.name, None) is not None}
    cfg = (PipelineConfig.from_file(args.config, **overrides) if getattr(args, "config", None)
           else PipelineConfig(**overrides))
    coll = corpus_io.load_collection(cfg.collection)
    inv = corpus_io.load_inverted_index(cfg.lexical_index)
    emb = load_embeddings(cfg.doc_embeddings, len(coll))
    ivf_index = ivf_mod.load_ivf(cfg.dense_index)
    queries = corpus_io.load_queries(cfg.queries) if cfg.queries else None
    qvecs = {} if queries is None else _query_vectors(queries, cfg.query_embeddings)
    model = load_model(cfg.model) if cfg.model else None
    return Pipeline(cfg, coll, inv, emb, ivf_index, qvecs, model), queries


def cmd_search(args) -> int:
    pipe, queries = _load_pipeline(args)
    if queries is None:
        raise SystemExit("search requires --queries")
    qrels = corpus_io.load_qrels(args.qrels) if args.qrels else None
    run, latency, report = pipe.run_batch(queries, qrels)
    write_run(run, args.out)
    agg = latency.aggregate()
    print(f"wrote {len(run.entries)} query results -> {args.out}")
    print("latency ms (mean/p50/p95): " + ", ".join(
        f"{k}={v['mean']:.3f}/{v['p50']:.3f}/{v['p95']:.3f}" for k, v in agg.items()))
    if report:
        print(report.format_table())
    return 0


def cmd_evaluate(args) -> int:
    run = load_run(args.run)
    qrels = corpus_io.load_qrels(args.qrels)
    report = evaluate_run(run, qrels, ndcg_k=args.ndcg_k, mrr_k=args.mrr_k,
                          recall_k=args.recall_k, rel_threshold=args.rel_threshold)
    print(report.format_table())
    if args.csv:
        report.to_csv(args.csv)
        print(f"per-query metrics -> {args.csv}")
    if args.compare:
        other = evaluate_run(load_run(args.compare), qrels, ndcg_k=args.ndcg_k,
                             mrr_k=args.mrr_k, recall_k=args.recall_k,
                             rel_threshold=args.rel_threshold)
        name = f"ndcg@{args.ndcg_k}"
        res = paired_t_test(*paired_values(report.per_query[name], other.per_query[name]))
        (adj,) = bonferroni([res.p], max(1, args.bonferroni_m))
        print(f"paired t-test on {name}: t={res.t:.4f} p={res.p:.3e} "
              f"bonferroni(m={max(1, args.bonferroni_m)})={adj:.3e}")
    return 0


def cmd_build_train(args) -> int:
    pipe, _ = _load_pipeline(args)
    train_queries = corpus_io.load_queries(args.train_queries)
    valid_queries = corpus_io.load_queries(args.valid_queries)
    qrels = corpus_io.load_qrels(args.qrels)
    pipe.query_vectors.update(_query_vectors(train_queries, args.train_query_embeddings))
    pipe.query_vectors.update(_query_vectors(valid_queries, args.valid_query_embeddings))
    full_train, full_valid = build_blended_datasets(
        pipe, train_queries, valid_queries, qrels, args.n_neg, pipe.config.seed)
    save_dataset(full_train, args.train_out, pipe.extractor.registry.dim)
    save_dataset(full_valid, args.valid_out, pipe.extractor.registry.dim)
    rows = sum(g.features.shape[0] for g in full_train.groups)
    print(f"wrote {len(full_train.groups)} train groups ({rows} rows) -> {args.train_out}")
    print(f"wrote {len(full_valid.groups)} valid groups -> {args.valid_out}")
    return 0


def cmd_train(args) -> int:
    params = TrainParams(
        learning_rate=args.learning_rate, num_leaves=args.num_leaves,
        min_sum_hessian_leaf=args.min_sum_hessian, min_data_leaf=args.min_data_leaf,
        patience=args.patience, max_trees=args.max_trees, seed=args.seed)
    tune_kw = {name: getattr(args, name) for name in ("min_data_range", "hessian_range")
               if getattr(args, name) is not None}
    full_train, dim = load_dataset(args.train_data)
    full_valid, valid_dim = load_dataset(args.valid_data)
    if valid_dim != dim:
        raise SystemExit(f"{args.valid_data}: registry dimension {valid_dim}, "
                         f"but {args.train_data} has {dim}")
    ensemble = train_variant(full_train, full_valid, build_registry(dim), args.mask_variant,
                             params, args.trials, args.seed, tune_kw)
    save_model(ensemble, args.out)
    if args.log:
        write_train_log(ensemble, args.log)
    meta = ensemble.metadata
    print(f"trained {ensemble.n_trees} trees (mask={ensemble.mask_variant}); "
          f"best valid nDCG={meta['best_valid_metric']:.4f} -> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    pipe, queries = _load_pipeline(args)
    if queries is None:
        raise SystemExit("sweep requires --queries")
    qrels = corpus_io.load_qrels(args.qrels)
    rows = sweep(pipe, _int_list(args.probes), _int_list(args.cutoffs), queries,
                 qrels, emit_latency=not args.no_latency)
    sweep_to_csv(rows, args.out)
    print(f"wrote {len(rows)} sweep rows -> {args.out}")
    return 0


def cmd_gain_report(args) -> int:
    model = load_model(args.model)
    dim = model.metadata.get("registry_dim")
    if dim is None:
        raise SystemExit("model carries no registry metadata")
    registry = build_registry(dim)
    cols = np.arange(model.feature_count) if model.mask_included is None else model.mask_included
    top = sorted((-total, int(cols[f])) for f, total in feature_gains(model).items())[:args.top]
    print(f"top {len(top)} features by total split gain")
    print(f"{'feature':<24}{'family':<14}{'gain':>12}")
    for neg_total, fid in top:
        print(f"{registry.name(fid):<24}{registry.family(fid):<14}{-neg_total:>12.4f}")
    by_family = Counter(registry.family(fid) for _, fid in top)
    print("family breakdown: " + ", ".join(f"{k}={v}" for k, v in sorted(by_family.items())))
    return 0


def cmd_diff_report(args) -> int:
    qrels = corpus_io.load_qrels(args.qrels)
    rep_a = evaluate_run(load_run(args.run_a), qrels)
    rep_b = evaluate_run(load_run(args.run_b), qrels)
    metric = args.metric
    buckets = per_query_diff(rep_a.per_query[metric], rep_b.per_query[metric],
                             threshold=args.threshold)
    print(f"{metric} diff over {buckets.n_queries} queries (a - b):")
    print(f"  degraded          {buckets.degraded:>5} ({buckets.pct(buckets.degraded):.1f}%)")
    print(f"  unchanged         {buckets.unchanged:>5} ({buckets.pct(buckets.unchanged):.1f}%)")
    print(f"  improved          {buckets.improved:>5} ({buckets.pct(buckets.improved):.1f}%)")
    print(f"  improved >= {buckets.threshold:<5} {buckets.improved_at_least:>5} "
          f"({buckets.pct(buckets.improved_at_least):.1f}%)")
    print(f"  non-degrading     {buckets.non_degrading_pct:.1f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blendrank",
                                     description="Two-stage dense + lexical retrieval cascade")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-synthetic", help="generate a synthetic benchmark")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--docs", type=int, default=5000)
    p.add_argument("--queries", type=int, default=500)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--splits", default="", help="comma sizes for train,valid,test query files")
    p.set_defaults(func=cmd_make_synthetic)

    p = sub.add_parser("index-lexical", help="build the positional inverted index")
    p.add_argument("--collection", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stem", action="store_true")
    p.set_defaults(func=cmd_index_lexical)

    p = sub.add_parser("index-dense", help="train k-means and build the IVF index")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nlist", type=int, default=0)
    p.add_argument("--metric", choices=("dot", "cosine"), default="dot")
    p.add_argument("--kmeans-iters", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_index_dense)

    p = sub.add_parser("encode-toy", help="toy-encode a TSV of id<TAB>text")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_encode_toy)

    p = sub.add_parser("convert-embeddings", help="TSV of id<TAB>floats... to CREM2")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert_embeddings)

    def add_runtime_args(p, with_model=True):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--collection", default=None)
        p.add_argument("--lexical-index", dest="lexical_index", default=None)
        p.add_argument("--dense-index", dest="dense_index", default=None)
        p.add_argument("--doc-embeddings", dest="doc_embeddings", default=None)
        p.add_argument("--query-embeddings", dest="query_embeddings", default=None)
        p.add_argument("--queries", default=None)
        p.add_argument("--nprobe", type=int, default=None)
        p.add_argument("--k-first", dest="k_first", type=int, default=None)
        p.add_argument("--rerank-cutoff", dest="rerank_cutoff", type=int, default=None)
        p.add_argument("--k-final", dest="k_final", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        if with_model:
            p.add_argument("--model", default=None)

    p = sub.add_parser("search", help="run the cascade and write a TREC run file")
    add_runtime_args(p)
    p.add_argument("--qrels", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("evaluate", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--ndcg-k", type=int, default=10)
    p.add_argument("--mrr-k", type=int, default=10)
    p.add_argument("--recall-k", type=int, default=1000)
    p.add_argument("--rel-threshold", type=int, default=1)
    p.add_argument("--csv", default=None)
    p.add_argument("--compare", default=None, help="second run for a paired t-test")
    p.add_argument("--bonferroni-m", type=int, default=1)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("build-train", help="extract a training dataset to npz")
    add_runtime_args(p, with_model=False)
    p.add_argument("--train-queries", required=True)
    p.add_argument("--valid-queries", required=True)
    p.add_argument("--train-query-embeddings", default=None)
    p.add_argument("--valid-query-embeddings", default=None)
    p.add_argument("--qrels", required=True)
    p.add_argument("--n-neg", type=int, default=30)
    p.add_argument("--train-out", required=True)
    p.add_argument("--valid-out", required=True)
    p.set_defaults(func=cmd_build_train)

    p = sub.add_parser("train", help="fit a re-ranking model on build-train datasets")
    p.add_argument("--train-data", required=True, help="training npz from build-train")
    p.add_argument("--valid-data", required=True, help="validation npz from build-train")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    p.add_argument("--mask-variant", choices=("full", "lexical", "dense"), default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--learning-rate", type=float, default=0.1)
    p.add_argument("--num-leaves", type=int, default=64)
    p.add_argument("--min-sum-hessian", type=float, default=10.0)
    p.add_argument("--min-data-leaf", type=int, default=100)
    p.add_argument("--patience", type=int, default=30)
    p.add_argument("--max-trees", type=int, default=500)
    p.add_argument("--trials", type=int, default=0,
                   help="random-search trials; 0 trains with the given params")
    p.add_argument("--min-data-range", type=_range_of(int), default=None,
                   help="lo,hi sample range for min_data_leaf during tuning")
    p.add_argument("--hessian-range", type=_range_of(float), default=None,
                   help="lo,hi sample range for min_sum_hessian_leaf during tuning")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="probe x cutoff efficiency/effectiveness grid")
    add_runtime_args(p)
    p.add_argument("--qrels", required=True)
    p.add_argument("--probes", required=True, help="comma-separated nprobe values")
    p.add_argument("--cutoffs", required=True, help="comma-separated re-rank cutoffs")
    p.add_argument("--out", required=True)
    p.add_argument("--no-latency", action="store_true",
                   help="write 0.0 latency for byte-stable output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gain-report", help="top features by total split gain")
    p.add_argument("--model", required=True)
    p.add_argument("--top", type=int, default=20)
    p.set_defaults(func=cmd_gain_report)

    p = sub.add_parser("diff-report", help="per-query metric diff histogram")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metric", default="ndcg@10")
    p.add_argument("--threshold", type=float, default=0.03)
    p.set_defaults(func=cmd_diff_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
