"""Seeded benchmark of the blendrank cascade: one command per workload.

    python3 perfbench/run.py --workload serve-rerank --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository. Inputs are generated from the seed
(and cached under .perfbench_cache/, keyed by seed and source). With
--trace 0 the last stdout line is a JSON object with the end-to-end metrics;
with --trace 1 the same workload runs with spans around the program's public
functions and the JSON holds the per-layer metrics. Exits 2 when the program
sources are not beside the benchmark.
"""

from __future__ import annotations

import os

# One BLAS thread: set before numpy is imported by anything below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def per_layer(r, tracer) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics of a traced run, sweeps included."""
    from perfbench import sweeps, tracing

    layer, _ = tracing.summarize(tracer, r.train_jobs)
    compiled = r.pipe.compiled
    n_cond = sum(fc.thresholds.shape[0] for fc in compiled.conditions.values()) if compiled else 0
    layer["scorer.trees"] = (float(compiled.n_trees if compiled else 0), "count",
                             1 if compiled else 0)
    layer["scorer.conditions"] = (float(n_cond), "count", 1 if compiled else 0)
    swept: dict[str, float] = {}
    cfg = r.cfg
    if r.name == "serve-firststage":
        qv = [r.pipe.query_vectors[qid] for qid, _ in r.results[:sweeps.SWEEP_QUERIES]]
        swept = sweeps.nprobe_sweep(r.pipe, qv, cfg["k_first"])
        if "corpus.build_inverted_index" not in tracer.missing:
            # No workload builds its lexical index in the run; time one build
            # of the served collection's, directly.
            from blendrank import corpus
            t0 = time.perf_counter()
            corpus.build_inverted_index(r.pipe.corpus)
            layer["corpus.build_inverted_index_s"] = (time.perf_counter() - t0, "s", 1)
    elif r.name == "serve-rerank":
        texts = dict(zip(r.serve_q.query_ids, r.serve_q.texts))
        qs = [(qid, texts[qid], r.pipe.query_vectors[qid])
              for qid, _ in r.results[:sweeps.SWEEP_QUERIES]]
        swept = sweeps.rerank_sweeps(r.pipe, qs, cfg["k_first"])
    n = sweeps.SWEEP_QUERIES
    for name, unit in sweeps.metric_names().items():
        samples = (sweeps.REPEATS if "ns_per_doc" in name else n) if name in swept else 0
        layer[name] = (swept.get(name, 0.0), unit, samples)
    return layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="blendrank cascade benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM unwind normally, so a running preparation child is killed
    # and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "blendrank" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'blendrank'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import prepare, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    art = prepare.ensure_prepared(ROOT, args.workload, args.seed)
    scratch = prepare.CACHE_DIR / f"run-{os.getpid()}"
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    r = workloads.run(args.workload, args.seed, args.seconds, art, scratch, tracer)

    if tracer is None:
        out = {k: (v, u, None) for k, (v, u) in r.metrics.items()}
    else:
        tracer.uninstall()
        out = per_layer(r, tracer)
        _, overlap = tracing.self_times(tracer.spans, "pipeline.run_query")
        r.problems += overlap[:10]
        traces = prepare.CACHE_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        stem = traces / f"{args.workload}-s{args.seed}"
        tracer.write_jsonl(stem.with_suffix(".jsonl"))
        summary = {"missing": tracer.missing, "traced_qps": r.metrics["qps"][0],
                   "notes": r.notes,
                   "metrics": {k: {"value": v, "unit": u, "samples": n}
                               for k, (v, u, n) in out.items()}}
        stem.with_suffix(".summary.json").write_text(json.dumps(summary, indent=1) + "\n")
        for name in tracer.missing:
            print(f"perfbench: traced function {name} is missing", file=sys.stderr)

    for p in r.problems[:20]:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} attempted={r.attempted} failed={r.failed} "
          f"notes={json.dumps(r.notes, default=str)}")
    for name, (value, unit, samples) in sorted(out.items()):
        count = "" if samples is None else f"  (n={samples})"
        print(f"# {name:<48} {value:>14.6g} {unit}{count}")
    print(json.dumps({
        "correct": not r.problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
