"""Output checks. Each one is either computed apart from the program or is a
property the method must have; each returns a list of problems (empty when
the outputs are correct).
"""

from __future__ import annotations

import math
import re

import numpy as np

from perfbench.tracing import top_lists

# Lexical catalog parameters as documented for the program's features.
BM25_K1 = 0.9
BM25_B = 0.4
_TOKEN = re.compile(r"[^\W_]+", re.UNICODE)


def check_run_lists(results: list[tuple[str, list[tuple[str, float]]]]) -> list[str]:
    """Every run list holds unique ids under strictly decreasing scores."""
    problems = []
    for qid, entries in results:
        ids = [d for d, _ in entries]
        if len(set(ids)) != len(ids):
            problems.append(f"{qid}: duplicate document ids in the run list")
        scores = np.fromiter((s for _, s in entries), dtype=np.float64, count=len(entries))
        if np.any(scores[1:] >= scores[:-1]):
            problems.append(f"{qid}: scores are not strictly decreasing")
    return problems


def ndcg_at(ranked_grades, all_grades, k: int) -> float:
    """Exponential-gain nDCG@k against the ideal order of all judged grades."""
    def dcg(grades):
        return sum((2.0 ** g - 1.0) / math.log2(1.0 + r)
                   for r, g in enumerate(grades[:k], start=1))
    ideal = dcg(sorted(all_grades, reverse=True))
    return dcg(ranked_grades) / ideal if ideal > 0 else 0.0


def recall_at(ranked_ids, judged: dict[str, int], k: int) -> float:
    relevant = {d for d, g in judged.items() if g >= 1}
    if not relevant:
        return 0.0
    return sum(1 for d in ranked_ids[:k] if d in relevant) / len(relevant)


def quality(results, qrels) -> tuple[float, float]:
    """Mean nDCG@10 and recall@1000 computed by the benchmark."""
    nd, rc = [], []
    for qid, entries in results:
        judged = qrels.for_query(qid)
        ids = [d for d, _ in entries]
        nd.append(ndcg_at([judged.get(d, 0) for d in ids], list(judged.values()), 10))
        rc.append(recall_at(ids, judged, 1000))
    return float(np.mean(nd)), float(np.mean(rc))


def check_quality(results, qrels, report) -> list[str]:
    """The program's evaluate_run means match the benchmark's own to 1e-12."""
    ndcg, recall = quality(results, qrels)
    problems = []
    for name, own, prog in (("ndcg@10", ndcg, report.means["ndcg@10"]),
                            ("recall@1000", recall, report.means["recall@1000"])):
        if abs(own - prog) > 1e-12:
            problems.append(f"{name}: evaluate_run gives {prog!r}, recomputed {own!r}")
    return problems


def exact_top_k(doc_rows: np.ndarray, q: np.ndarray, k: int):
    """Exhaustive dot-product top-k ordered by (score desc, id asc)."""
    scores = doc_rows.astype(np.float64) @ np.asarray(q, dtype=np.float64)
    ids = np.arange(doc_rows.shape[0])
    order = np.lexsort((ids, -scores))[:k]
    return ids[order], scores[order]


def check_exact_search(search, index, doc_rows, qvecs, k: int) -> list[str]:
    """ivf.search at nprobe = nlist equals the exhaustive top-k."""
    problems = []
    for qid, q in qvecs:
        got = search(index, q, k, index.nlist)
        ids, scores = exact_top_k(doc_rows, q, k)
        if not np.array_equal(got.ids, ids):
            problems.append(f"{qid}: search at nprobe=nlist differs from exhaustive top-{k}")
        elif not np.allclose(got.scores, scores, rtol=0.0, atol=1e-12):
            problems.append(f"{qid}: search scores differ from exhaustive scores")
    return problems


def check_probe_membership(index, q, internal_ids, nprobe: int, qid: str) -> list[str]:
    """Every returned id lies in one of the nprobe best-scoring lists."""
    allowed = np.concatenate([index.list_ids(int(c)) for c in top_lists(index, q, nprobe)])
    stray = np.setdiff1d(internal_ids, allowed)
    return [f"{qid}: {stray.shape[0]} ids outside the {nprobe} probed lists"] if stray.size else []


def check_permutation(run_ids, first_stage_ids, qid: str) -> list[str]:
    """The top k_first is a permutation of the first-stage candidates."""
    if len(run_ids) != len(first_stage_ids) or set(run_ids) != set(first_stage_ids):
        return [f"{qid}: run list is not a permutation of the first-stage candidates"]
    return []


def walk_forest(trees, learning_rate: float, X: np.ndarray) -> np.ndarray:
    """Root-to-leaf walk over the tree arrays (value <= threshold goes left),
    summed tree by tree."""
    scores = np.zeros(X.shape[0], dtype=np.float64)
    rows = np.arange(X.shape[0])
    for t in trees:
        node = np.zeros(X.shape[0], dtype=np.int64)
        inner = t.feature[node] >= 0
        while inner.any():
            f = t.feature[node]
            left = X[rows, np.maximum(f, 0)] <= t.threshold[node]
            node = np.where(inner, np.where(left, t.left[node], t.right[node]), node)
            inner = t.feature[node] >= 0
        scores += learning_rate * t.value[node]
    return scores


def check_rerank_order(run_ids, cand_ids, features_masked, model, program_scores,
                       cutoff: int, qid: str) -> list[str]:
    """The re-ranked block follows the benchmark's own forest scores (ties by
    ascending id), those scores equal the program's bit for bit, and the tail
    keeps first-stage order."""
    own = walk_forest(model.trees, model.learning_rate, features_masked)
    problems = []
    if not np.array_equal(own, program_scores):
        problems.append(f"{qid}: scorer.score_batch differs from the root-to-leaf walk")
    head = cand_ids[:cutoff]
    expect = np.concatenate([head[np.lexsort((head, -own))], cand_ids[cutoff:]])
    if not np.array_equal(np.asarray(run_ids), expect[:len(run_ids)]):
        problems.append(f"{qid}: re-ranked order differs from the forest scores")
    return problems


def check_kept_trees(ensemble) -> list[str]:
    """Early stopping keeps the trees up to the first best validation score."""
    log = ensemble.metadata["valid_log"]
    want = int(np.argmax(log)) + 1 if log else 0
    if ensemble.n_trees != want:
        return [f"kept {ensemble.n_trees} trees, first arg-max of valid_log + 1 is {want}"]
    return []


def tokens(text: str) -> list[str]:
    return _TOKEN.findall(text.lower())


def lexical_reference(texts: list[str], query: str, doc: int, df: dict[str, int],
                      avgdl: float) -> tuple[float, float, float]:
    """(document length, summed tf over unique query terms, BM25 total)
    recomputed from the collection text, summed in sorted term order."""
    n_docs = len(texts)
    toks = tokens(texts[doc])
    dl = len(toks)
    norm = 1.0 - BM25_B + BM25_B * (dl / avgdl)
    tf_sum = 0.0
    bm25 = None
    for term in sorted(set(tokens(query))):
        tf = toks.count(term)
        tf_sum += tf
        d = df.get(term, 0)
        idf = math.log((n_docs - d + 0.5) / (d + 0.5) + 1.0)
        v = idf * tf / (tf + BM25_K1 * norm) if tf else 0.0
        bm25 = v if bm25 is None else bm25 + v
    return float(dl), tf_sum, bm25 or 0.0


def collection_stats(texts: list[str], terms) -> tuple[dict[str, int], float]:
    """Document frequencies of `terms` and the mean document length."""
    df = dict.fromkeys(terms, 0)
    total = 0
    for text in texts:
        toks = tokens(text)
        total += len(toks)
        for t in df.keys() & set(toks):
            df[t] += 1
    return df, total / len(texts)


def check_lexical(texts, samples, lex_offset: int, names) -> list[str]:
    """samples: (query text, internal doc id, feature row). Document length,
    summed tf and lex_bm25_total match the recomputation to a relative 1e-12."""
    df, avgdl = collection_stats(texts, {t for q, _, _ in samples for t in tokens(q)})
    checked = ("lex_doc_len", "lex_tf_sum", "lex_bm25_total")
    cols = [lex_offset + names.index(n) for n in checked]
    problems = []
    for query, doc, row in samples:
        ref = lexical_reference(texts, query, doc, df, avgdl)
        for name, col, want in zip(checked, cols, ref):
            got = float(row[col])
            if abs(got - want) > 1e-12 * abs(want):
                problems.append(f"doc {doc} / {query!r}: {name} {got!r} != {want!r}")
    return problems
