"""Ranking metrics, TREC run file I/O, and paired significance testing of
two runs' per-query values.

nDCG uses exponential gain (2^grade - 1) and a log2(1 + rank) discount.
This module is the one definition of gain, DCG and nDCG: evaluation and
LambdaMART training (its lambdas and early stopping) both call it, and a
DCG is always summed in rank order, so an nDCG depends only on the ranked
grade list.

The Student-t CDF needed for the paired t-test is implemented here via the
regularized incomplete beta continued fraction, so there is no external
stats dependency.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import Qrels


def gains(grades) -> np.ndarray:
    """Per-document gain: 2^grade - 1."""
    return np.power(2.0, np.asarray(grades, dtype=np.float64)) - 1.0


def rank_discount(ranks) -> np.ndarray:
    """log2(1 + rank), the DCG divisor of each 1-based rank."""
    return np.log2(1.0 + np.asarray(ranks, dtype=np.float64))


def dcg_at_k(grades, k: int) -> float:
    """Discounted cumulative gain of a ranked grade list, truncated at k and
    summed in rank order."""
    g = gains(grades[:k])
    return float(np.sum(g / rank_discount(np.arange(1, g.shape[0] + 1))))


def ideal_dcg(grades, k: int) -> float:
    """DCG@k of the grades sorted best first."""
    return dcg_at_k(np.sort(np.asarray(grades))[::-1], k)


def ndcg_at_k(ranked_grades, all_grades, k: int) -> float:
    """DCG of the ranking over the ideal DCG of all judged grades; 0 when
    the query has no relevant document."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ideal = ideal_dcg(all_grades, k)
    if ideal == 0.0:
        return 0.0
    return dcg_at_k(ranked_grades, k) / ideal


def mrr_at_k(ranked_grades, k: int, threshold: int = 1) -> float:
    """Reciprocal rank of the first document with grade >= threshold in the
    top k; 0 if none."""
    for r, g in enumerate(ranked_grades[:k], start=1):
        if g >= threshold:
            return 1.0 / r
    return 0.0


def recall_at_k(ranked_doc_ids, relevant: set, k: int) -> float:
    """Fraction of the relevant set retrieved in the top k; 0 for queries
    with an empty relevant set."""
    if not relevant:
        return 0.0
    hits = sum(1 for d in ranked_doc_ids[:k] if d in relevant)
    return hits / len(relevant)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) to better than 1e-10 absolute error."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, dof: int) -> float:
    """Two-sided tail probability of Student's t with `dof` degrees of freedom."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if math.isinf(t):
        return 0.0
    x = dof / (dof + t * t)
    return regularized_incomplete_beta(x, dof / 2.0, 0.5)


@dataclass
class TTestResult:
    t: float
    p: float


def paired_t_test(a, b) -> TTestResult:
    """Two-sided paired t-test on matched per-query values.

    Uses the sample standard deviation of the differences. Zero-variance
    differences degenerate to p = 1 when the mean difference is 0 and
    p = 0 otherwise.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("paired samples must have equal length")
    n = a.shape[0]
    if n < 2:
        raise ValueError("need at least 2 paired observations")
    d = a - b
    mean = float(d.mean())
    var = float(d.var(ddof=1))
    if var == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 1.0)
        return TTestResult(math.copysign(math.inf, mean), 0.0)
    t = mean / math.sqrt(var / n)
    return TTestResult(t, student_t_two_sided_p(t, n - 1))


def bonferroni(p_values, m: int) -> list[float]:
    """Family-wise correction: each p is multiplied by m and clamped at 1."""
    p_values = list(p_values)
    if m < len(p_values):
        raise ValueError("m must be at least the number of comparisons")
    return [min(1.0, m * p) for p in p_values]


def paired_values(a: dict[str, float], b: dict[str, float]) -> tuple[list, list]:
    """The values of two per-query reports, matched by query id in sorted id
    order; ValueError naming the query ids that only one of them has."""
    if a.keys() != b.keys():
        raise ValueError(f"query sets differ: only in the first {sorted(a.keys() - b.keys())}, "
                         f"only in the second {sorted(b.keys() - a.keys())}")
    qids = sorted(a)
    return [a[q] for q in qids], [b[q] for q in qids]


class RunList:
    """Per-query ranked (doc_id, score) lists plus a run tag."""

    def __init__(self, tag: str = "run"):
        self.tag = tag
        self.entries: dict[str, list[tuple[str, float]]] = {}

    def add(self, query_id: str, ranked: list[tuple[str, float]]) -> None:
        self.entries[query_id] = list(ranked)

    def query_ids(self) -> list[str]:
        return list(self.entries)

    def doc_ids(self, query_id: str) -> list[str]:
        return [d for d, _ in self.entries[query_id]]

    def __eq__(self, other) -> bool:
        return (isinstance(other, RunList) and self.tag == other.tag
                and self.entries == other.entries)


def write_run(run: RunList, path) -> None:
    """Write a TREC run file; a run load_run would reject (a repeated document, an id or
    tag empty or holding whitespace) raises ValueError before the file is opened."""
    for qid, ranked in run.entries.items():
        seen = set()
        for did, _ in ranked:
            if did in seen:
                raise ValueError(f"query {qid!r} lists document {did!r} twice")
            if any(s.split() != [s] for s in (qid, did, run.tag)):
                raise ValueError(f"query {qid!r}, document {did!r}, tag {run.tag!r}: "
                                 "an id or the tag is empty or holds whitespace")
            seen.add(did)
    with open(path, "w", encoding="utf-8") as f:
        for qid, ranked in run.entries.items():
            for rank, (did, score) in enumerate(ranked, start=1):
                f.write(f"{qid} Q0 {did} {rank} {float(score)!r} {run.tag}\n")


def load_run(path) -> RunList:
    run = None
    per_query_docs: dict[str, set[str]] = {}
    per_query_score: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise ValueError(f"{path}: malformed run line {lineno}: expected 6 fields")
            qid, _, did, rank_s, score_s, tag = parts
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError:
                raise ValueError(f"{path}: bad rank/score at line {lineno}") from None
            if run is None:
                run = RunList(tag)
            docs = per_query_docs.setdefault(qid, set())
            if rank != len(docs) + 1:
                raise ValueError(f"{path}: rank gap for query {qid} at line {lineno}: "
                                 f"expected {len(docs) + 1}, got {rank}")
            if did in docs:
                raise ValueError(f"{path}: line {lineno}: query {qid} lists document {did} twice")
            if qid in per_query_score and score > per_query_score[qid]:
                warnings.warn(f"{path}: non-monotone scores for query {qid} "
                              f"at line {lineno}")
            docs.add(did)
            per_query_score[qid] = score
            run.entries.setdefault(qid, []).append((did, score))
    return run if run is not None else RunList()


@dataclass
class MetricReport:
    """Per-query metric values and their means."""

    per_query: dict[str, dict[str, float]]
    means: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.means:
            self.means = {
                m: float(np.mean(list(vals.values()))) if vals else 0.0
                for m, vals in self.per_query.items()
            }

    def to_csv(self, path) -> None:
        metrics = list(self.per_query)
        qids = list(next(iter(self.per_query.values()), {}))
        with open(path, "w", encoding="utf-8") as f:
            f.write("query_id," + ",".join(metrics) + "\n")
            for qid in qids:
                row = ",".join(repr(self.per_query[m][qid]) for m in metrics)
                f.write(f"{qid},{row}\n")
            f.write("MEAN," + ",".join(repr(self.means[m]) for m in metrics) + "\n")

    def format_table(self) -> str:
        lines = ["metric            mean", "-" * 26]
        for m, v in self.means.items():
            lines.append(f"{m:<16}{v:>10.4f}")
        return "\n".join(lines)


def evaluate_run(run: RunList, qrels: Qrels, ndcg_k: int = 10, mrr_k: int = 10,
                 recall_k: int = 1000, rel_threshold: int = 1) -> MetricReport:
    """Score a run against judgments with the standard metric trio."""
    ndcg_name = f"ndcg@{ndcg_k}"
    mrr_name = f"mrr@{mrr_k}"
    recall_name = f"recall@{recall_k}"
    per_query = {ndcg_name: {}, mrr_name: {}, recall_name: {}}
    for qid in run.query_ids():
        judged = qrels.for_query(qid)
        ranked_docs = run.doc_ids(qid)
        ranked_grades = [judged.get(d, 0) for d in ranked_docs]
        all_grades = list(judged.values())
        relevant = {d for d, g in judged.items() if g >= rel_threshold}
        per_query[ndcg_name][qid] = ndcg_at_k(ranked_grades, all_grades, ndcg_k)
        per_query[mrr_name][qid] = mrr_at_k(ranked_grades, mrr_k, rel_threshold)
        per_query[recall_name][qid] = recall_at_k(ranked_docs, relevant, recall_k)
    return MetricReport(per_query)
