"""Metric, significance-test, and run-file tests against brute-force oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendrank.corpus import Qrels
from blendrank.metrics import (DiffBuckets, MetricReport, RunList, bonferroni,
                               evaluate_run, load_run, mrr_at_k, ndcg_at_k,
                               paired_t_test, per_query_diff, recall_at_k,
                               regularized_incomplete_beta,
                               student_t_two_sided_p, write_run)


def brute_dcg(grades, k, exponential=True):
    """Independent DCG calculator (plain python loop)."""
    total = 0.0
    for rank, g in enumerate(grades[:k], start=1):
        gain = 2.0 ** g - 1.0 if exponential else float(g)
        total += gain / math.log2(rank + 1)
    return total


def brute_ndcg(ranked, all_grades, k, exponential=True):
    ideal = brute_dcg(sorted(all_grades, reverse=True), k, exponential)
    return brute_dcg(ranked, k, exponential) / ideal if ideal > 0 else 0.0


def t_pdf(x, dof):
    c = math.exp(math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0)) \
        / math.sqrt(dof * math.pi)
    return c * (1.0 + x * x / dof) ** (-(dof + 1) / 2.0)


def simpson_t_two_sided(t, dof, steps=200_000):
    """Oracle: two-sided p from composite-Simpson integration of the pdf."""
    t = abs(t)
    if t == 0.0:
        return 1.0
    h = t / steps
    acc = t_pdf(0.0, dof) + t_pdf(t, dof)
    for i in range(1, steps):
        acc += t_pdf(i * h, dof) * (4 if i % 2 else 2)
    integral = acc * h / 3.0
    return max(0.0, 2.0 * (0.5 - integral))


class TestNdcg:
    def test_perfect_ordering_is_one(self):
        assert ndcg_at_k([2, 1, 0], [2, 1, 0], 10) == 1.0

    def test_no_relevant_retrieved(self):
        assert ndcg_at_k([0, 0, 0], [2, 1], 10) == 0.0

    def test_worked_example(self):
        # Exponential gain (the default): DCG = 3/log2(3) + 1/log2(4),
        # ideal = 3/log2(2) + 1/log2(3) -> 0.6590018.
        got = ndcg_at_k([0, 2, 1], [2, 1, 0], 10)
        assert abs(got - 0.6590018) < 1e-5
        # Linear gain, which the metric does not offer, gives 0.66967 here.
        assert abs(brute_ndcg([0, 2, 1], [2, 1, 0], 10, exponential=False) - 0.66967) < 1e-5

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            n = int(rng.integers(1, 20))
            all_grades = rng.integers(0, 4, n).tolist()
            ranked = list(all_grades)
            rng.shuffle(ranked)
            ranked = ranked[:int(rng.integers(1, n + 1))]
            k = int(rng.integers(1, 15))
            got = ndcg_at_k(ranked, all_grades, k)
            assert abs(got - brute_ndcg(ranked, all_grades, k)) < 1e-9

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            grades = rng.integers(0, 4, 8).tolist()
            ranked = list(grades)
            rng.shuffle(ranked)
            v = ndcg_at_k(ranked, grades, 10)
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_invariant_to_zero_grade_tail_permutation(self):
        head = [2, 1, 0, 0, 0]
        tail_a = head + [0, 0, 0]
        tail_b = head + [0, 0, 0]
        assert ndcg_at_k(tail_a, [2, 1], 5) == ndcg_at_k(tail_b, [2, 1], 5)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ndcg_at_k([1], [1], 0)


class TestMrrRecall:
    def test_mrr_first_hit_rank_one(self):
        assert mrr_at_k([1, 0, 0], 10) == 1.0

    def test_mrr_rank_three(self):
        assert mrr_at_k([0, 0, 2, 1], 10) == pytest.approx(1 / 3)

    def test_mrr_beyond_cutoff(self):
        grades = [0] * 10 + [1]
        assert mrr_at_k(grades, 10) == 0.0

    def test_mrr_threshold(self):
        assert mrr_at_k([1, 2], 10, threshold=2) == 0.5

    def test_recall_all_found(self):
        assert recall_at_k(["a", "b", "c"], {"a", "b"}, 10) == 1.0

    def test_recall_half(self):
        assert recall_at_k(["a", "x", "y"], {"a", "b", "c", "d"}, 3) == 0.25

    def test_recall_k_at_least_corpus(self):
        docs = [f"d{i}" for i in range(30)]
        rel = {"d3", "d7", "d100"}
        assert recall_at_k(docs, rel, 1000) == recall_at_k(docs, rel, 30)

    def test_recall_empty_relevant_set(self):
        assert recall_at_k(["a"], set(), 10) == 0.0


class TestPairedTTest:
    def test_identical_samples(self):
        r = paired_t_test([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        assert r.t == 0.0 and r.p == 1.0

    def test_zero_variance_nonzero_mean(self):
        r = paired_t_test([1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0])
        assert r.p == 0.0
        assert math.isinf(r.t) and r.t > 0

    def test_worked_example(self):
        # differences [2.1, 1.9, 2.0, 2.2, 1.8]: mean 2.0, sample sd
        # sqrt(0.025), so t = 2.0 / (sd/sqrt(5)) = 28.2843.
        a = [2.1, 1.9, 2.0, 2.2, 1.8]
        b = [0.0] * 5
        r = paired_t_test(a, b)
        assert abs(r.t - 28.28427125) < 0.05
        assert r.p < 1e-5

    def test_antisymmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            fwd = paired_t_test(a, b)
            rev = paired_t_test(b, a)
            assert fwd.t == -rev.t
            assert fwd.p == rev.p

    def test_p_matches_integration_oracle(self):
        for t, dof in ((0.5, 3), (1.2, 4), (2.8, 9), (4.0, 19), (0.0, 2)):
            got = student_t_two_sided_p(t, dof)
            want = simpson_t_two_sided(t, dof)
            assert abs(got - want) < 1e-8, (t, dof)

    def test_incomplete_beta_edges(self):
        assert regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert regularized_incomplete_beta(1.0, 2.0, 3.0) == 1.0
        # I_x(1, 1) = x
        for x in (0.1, 0.5, 0.9):
            assert abs(regularized_incomplete_beta(x, 1.0, 1.0) - x) < 1e-12

    def test_length_checks(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])


class TestBonferroni:
    def test_scales_and_clamps(self):
        assert bonferroni([0.004], 2) == [0.008]
        assert bonferroni([0.9], 5) == [1.0]

    def test_identity_with_one_comparison(self):
        assert bonferroni([0.03], 1) == [0.03]

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            bonferroni([0.1, 0.2], 1)


class TestPerQueryDiff:
    def test_identical_all_unchanged(self):
        vals = {"q1": 0.5, "q2": 0.7}
        d = per_query_diff(vals, dict(vals))
        assert d.unchanged == 2 and d.degraded == 0 and d.improved == 0
        assert d.pct(d.unchanged) == 100.0

    def test_worked_buckets(self):
        a = {"q1": 0.55, "q2": 0.3, "q3": 0.29, "q4": 0.31}
        b = {"q1": 0.50, "q2": 0.3, "q3": 0.30, "q4": 0.30}
        d = per_query_diff(a, b, threshold=0.03)
        assert d.non_degrading_pct == 75.0
        assert d.pct(d.improved) == 50.0
        assert d.pct(d.improved_at_least) == 25.0

    def test_buckets_partition(self):
        rng = np.random.default_rng(3)
        a = {f"q{i}": float(rng.random()) for i in range(40)}
        b = {f"q{i}": float(rng.random()) for i in range(40)}
        d = per_query_diff(a, b)
        assert d.degraded + d.unchanged + d.improved == d.n_queries

    def test_query_set_mismatch(self):
        with pytest.raises(ValueError, match=re.escape(
                "only in the first ['q1', 'q3'], only in the second ['q2']")):
            per_query_diff({"q1": 0.1, "q3": 0.2, "q4": 0.3}, {"q2": 0.1, "q4": 0.3})


class TestRunFiles:
    def make_run(self):
        run = RunList("testrun")
        run.add("q1", [("d3", 2.5), ("d1", 1.25), ("d9", 0.75)])
        run.add("q2", [("d2", 9.0)])
        return run

    def test_round_trip(self, tmp_path):
        run = self.make_run()
        path = tmp_path / "run.txt"
        write_run(run, path)
        assert load_run(path) == run

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(ranked=st.dictionaries(
        st.text("qQ0123456789_-", min_size=1, max_size=6),
        st.lists(st.tuples(st.text("dD0123456789.:", min_size=1, max_size=8),
                           st.floats(allow_nan=False)), max_size=6, unique_by=lambda e: e[0])))
    def test_save_load_save_gives_the_same_bytes(self, tmp_path_factory, ranked):
        run = RunList("blendrank.np8.c100.full")
        for qid, entries in ranked.items():
            run.add(qid, sorted(entries, key=lambda e: -e[1]))
        tmp = tmp_path_factory.mktemp("run")
        write_run(run, tmp / "a.txt")
        write_run(load_run(tmp / "a.txt"), tmp / "b.txt")
        assert (tmp / "a.txt").read_bytes() == (tmp / "b.txt").read_bytes()

    @pytest.mark.parametrize("qid, did, tag", [
        ("q1", "d 1", "t"), ("q1", "", "t"), ("q\t1", "d1", "t"), ("", "d1", "t"),
        ("q1", "d1\u2003", "t"), ("q0", "d0", "my run"), ("q0", "d0", "")],
        ids=["space_in_doc", "empty_doc", "tab_in_query", "empty_query", "unicode_space_in_doc",
             "space_in_tag", "empty_tag"])
    def test_blank_or_spaced_field_rejected_before_the_file_is_opened(self, tmp_path, qid, did,
                                                                      tag):
        run = RunList(tag)
        run.add("q0", [("d0", 1.0)])
        run.add(qid, [(did, 2.0)])
        path = tmp_path / "run.txt"
        with pytest.raises(ValueError, match="^" + re.escape(
                f"query {qid!r}, document {did!r}, tag {tag!r}: an id or the tag is empty")):
            write_run(run, path)
        assert not path.exists()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(tag=st.text(max_size=3), ranked=st.dictionaries(
        st.text(max_size=3), st.lists(st.tuples(st.text(max_size=3), st.floats(allow_nan=False)),
                                      min_size=1, max_size=4), min_size=1, max_size=3))
    def test_every_run_written_loads_back(self, tmp_path_factory, tag, ranked):
        run = RunList(tag)
        for qid, entries in ranked.items():
            run.add(qid, sorted(entries, key=lambda e: -e[1]))
        path = tmp_path_factory.mktemp("run") / "run.txt"
        try:
            write_run(run, path)
        except ValueError:
            assert not path.exists()
            return
        assert load_run(path) == run

    def test_repeated_document_rejected_before_the_file_is_opened(self, tmp_path):
        run = RunList("t")
        run.add("q0", [("d1", 1.0)])
        run.add("q1", [("d1", 2.0), ("d2", 1.0), ("d1", 0.5)])
        path = tmp_path / "run.txt"
        with pytest.raises(ValueError, match="^query 'q1' lists document 'd1' twice$"):
            write_run(run, path)
        assert not path.exists()

    def test_rank_gap_rejected(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 2.0 tag\nq1 Q0 d2 3 1.0 tag\n")
        with pytest.raises(ValueError, match="rank gap"):
            load_run(path)

    def test_duplicate_document_rejected(self, tmp_path):
        # A document counted twice lifts its query's nDCG above 1 and recall
        # to 2; another query may list the same document.
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 2.0 tag\nq2 Q0 d1 1 2.0 tag\nq1 Q0 d1 2 1.0 tag\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: query q1 "
                                             "lists document d1 twice$"):
            load_run(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 2.0\n")
        with pytest.raises(ValueError, match="6 fields"):
            load_run(path)

    def test_empty_run(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("")
        assert load_run(path).entries == {}

    def test_non_monotone_scores_warn(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 1.0 tag\nq1 Q0 d2 2 2.0 tag\n")
        with pytest.warns(UserWarning, match="non-monotone"):
            load_run(path)


class TestEvaluateRun:
    def test_metric_trio(self):
        qrels = Qrels({("q1", "d1"): 2, ("q1", "d2"): 1, ("q2", "d9"): 1})
        run = RunList("r")
        run.add("q1", [("d1", 3.0), ("dX", 2.0), ("d2", 1.0)])
        run.add("q2", [("dZ", 1.0)])
        rep = evaluate_run(run, qrels, ndcg_k=10, mrr_k=10, recall_k=1000)
        assert rep.per_query["mrr@10"]["q1"] == 1.0
        assert rep.per_query["mrr@10"]["q2"] == 0.0
        assert rep.per_query["recall@1000"]["q1"] == 1.0
        assert rep.per_query["recall@1000"]["q2"] == 0.0
        want = brute_ndcg([2, 0, 1], [2, 1], 10)
        assert abs(rep.per_query["ndcg@10"]["q1"] - want) < 1e-12
        assert rep.means["mrr@10"] == 0.5

    def test_report_mean_is_arithmetic_mean(self):
        rep = MetricReport({"m": {"a": 0.2, "b": 0.6}})
        assert rep.means["m"] == pytest.approx(0.4)

    def test_csv_and_table(self, tmp_path):
        rep = MetricReport({"ndcg@10": {"q1": 0.5}, "mrr@10": {"q1": 1.0}})
        out = tmp_path / "rep.csv"
        rep.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "query_id,ndcg@10,mrr@10"
        assert lines[-1].startswith("MEAN,")
        assert "ndcg@10" in rep.format_table()
