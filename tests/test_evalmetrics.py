import math
import random

import pytest

from symrel.collection import DiseaseEntry, GradedCollection
from symrel.errors import LengthMismatch, MalformedRow, NoJudgments, TooFewPairs
from symrel.evalmetrics import (
    DENOMINATOR_RETRIEVED,
    GAIN_EXPONENTIAL,
    RankedRun,
    compare_runs,
    evaluate_run,
    load_run,
    metric_keys,
    ndcg_at_k,
    paired_ttest,
    precision_at_k,
    recall_at_k,
    report_json,
    write_run,
)

from oracles import (
    reference_ndcg,
    reference_paired_t,
    reference_precision,
    reference_recall,
)


JUDGMENTS = {"s1": 2, "s2": 1, "s3": 1}


class TestPrecision:
    def test_three_of_five(self):
        ranking = ["s1", "x1", "s2", "x2", "s3", "x3"]
        assert precision_at_k(ranking, JUDGMENTS, 5) == 0.6

    def test_empty_ranking(self):
        assert precision_at_k([], JUDGMENTS, 5) == 0.0

    def test_short_ranking_fixed_denominator(self):
        assert precision_at_k(["s1", "s2"], JUDGMENTS, 5) == 0.4

    def test_short_ranking_retrieved_denominator(self):
        assert (
            precision_at_k(["s1", "s2"], JUDGMENTS, 5, denominator=DENOMINATOR_RETRIEVED)
            == 1.0
        )

    def test_retrieved_denominator_empty_ranking(self):
        assert precision_at_k([], JUDGMENTS, 5, denominator=DENOMINATOR_RETRIEVED) == 0.0


class TestRecall:
    def test_half_found(self):
        judgments = {f"s{i}": 1 for i in range(12)}
        ranking = [f"s{i}" for i in range(6)] + [f"x{i}" for i in range(4)]
        assert recall_at_k(ranking, judgments, 10) == 0.5

    def test_all_found(self):
        assert recall_at_k(["s3", "s1", "s2"], JUDGMENTS, 5) == 1.0

    def test_empty_ranking(self):
        assert recall_at_k([], JUDGMENTS, 5) == 0.0

    def test_both_grades_count_as_relevant(self):
        assert recall_at_k(["s1"], JUDGMENTS, 5) == recall_at_k(["s2"], JUDGMENTS, 5)

    def test_no_judgments_error(self):
        with pytest.raises(NoJudgments):
            recall_at_k(["s1"], {}, 5)


class TestNdcg:
    def test_ideal_ranking_is_one(self):
        assert ndcg_at_k(["s1", "s2", "s3"], JUDGMENTS, 5) == 1.0

    def test_worked_example(self):
        value = ndcg_at_k(["s1", "unjudged", "s2"], JUDGMENTS, 3)
        dcg = 2.0 + 0.0 + 1.0 / 2.0
        idcg = 2.0 + 1.0 / math.log2(3) + 0.5
        assert value == pytest.approx(dcg / idcg, abs=1e-12)
        assert value == pytest.approx(0.79849, abs=1e-5)

    def test_empty_ranking(self):
        assert ndcg_at_k([], JUDGMENTS, 5) == 0.0

    def test_no_judgments_error(self):
        with pytest.raises(NoJudgments):
            ndcg_at_k(["s1"], {}, 5)

    def test_exponential_gain_variant(self):
        value = ndcg_at_k(["s2", "s1"], JUDGMENTS, 2, gain=GAIN_EXPONENTIAL)
        dcg = 1.0 + 3.0 / math.log2(3)
        idcg = 3.0 + 1.0 / math.log2(3)
        assert value == pytest.approx(dcg / idcg, abs=1e-12)

    def test_swap_toward_ideal_increases_value(self):
        rng = random.Random(2871)
        for _ in range(60):
            judged = {f"s{i}": rng.choice([1, 2]) for i in range(6)}
            pool = list(judged) + [f"x{i}" for i in range(4)]
            rng.shuffle(pool)
            k = rng.randint(2, len(pool))
            position = rng.randint(0, k - 2)
            upper, lower = pool[position], pool[position + 1]
            if judged.get(lower, 0) <= judged.get(upper, 0):
                continue
            before = ndcg_at_k(pool, judged, k)
            swapped = pool[:]
            swapped[position], swapped[position + 1] = lower, upper
            assert ndcg_at_k(swapped, judged, k) > before

    def test_binary_metrics_ignore_grades(self):
        rng = random.Random(404)
        for _ in range(50):
            judged_ids = [f"s{i}" for i in range(rng.randint(1, 8))]
            ranking = judged_ids[: rng.randint(0, len(judged_ids))] + ["x1", "x2"]
            rng.shuffle(ranking)
            k = rng.randint(1, 10)
            as_ones = {s: 1 for s in judged_ids}
            as_twos = {s: 2 for s in judged_ids}
            assert precision_at_k(ranking, as_ones, k) == precision_at_k(
                ranking, as_twos, k
            )
            assert recall_at_k(ranking, as_ones, k) == recall_at_k(ranking, as_twos, k)


class TestMetricOracleFuzz:
    def test_thousand_randomized_fixtures(self):
        rng = random.Random(123456)
        for _ in range(1000):
            judged = {
                f"s{i}": rng.choice([1, 2]) for i in range(rng.randint(1, 15))
            }
            pool = list(judged) + [f"x{i}" for i in range(rng.randint(0, 15))]
            rng.shuffle(pool)
            ranking = pool[: rng.randint(0, len(pool))]
            k = rng.randint(1, 20)
            assert abs(
                precision_at_k(ranking, judged, k) - reference_precision(ranking, judged, k)
            ) <= 1e-9
            assert abs(
                recall_at_k(ranking, judged, k) - reference_recall(ranking, judged, k)
            ) <= 1e-9
            assert abs(
                ndcg_at_k(ranking, judged, k) - reference_ndcg(ranking, judged, k)
            ) <= 1e-9


@pytest.fixture
def collection():
    return GradedCollection(
        entries=[
            DiseaseEntry("D1", "influenza", {"S1": 2, "S2": 1}),
            DiseaseEntry("D2", "migraine", {"S3": 2}),
            DiseaseEntry("D3", "asthma", {"S1": 1, "S4": 2}),
        ],
        metadata={},
    )


class TestEvaluateRun:
    def test_ideal_run_scores_one_everywhere(self, collection):
        run = RankedRun(
            label="ideal",
            rankings={"D1": ["S1", "S2"], "D2": ["S3"], "D3": ["S4", "S1"]},
        )
        report = evaluate_run(run, collection)
        for k in (5, 10):
            assert report.macro[f"ndcg@{k}"] == 1.0

    def test_empty_run_scores_zero(self, collection):
        report = evaluate_run(RankedRun(label="empty", rankings={}), collection)
        assert all(value == 0.0 for value in report.macro.values())
        assert set(report.per_disease) == {"D1", "D2", "D3"}

    def test_missing_disease_counted_as_zero(self, collection):
        run = RankedRun(label="partial", rankings={"D1": ["S1", "S2"]})
        report = evaluate_run(run, collection)
        assert report.macro["ndcg@5"] == pytest.approx(1.0 / 3.0)

    def test_unknown_run_disease_rejected(self, collection):
        run = RankedRun(label="bad", rankings={"D9": ["S1"]})
        with pytest.raises(ValueError):
            evaluate_run(run, collection)

    def test_macro_is_mean_of_per_disease(self, collection):
        run = RankedRun(
            label="mixed",
            rankings={"D1": ["S2", "S1"], "D2": ["S1"], "D3": ["S1"]},
        )
        report = evaluate_run(run, collection, cutoffs=(5,))
        for key in metric_keys((5,)):
            values = [report.per_disease[d][key] for d in collection.disease_ids()]
            assert report.macro[key] == pytest.approx(sum(values) / len(values))

    def test_duplicate_symptom_in_run_rejected(self):
        with pytest.raises(ValueError):
            RankedRun(label="dup", rankings={"D1": ["S1", "S1"]})


class TestPairedTTest:
    def test_identical_lists(self):
        result = paired_ttest([0.5, 0.5, 0.7], [0.5, 0.5, 0.7])
        assert result.statistic == 0.0
        assert result.pvalue == 1.0
        assert result.degenerate

    def test_constant_shift_degenerate(self):
        # dyadic values keep the pairwise differences *exactly* constant
        values_a = [0.25 * i for i in range(20)]
        values_b = [v + 0.5 for v in values_a]
        result = paired_ttest(values_b, values_a)
        assert math.isinf(result.statistic) and result.statistic > 0
        assert result.pvalue == 0.0
        assert result.degenerate

    def test_almost_constant_shift_is_not_degenerate(self):
        # 0.1 is not exactly representable, so these differences vary in the
        # last ulp: the variance is positive and the regular path applies
        values_a = [0.1 * i for i in range(20)]
        values_b = [v + 0.1 for v in values_a]
        result = paired_ttest(values_b, values_a)
        assert not result.degenerate
        assert math.isfinite(result.statistic)
        assert result.pvalue < 0.01

    def test_antisymmetry(self):
        rng = random.Random(11)
        values_a = [rng.random() for _ in range(15)]
        values_b = [rng.random() for _ in range(15)]
        forward = paired_ttest(values_a, values_b)
        backward = paired_ttest(values_b, values_a)
        assert forward.statistic == pytest.approx(-backward.statistic, abs=1e-12)
        assert forward.pvalue == pytest.approx(backward.pvalue, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            paired_ttest([1.0, 2.0], [1.0])

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPairs):
            paired_ttest([1.0], [0.5])

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 30, 100, 1000, 5000])
    def test_pvalue_bit_identical_to_scipy_stats(self, df):
        # paired_ttest evaluates scipy.special.stdtr directly; its p-values
        # must be exactly the ones scipy.stats.t.sf gives, from |t| near 0
        # to |t| so large that the p-value underflows
        from scipy import stats

        rng = random.Random(df)
        for mean, spread in ((1e-12, 1.0), (0.05, 1.0), (1.0, 1.0), (1.0, 1e-6), (1.0, 1e-12)):
            diffs = [mean + spread * rng.gauss(0.0, 1.0) for _ in range(df + 1)]
            result = paired_ttest(diffs, [0.0] * (df + 1))
            assert not result.degenerate
            expected = 2.0 * float(stats.t.sf(abs(result.statistic), df))
            assert result.pvalue == min(1.0, expected)

    def test_stdtr_is_scipy_stats_t_sf(self):
        import numpy as np
        from scipy import special, stats

        rng = np.random.default_rng(7)
        df = rng.integers(1, 5001, size=3000).astype(np.float64)
        magnitude = 10.0 ** rng.uniform(-12, 4, size=3000)
        expected = stats.t.sf(magnitude, df)
        actual = special.stdtr(df, -magnitude)
        assert np.array_equal(actual, expected)
        assert expected.min() == 0.0 and expected.max() > 0.49  # tails reached

    def test_randomized_samples_match_oracle(self):
        rng = random.Random(90210)
        for _ in range(40):
            n = 20
            values_a = [rng.gauss(0.5, 0.2) for _ in range(n)]
            values_b = [rng.gauss(0.45, 0.2) for _ in range(n)]
            result = paired_ttest(values_a, values_b)
            expected_t, expected_p = reference_paired_t(values_a, values_b)
            assert result.statistic == pytest.approx(expected_t, abs=1e-9)
            assert abs(result.pvalue - expected_p) <= 1e-6
            assert not result.degenerate


class TestRunFiles:
    def test_write_then_load(self, tmp_path):
        rankings = {
            "D1": [("S1", 20.0), ("S2", 2.5)],
            "D2": [("S3", 1.0)],
        }
        path = tmp_path / "myrun.tsv"
        write_run(rankings, path)
        run = load_run(path)
        assert run.label == "myrun"
        assert run.rankings == {"D1": ["S1", "S2"], "D2": ["S3"]}

    def test_explicit_label(self, tmp_path):
        path = tmp_path / "x.tsv"
        write_run({"D1": [("S1", 1.0)]}, path)
        assert load_run(path, label="renamed").label == "renamed"

    def test_noncontiguous_ranks_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("D1\t1\tS1\t5.0\nD1\t3\tS2\t4.0\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_run(path)

    def test_duplicate_symptom_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("D1\t1\tS1\t5.0\nD1\t2\tS1\t4.0\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_run(path)

    def test_non_numeric_score_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("D1\t1\tS1\thigh\n", encoding="utf-8")
        with pytest.raises(MalformedRow):
            load_run(path)


class TestCompareRuns:
    def _reports(self, collection):
        ideal = RankedRun(
            label="ideal",
            rankings={"D1": ["S1", "S2"], "D2": ["S3"], "D3": ["S4", "S1"]},
        )
        weak = RankedRun(
            label="weak",
            rankings={"D1": ["S9"], "D2": ["S9"], "D3": ["S9"]},
        )
        return [evaluate_run(ideal, collection), evaluate_run(weak, collection)]

    def test_significance_marks_in_markdown(self, collection):
        comparison = compare_runs(self._reports(collection), alpha=0.05)
        markdown = comparison.to_markdown()
        assert "| Method |" in markdown
        assert "ideal (a)" in markdown
        assert "weak (b)" in markdown
        # the ideal run beats the weak run everywhere; its cells carry ^{b}
        assert "^{b}" in markdown
        assert "^{a}" not in markdown

    def test_json_report_round_trips(self, collection):
        comparison = compare_runs(self._reports(collection), alpha=0.05)
        import json

        payload = json.loads(report_json(comparison))
        assert payload["methods"] == ["ideal", "weak"]
        assert payload["alpha"] == 0.05
        assert {t["metric"] for t in payload["significance"]} == set(
            metric_keys((5, 10))
        )

    def test_methods_keep_command_line_order(self, collection):
        reports = self._reports(collection)
        comparison = compare_runs(reports, alpha=0.05)
        markdown = comparison.to_markdown()
        assert markdown.index("ideal (a)") < markdown.index("weak (b)")
        flipped = compare_runs(list(reversed(reports)), alpha=0.05)
        remade = flipped.to_markdown()
        assert remade.index("weak (a)") < remade.index("ideal (b)")
