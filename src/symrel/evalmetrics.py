"""Ranking metrics over graded judgments, plus paired significance testing.

Metrics follow the classic graded-relevance definitions: DCG with linear
gain (the grade itself) discounted by log2(rank + 1) and normalized by the
ideal ordering's DCG; precision against a fixed denominator k, so a short
ranking is not rewarded for retrieving little; recall against the judged
set, counting both grades as relevant. Unjudged symptoms carry grade 0.
The two debatable knobs -- gain shape and the precision denominator -- are
explicit keyword options so numbers can be compared under either
convention; the defaults above are what every bundled report uses.

Method comparisons use a two-sided paired t-test over per-disease metric
values, defaulting to alpha = 0.01. The p-value is twice the Student t
survival function, ``scipy.special.stdtr(n - 1, -|t|)`` (what
``scipy.stats.t.sf`` evaluates); scipy is imported by the first t-test,
so loading this module does not load it.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .collection import GradedCollection
from .errors import LengthMismatch, MalformedRow, NoJudgments, TooFewPairs

GAIN_LINEAR = "linear"
GAIN_EXPONENTIAL = "exponential"
DENOMINATOR_FIXED = "fixed"
DENOMINATOR_RETRIEVED = "retrieved"

DEFAULT_CUTOFFS = (5, 10)
DEFAULT_ALPHA = 0.01


def _gain(grade: int, variant: str) -> float:
    if variant == GAIN_LINEAR:
        return float(grade)
    if variant == GAIN_EXPONENTIAL:
        return float(2**grade - 1)
    raise ValueError(f"unknown gain variant {variant!r}")


def precision_at_k(
    ranking: Sequence[str],
    judgments: Mapping[str, int],
    k: int,
    denominator: str = DENOMINATOR_FIXED,
) -> float:
    """Fraction of the top-k slots filled with judged symptoms.

    With the default fixed denominator, a ranking shorter than k is
    penalized for the slots it leaves empty.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if denominator not in (DENOMINATOR_FIXED, DENOMINATOR_RETRIEVED):
        raise ValueError(f"unknown denominator variant {denominator!r}")
    hits = sum(1 for symptom_id in ranking[:k] if symptom_id in judgments)
    if denominator == DENOMINATOR_RETRIEVED:
        retrieved = min(k, len(ranking))
        return hits / retrieved if retrieved else 0.0
    return hits / k


def recall_at_k(ranking: Sequence[str], judgments: Mapping[str, int], k: int) -> float:
    """Fraction of the judged symptoms (either grade) found in the top k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not judgments:
        raise NoJudgments("recall is undefined without judged symptoms")
    hits = sum(1 for symptom_id in ranking[:k] if symptom_id in judgments)
    return hits / len(judgments)


def ndcg_at_k(
    ranking: Sequence[str],
    judgments: Mapping[str, int],
    k: int,
    gain: str = GAIN_LINEAR,
) -> float:
    """DCG of the ranking divided by the DCG of the ideal grade ordering.

    The ideal list is the judgment grades sorted descending, padded with
    zeros past the judged set; the normalizer is therefore positive
    whenever judgments exist.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not judgments:
        raise NoJudgments("nDCG is undefined without judged symptoms")
    dcg = 0.0
    for position, symptom_id in enumerate(ranking[:k], start=1):
        dcg += _gain(judgments.get(symptom_id, 0), gain) / math.log2(position + 1)
    ideal_grades = sorted(judgments.values(), reverse=True)[:k]
    idcg = 0.0
    for position, grade in enumerate(ideal_grades, start=1):
        idcg += _gain(grade, gain) / math.log2(position + 1)
    return dcg / idcg


@dataclass
class RankedRun:
    """Per-disease ordered symptom rankings under one method label."""

    label: str
    rankings: dict[str, list[str]]

    def __post_init__(self):
        for disease_id, ranking in self.rankings.items():
            if len(set(ranking)) != len(ranking):
                raise ValueError(
                    f"run {self.label!r}: duplicate symptom in ranking for {disease_id!r}"
                )


def metric_keys(cutoffs: Sequence[int]) -> list[str]:
    """Report column order: nDCG, P, R per cutoff."""
    keys = []
    for k in cutoffs:
        keys.extend([f"ndcg@{k}", f"p@{k}", f"r@{k}"])
    return keys


@dataclass
class MetricReport:
    label: str
    cutoffs: list[int]
    per_disease: dict[str, dict[str, float]]
    macro: dict[str, float]


def evaluate_run(
    run: RankedRun,
    collection: GradedCollection,
    cutoffs: Sequence[int] = DEFAULT_CUTOFFS,
    *,
    ndcg_gain: str = GAIN_LINEAR,
    precision_denominator: str = DENOMINATOR_FIXED,
) -> MetricReport:
    """Score a run against every disease of the collection.

    Diseases the run does not rank are scored as empty rankings (all
    metrics 0), never skipped, so macro averages stay comparable across
    methods.
    """
    cutoffs = list(cutoffs)
    if not cutoffs or any(k < 1 for k in cutoffs):
        raise ValueError("cutoffs must be positive")
    collection_ids = set(collection.disease_ids())
    extra = set(run.rankings) - collection_ids
    if extra:
        raise ValueError(
            f"run {run.label!r} ranks diseases outside the collection: {sorted(extra)}"
        )
    per_disease: dict[str, dict[str, float]] = {}
    for entry in collection.entries:
        ranking = run.rankings.get(entry.disease_id, [])
        values: dict[str, float] = {}
        for k in cutoffs:
            values[f"ndcg@{k}"] = ndcg_at_k(ranking, entry.judgments, k, gain=ndcg_gain)
            values[f"p@{k}"] = precision_at_k(
                ranking, entry.judgments, k, denominator=precision_denominator
            )
            values[f"r@{k}"] = recall_at_k(ranking, entry.judgments, k)
        per_disease[entry.disease_id] = values
    macro = {
        key: sum(values[key] for values in per_disease.values()) / len(per_disease)
        for key in metric_keys(cutoffs)
    }
    return MetricReport(
        label=run.label, cutoffs=cutoffs, per_disease=per_disease, macro=macro
    )


class TTestResult(NamedTuple):
    statistic: float
    pvalue: float
    degenerate: bool = False


def paired_ttest(values_a: Sequence[float], values_b: Sequence[float]) -> TTestResult:
    """Two-sided paired t-test on aligned per-disease values (n - 1 df).

    Zero-variance differences admit no t statistic; they are reported as
    the limiting cases -- t=0, p=1 when every difference is zero, else
    |t|=inf, p=0 -- with the ``degenerate`` flag set.
    """
    if len(values_a) != len(values_b):
        raise LengthMismatch(
            f"paired samples differ in length: {len(values_a)} vs {len(values_b)}"
        )
    n = len(values_a)
    if n < 2:
        raise TooFewPairs("a paired t-test needs at least 2 pairs")
    diffs = [a - b for a, b in zip(values_a, values_b)]
    mean = sum(diffs) / n
    variance = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    if variance == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 1.0, True)
        return TTestResult(math.copysign(math.inf, mean), 0.0, True)
    statistic = mean / math.sqrt(variance / n)
    # stdtr(df, -|t|) is what scipy.stats.t.sf evaluates, bit for bit,
    # without the cost of importing scipy.stats
    from scipy.special import stdtr

    pvalue = 2.0 * float(stdtr(n - 1, -abs(statistic)))
    return TTestResult(statistic, min(1.0, pvalue), False)


def load_run(path, label: str | None = None) -> RankedRun:
    """Read a run TSV (disease_id, rank, symptom_id, score).

    Ranks must be consecutive from 1 within each disease; scores must be
    finite but are otherwise ignored by the metrics.
    """
    path = Path(path)
    rows: dict[str, list[tuple[int, str, int]]] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw_line in enumerate(handle, 1):
            line = raw_line.rstrip("\r\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise MalformedRow(
                    path, lineno, f"expected 4 tab-separated fields, got {len(fields)}"
                )
            disease_id, rank_field, symptom_id, score_field = fields
            if not disease_id or not symptom_id:
                raise MalformedRow(path, lineno, "empty disease or symptom id")
            try:
                rank = int(rank_field)
            except ValueError:
                raise MalformedRow(path, lineno, f"bad rank {rank_field!r}") from None
            if rank < 1:
                raise MalformedRow(path, lineno, "ranks start at 1")
            try:
                score = float(score_field)
            except ValueError:
                raise MalformedRow(path, lineno, f"bad score {score_field!r}") from None
            if not math.isfinite(score):
                raise MalformedRow(path, lineno, "score must be finite")
            rows.setdefault(disease_id, []).append((rank, symptom_id, lineno))
    rankings: dict[str, list[str]] = {}
    for disease_id, entries in rows.items():
        entries.sort()
        symptoms = []
        for position, (rank, symptom_id, lineno) in enumerate(entries, start=1):
            if rank != position:
                raise MalformedRow(
                    path, lineno,
                    f"ranks for {disease_id!r} must be consecutive from 1",
                )
            if symptom_id in symptoms:
                raise MalformedRow(
                    path, lineno, f"duplicate symptom {symptom_id!r} for {disease_id!r}"
                )
            symptoms.append(symptom_id)
        rankings[disease_id] = symptoms
    return RankedRun(label=label if label is not None else path.stem, rankings=rankings)


def write_run(rankings: Mapping[str, Sequence[tuple[str, float]]], path) -> None:
    """Write ranked (symptom, score) lists as a deterministic run TSV."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for disease_id in sorted(rankings):
            for position, (symptom_id, score) in enumerate(rankings[disease_id], start=1):
                handle.write(f"{disease_id}\t{position}\t{symptom_id}\t{score!r}\n")


@dataclass
class PairwiseTest:
    """One paired t-test between two methods on one metric."""

    label_a: str
    label_b: str
    metric: str
    statistic: float
    pvalue: float
    degenerate: bool
    better: str | None  # label of the significantly better method, if any


@dataclass
class ComparisonReport:
    """Evaluation of one or more runs with pairwise significance tests."""

    alpha: float
    cutoffs: list[int]
    options: dict[str, str]
    inputs: dict[str, object]
    reports: list[MetricReport]
    tests: list[PairwiseTest] = field(default_factory=list)

    def _letters(self) -> dict[str, str]:
        return {
            report.label: chr(ord("a") + position)
            for position, report in enumerate(self.reports)
        }

    def marks(self) -> dict[str, dict[str, str]]:
        """Per method and metric: letters of the methods it significantly beats."""
        letters = self._letters()
        result: dict[str, dict[str, str]] = {
            report.label: {key: "" for key in metric_keys(self.cutoffs)}
            for report in self.reports
        }
        for test in self.tests:
            if test.better is None:
                continue
            loser = test.label_b if test.better == test.label_a else test.label_a
            result[test.better][test.metric] += letters[loser]
        # letters were assigned in method order, so sorting them sorts by method
        for per_metric in result.values():
            for key, value in per_metric.items():
                per_metric[key] = "".join(sorted(value))
        return result

    def to_markdown(self) -> str:
        letters = self._letters()
        keys = metric_keys(self.cutoffs)
        headers = {f"ndcg@{k}": f"nDCG@{k}" for k in self.cutoffs}
        headers.update({f"p@{k}": f"P@{k}" for k in self.cutoffs})
        headers.update({f"r@{k}": f"R@{k}" for k in self.cutoffs})
        marks = self.marks()
        lines = [
            "| Method | " + " | ".join(headers[key] for key in keys) + " |",
            "| --- |" + " --- |" * len(keys),
        ]
        for report in self.reports:
            cells = []
            for key in keys:
                value = f"{report.macro[key]:.4f}"
                mark = marks[report.label][key]
                cells.append(f"{value}^{{{mark}}}" if mark else value)
            lines.append(
                f"| {report.label} ({letters[report.label]}) | " + " | ".join(cells) + " |"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "cutoffs": self.cutoffs,
            "options": self.options,
            "inputs": self.inputs,
            "methods": [report.label for report in self.reports],
            "macro": {report.label: report.macro for report in self.reports},
            "per_disease": {report.label: report.per_disease for report in self.reports},
            "significance": [
                {
                    "a": test.label_a,
                    "b": test.label_b,
                    "metric": test.metric,
                    "t": test.statistic,
                    "p": test.pvalue,
                    "degenerate": test.degenerate,
                    "better": test.better,
                }
                for test in self.tests
            ],
        }


def compare_runs(
    reports: Sequence[MetricReport],
    alpha: float = DEFAULT_ALPHA,
    options: dict[str, str] | None = None,
    inputs: dict[str, object] | None = None,
) -> ComparisonReport:
    """Pairwise paired t-tests between methods on every metric.

    A method counts as significantly better on a metric when p < alpha and
    its macro mean is strictly higher.
    """
    if not reports:
        raise ValueError("no reports to compare")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    first = reports[0]
    disease_order = list(first.per_disease)
    for report in reports[1:]:
        if list(report.per_disease) != disease_order or report.cutoffs != first.cutoffs:
            raise ValueError("reports must be evaluated on the same collection and cutoffs")
    tests: list[PairwiseTest] = []
    for i, report_a in enumerate(reports):
        for report_b in reports[i + 1 :]:
            for key in metric_keys(first.cutoffs):
                values_a = [report_a.per_disease[d][key] for d in disease_order]
                values_b = [report_b.per_disease[d][key] for d in disease_order]
                outcome = paired_ttest(values_a, values_b)
                better = None
                if outcome.pvalue < alpha:
                    if report_a.macro[key] > report_b.macro[key]:
                        better = report_a.label
                    elif report_b.macro[key] > report_a.macro[key]:
                        better = report_b.label
                tests.append(
                    PairwiseTest(
                        label_a=report_a.label,
                        label_b=report_b.label,
                        metric=key,
                        statistic=outcome.statistic,
                        pvalue=outcome.pvalue,
                        degenerate=outcome.degenerate,
                        better=better,
                    )
                )
    return ComparisonReport(
        alpha=alpha,
        cutoffs=list(first.cutoffs),
        options=dict(options or {}),
        inputs=dict(inputs or {}),
        reports=list(reports),
        tests=tests,
    )


def report_json(comparison: ComparisonReport) -> str:
    """Serialize a comparison deterministically (sorted keys, 2-space indent)."""
    return json.dumps(comparison.to_json_dict(), indent=2, sort_keys=True) + "\n"
