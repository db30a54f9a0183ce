"""Expected outputs, derived from the planted truth, and the output checks.

Pair counts come from the planted section sets; scores, metrics,
t-tests and Fleiss' kappa come from the brute-force references in
``tests/oracles.py``. Nothing here reads an earlier output of the
program. Each ``check_*`` function returns a list of mismatch messages,
empty when the output is correct.
"""

import json
import math
from pathlib import Path

import numpy as np

import oracles  # tests/oracles.py, put on sys.path by run.py

from workloads import Truth

CUTOFFS = (5, 10)
K = 10
RUN_LABELS = ("vectors", "scores", "baseline")


def _rank(scores: dict[str, float]) -> list[tuple[str, float]]:
    ranked = sorted(((s, v) for s, v in scores.items() if v != 0.0), key=lambda p: (-p[1], p[0]))
    return ranked[:K]


class Expected:
    """Every output a correct program writes for one workload's inputs."""

    def __init__(self, truth: Truth):
        self.truth = truth
        diseases, symptoms = set(truth.disease_ids), set(truth.symptom_ids)
        self.articles = len(truth.sections)
        self.relevant = sum(1 for t, k, _ in truth.sections.values() if (t | k) & diseases)
        self.counts = {}
        for regime in ("kwd", "fulltext"):
            counts: dict[tuple[str, str], int] = {}
            for title, keywords, body in truth.sections.values():
                if regime == "kwd":
                    found_d, found_s = keywords & diseases, keywords & symptoms
                else:
                    found_d, found_s = (keywords | title) & diseases, body & symptoms
                for d in found_d:
                    for s in found_s:
                        counts[(d, s)] = counts.get((d, s), 0) + 1
            self.counts[regime] = counts
        self.scores = {}
        for regime, counts in self.counts.items():
            spread: dict[str, int] = {}
            for _, s in counts:
                spread[s] = spread.get(s, 0) + 1
            self.scores[regime] = {
                pair: oracles.brute_force_score(counts, spread, len(diseases), *pair)
                for pair in counts
            }

        # rank --scores reads the generated external scores file
        self.scores_run = {
            d: r for d, r in ((d, _rank(v)) for d, v in truth.external_scores.items()) if r
        }

        # rank --vectors: float64 cosines; the program accumulates in longdouble
        rows = truth.vector_rows
        ranked_symptoms = sorted(s for s in truth.symptom_ids if s in rows)
        self.vector_diseases = sorted(d for d in truth.disease_ids if d in rows)
        self.vectors_kept = len(rows)
        matrix = np.array([rows[s] for s in ranked_symptoms], dtype=np.float64)
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        self.cosines = {}
        for d in self.vector_diseases:
            vector = np.array(rows[d], dtype=np.float64)
            values = matrix @ (vector / np.linalg.norm(vector))
            self.cosines[d] = dict(zip(ranked_symptoms, values.tolist()))
        self.cosine_count = len(self.vector_diseases) * len(ranked_symptoms)
        self.vectors_run = {
            d: sorted(c.items(), key=lambda p: (-p[1], p[0]))[:K] for d, c in self.cosines.items()
        }

        runs = {
            "vectors": {d: [s for s, _ in r] for d, r in self.vectors_run.items()},
            "scores": {d: [s for s, _ in r] for d, r in self.scores_run.items()},
            "baseline": truth.baseline,
        }
        self.macro = {}
        per_disease = {}
        for label, rankings in runs.items():
            values = {}
            for d in truth.collection:
                ranking, judged = rankings.get(d, []), truth.judgments[d]
                row = {}
                for k in CUTOFFS:
                    row[f"ndcg@{k}"] = oracles.reference_ndcg(ranking, judged, k)
                    row[f"p@{k}"] = oracles.reference_precision(ranking, judged, k)
                    row[f"r@{k}"] = oracles.reference_recall(ranking, judged, k)
                values[d] = row
            per_disease[label] = values
            keys = next(iter(values.values())).keys()
            self.macro[label] = {key: sum(v[key] for v in values.values()) / len(values) for key in keys}
        self.ttests = {}
        for i, a in enumerate(RUN_LABELS):
            for b in RUN_LABELS[i + 1:]:
                for key in self.macro[a]:
                    xs = [per_disease[a][d][key] for d in truth.collection]
                    ys = [per_disease[b][d][key] for d in truth.collection]
                    diffs = [x - y for x, y in zip(xs, ys)]
                    if max(diffs) == min(diffs):
                        self.ttests[(a, b, key)] = None  # zero variance: degenerate
                    else:
                        self.ttests[(a, b, key)] = oracles.reference_paired_t(xs, ys)

        # vote and kappa
        items: dict[tuple[str, str], list[int]] = {}
        for d, s, _, primary in truth.annotations:
            items.setdefault((d, s), [0, 0])[0 if primary else 1] += 1
        self.kappa = oracles.reference_fleiss(list(items.values())) if items else None
        self.kappa_per_disease = {}
        for d in truth.collection:
            rows_d = [row for (dd, _), row in items.items() if dd == d]
            if len(rows_d) >= 2:
                self.kappa_per_disease[d] = oracles.reference_fleiss(rows_d)


def _read_tsv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as handle:
        return [line.rstrip("\n").split("\t") for line in handle if not line.startswith("#")]


def check_tags(expected: Expected, path: Path) -> list[str]:
    problems = []
    seen = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            want = expected.truth.sections.get(record["id"])
            got = (set(record["title"]), set(record["keywords"]), set(record["body"]))
            if want is None or tuple(map(set, want)) != got:
                problems.append(f"tags for {record['id']} differ from the planted concepts")
            seen.append(record["id"])
    if seen != list(expected.truth.sections):
        problems.append(f"tags cover {len(seen)} articles, expected the corpus's "
                        f"{expected.articles} valid articles in order")
    return problems[:5]


def check_mined(expected: Expected, out_dir: Path, regime: str) -> list[str]:
    problems = []
    index_path, scores_path = out_dir / f"index_{regime}.tsv", out_dir / f"scores_{regime}.tsv"
    with open(index_path, encoding="utf-8") as handle:
        header = [handle.readline().strip(), handle.readline().strip()]
    want_header = [f"#|X|={len(expected.truth.disease_ids)}",
                   f"#regime={'keyword' if regime == 'kwd' else 'fulltext'}"]
    if header != want_header:
        problems.append(f"index header {header} != {want_header}")
    counts = {(d, s): int(c) for d, s, c in _read_tsv(index_path)}
    if counts != expected.counts[regime]:
        problems.append(f"{regime} pair counts differ from the planted truth "
                        f"({len(counts)} vs {len(expected.counts[regime])} pairs)")
    scores = {(d, s): float(v) for d, s, v in _read_tsv(scores_path)}
    if scores != expected.scores[regime]:
        problems.append(f"{regime} scores differ from the oracle scores")
    return problems


def _read_run(path: Path) -> dict[str, list[tuple[str, float]]]:
    run: dict[str, list[tuple[str, float]]] = {}
    for d, rank, s, value in _read_tsv(path):
        run.setdefault(d, []).append((s, float(value)))
        if int(rank) != len(run[d]):
            raise ValueError(f"{path}: ranks of {d} are not consecutive")
    return run


def check_scores_run(expected: Expected, path: Path) -> list[str]:
    if _read_run(path) != expected.scores_run:
        return ["rank --scores output differs from the reference ranking"]
    return []


def check_vectors_run(expected: Expected, path: Path, tolerance: float = 1e-9) -> list[str]:
    got = _read_run(path)
    if sorted(got) != expected.vector_diseases:
        return [f"rank --vectors ranked {len(got)} diseases, expected {len(expected.vector_diseases)}"]
    for d, ranking in got.items():
        want = expected.vectors_run[d]
        cosines = expected.cosines[d]
        if len(ranking) != len(want):
            return [f"rank --vectors: {d} has {len(ranking)} entries, expected {len(want)}"]
        for (s, value), (ws, wvalue) in zip(ranking, want):
            # a different symptom is allowed only where the reference cosines tie
            if s not in cosines or abs(cosines[s] - value) > tolerance or abs(wvalue - value) > tolerance:
                return [f"rank --vectors: {d} ranks {s}={value!r}, reference {ws}={wvalue!r}"]
    return []


def check_eval(expected: Expected, out_dir: Path) -> list[str]:
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    problems = []
    if report["methods"] != list(RUN_LABELS):
        return [f"eval methods {report['methods']} != {list(RUN_LABELS)}"]
    for label in RUN_LABELS:
        for key, want in expected.macro[label].items():
            got = report["macro"][label][key]
            if abs(got - want) > 1e-12:
                problems.append(f"eval macro {label} {key}: {got!r} != reference {want!r}")
    if len(report["significance"]) != len(expected.ttests):
        problems.append(f"eval ran {len(report['significance'])} t-tests, expected {len(expected.ttests)}")
    for test in report["significance"]:
        want = expected.ttests.get((test["a"], test["b"], test["metric"]), "missing")
        if want == "missing":
            problems.append(f"unexpected t-test {test['a']} vs {test['b']} on {test['metric']}")
        elif want is None:
            if not test["degenerate"]:
                problems.append(f"t-test {test['a']}/{test['b']} {test['metric']} should be degenerate")
        else:
            t, p = want
            if test["degenerate"] or not math.isclose(test["t"], t, rel_tol=1e-9, abs_tol=1e-12) \
                    or abs(test["p"] - p) > 1e-7:
                problems.append(f"t-test {test['a']}/{test['b']} {test['metric']}: "
                                f"t={test['t']!r} p={test['p']!r}, reference t={t!r} p={p!r}")
    return problems[:5]


def check_vote(expected: Expected, path: Path) -> list[str]:
    document = json.loads(path.read_text(encoding="utf-8"))
    got = {e["id"]: {j["symptom_id"]: j["grade"] for j in e["judgments"]} for e in document["diseases"]}
    names = {e["id"]: e["name"] for e in document["diseases"]}
    want_names = {d: expected.truth.names[d] for d in expected.truth.judgments}
    if got != expected.truth.judgments or names != want_names:
        return ["vote output differs from the planted collection"]
    return []


def check_kappa(expected: Expected, path: Path) -> list[str]:
    report = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    if not math.isclose(report["overall_kappa"], expected.kappa, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"kappa {report['overall_kappa']!r} != reference {expected.kappa!r}")
    got = report["per_disease_kappa"]
    if set(got) != set(expected.kappa_per_disease) or any(
        not math.isclose(got[d], v, rel_tol=1e-9, abs_tol=1e-12)
        for d, v in expected.kappa_per_disease.items()
    ):
        problems.append("per-disease kappa differs from the reference")
    return problems
