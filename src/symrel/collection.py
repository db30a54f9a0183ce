"""Graded disease-symptom collections: loading, validation, construction.

A collection stores, per disease, the judged symptoms with grade 2
(primary: the kind of leading symptom that drives a differential
diagnosis) or grade 1 (relevant but not primary). Unjudged symptoms carry
implicit grade 0 and are never stored. Collections are built from raw
annotator records by strict majority voting over an odd panel, and
annotator agreement is summarized with Fleiss' kappa over the
primary/not-primary ratings. numpy is imported by the kappa statistic, on
first use, so loading a collection does not load it.
"""

import csv
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import (
    DuplicateAnnotation,
    DuplicateDisease,
    DuplicateSymptomInEntry,
    EvenPanel,
    InvalidGrade,
    MalformedCollection,
    MalformedRow,
    MissingAnnotator,
    PairListMismatch,
    UnequalPanelSizes,
)

logger = logging.getLogger(__name__)

GRADE_RELEVANT = 1
GRADE_PRIMARY = 2
_VALID_GRADES = (GRADE_RELEVANT, GRADE_PRIMARY)


@dataclass
class DiseaseEntry:
    """One disease with its graded judgments (symptom id -> grade)."""

    disease_id: str
    name: str
    judgments: dict[str, int]

    @property
    def primary_count(self) -> int:
        return sum(1 for grade in self.judgments.values() if grade == GRADE_PRIMARY)

    @property
    def relevant_count(self) -> int:
        """Symptoms graded 1 (relevant but not primary)."""
        return sum(1 for grade in self.judgments.values() if grade == GRADE_RELEVANT)


@dataclass
class GradedCollection:
    entries: list[DiseaseEntry]
    metadata: dict[str, str] = field(default_factory=dict)

    def disease_ids(self) -> list[str]:
        return [entry.disease_id for entry in self.entries]

    def total_judgments(self) -> int:
        return sum(len(entry.judgments) for entry in self.entries)

    def total_primaries(self) -> int:
        return sum(entry.primary_count for entry in self.entries)

    def symptom_frequencies(self) -> dict[str, int]:
        """How many diseases judge each symptom (any grade)."""
        frequencies: dict[str, int] = {}
        for entry in self.entries:
            for symptom_id in entry.judgments:
                frequencies[symptom_id] = frequencies.get(symptom_id, 0) + 1
        return frequencies


def load_collection(path) -> GradedCollection:
    """Parse and structurally validate a collection JSON file."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise MalformedCollection(f"{path}: invalid JSON: {exc.msg}") from None
    if not isinstance(document, dict) or "diseases" not in document:
        raise MalformedCollection(f"{path}: expected an object with a 'diseases' list")
    raw_entries = document["diseases"]
    if not isinstance(raw_entries, list) or not raw_entries:
        raise MalformedCollection(f"{path}: 'diseases' must be a non-empty list")
    metadata = document.get("metadata", {})
    if not isinstance(metadata, dict) or any(
        not isinstance(key, str) or not isinstance(value, str)
        for key, value in metadata.items()
    ):
        raise MalformedCollection(f"{path}: metadata must map strings to strings")

    entries: list[DiseaseEntry] = []
    seen_ids: set[str] = set()
    for position, raw in enumerate(raw_entries):
        where = f"{path}: diseases[{position}]"
        if not isinstance(raw, dict):
            raise MalformedCollection(f"{where}: entry must be an object")
        disease_id = raw.get("id")
        name = raw.get("name")
        raw_judgments = raw.get("judgments")
        if not isinstance(disease_id, str) or not disease_id:
            raise MalformedCollection(f"{where}: 'id' must be a non-empty string")
        if not isinstance(name, str):
            raise MalformedCollection(f"{where}: 'name' must be a string")
        if disease_id in seen_ids:
            raise DuplicateDisease(f"{where}: duplicate disease id {disease_id!r}")
        seen_ids.add(disease_id)
        if not isinstance(raw_judgments, list) or not raw_judgments:
            raise MalformedCollection(
                f"{where}: 'judgments' must be a non-empty list"
            )
        judgments: dict[str, int] = {}
        for raw_judgment in raw_judgments:
            if not isinstance(raw_judgment, dict):
                raise MalformedCollection(f"{where}: judgment must be an object")
            symptom_id = raw_judgment.get("symptom_id")
            grade = raw_judgment.get("grade")
            if not isinstance(symptom_id, str) or not symptom_id:
                raise MalformedCollection(
                    f"{where}: 'symptom_id' must be a non-empty string"
                )
            # bool is an int subclass; true/false are not valid grades
            if type(grade) is not int or grade not in _VALID_GRADES:
                raise InvalidGrade(
                    f"{where}: grade {grade!r} for {symptom_id!r} "
                    f"(expected 1 or 2)"
                )
            if symptom_id in judgments:
                raise DuplicateSymptomInEntry(
                    f"{where}: symptom {symptom_id!r} judged twice"
                )
            judgments[symptom_id] = grade
        entries.append(DiseaseEntry(disease_id, name, judgments))
    return GradedCollection(entries=entries, metadata=dict(metadata))


def save_collection(collection: GradedCollection, path) -> None:
    """Write a collection as deterministic JSON; loading it round-trips."""
    document = {
        "diseases": [
            {
                "id": entry.disease_id,
                "name": entry.name,
                "judgments": [
                    {"symptom_id": symptom_id, "grade": grade}
                    for symptom_id, grade in sorted(entry.judgments.items())
                ],
            }
            for entry in collection.entries
        ],
        "metadata": {key: collection.metadata[key] for key in sorted(collection.metadata)},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(document, handle, ensure_ascii=False, indent=2)
        handle.write("\n")


@dataclass
class CountExpectations:
    """Optional expected counts checked by :func:`validate_collection`.

    ``per_disease`` maps disease id -> (grade-1 count, grade-2 count).
    ``per_disease_profile`` is the same information as an unordered list of
    (total judged, primary) pairs, for checking against published tallies
    when concrete ids are unknown. ``top_symptom_frequencies`` lists the
    expected largest judged-in-N-diseases frequencies, descending.
    """

    diseases: int | None = None
    judgments: int | None = None
    primaries: int | None = None
    per_disease: dict[str, tuple[int, int]] | None = None
    per_disease_profile: list[tuple[int, int]] | None = None
    symptom_frequency: dict[str, int] | None = None
    top_symptom_frequencies: list[int] | None = None


@dataclass
class ValidationReport:
    findings: list[str]

    @property
    def ok(self) -> bool:
        return not self.findings

    def __str__(self) -> str:
        if self.ok:
            return "collection valid"
        return "\n".join(self.findings)


def validate_collection(
    collection: GradedCollection, expectations: CountExpectations | None = None
) -> ValidationReport:
    """Check structural invariants and, optionally, expected counts.

    Returns findings instead of raising so a data preparer can see every
    problem at once.
    """
    findings: list[str] = []
    seen_ids: set[str] = set()
    for entry in collection.entries:
        label = f"disease {entry.disease_id!r}"
        if not entry.disease_id:
            findings.append("entry with empty disease id")
        if entry.disease_id in seen_ids:
            findings.append(f"duplicate {label}")
        seen_ids.add(entry.disease_id)
        if not entry.judgments:
            findings.append(f"{label}: no judgments")
        for symptom_id, grade in entry.judgments.items():
            if not symptom_id:
                findings.append(f"{label}: empty symptom id")
            if type(grade) is not int or grade not in _VALID_GRADES:
                findings.append(f"{label}: invalid grade {grade!r} for {symptom_id!r}")

    if expectations is not None:
        expect = expectations
        if expect.diseases is not None and len(collection.entries) != expect.diseases:
            findings.append(
                f"expected {expect.diseases} diseases, found {len(collection.entries)}"
            )
        if expect.judgments is not None and collection.total_judgments() != expect.judgments:
            findings.append(
                f"expected {expect.judgments} judgments, found {collection.total_judgments()}"
            )
        if expect.primaries is not None and collection.total_primaries() != expect.primaries:
            findings.append(
                f"expected {expect.primaries} primaries, found {collection.total_primaries()}"
            )
        if expect.per_disease is not None:
            by_id = {entry.disease_id: entry for entry in collection.entries}
            for disease_id, (relevant, primary) in sorted(expect.per_disease.items()):
                entry = by_id.get(disease_id)
                if entry is None:
                    findings.append(f"expected disease {disease_id!r} is missing")
                    continue
                if entry.relevant_count != relevant:
                    findings.append(
                        f"disease {disease_id!r}: expected {relevant} grade-1 "
                        f"judgments, found {entry.relevant_count}"
                    )
                if entry.primary_count != primary:
                    findings.append(
                        f"disease {disease_id!r}: expected {primary} primaries, "
                        f"found {entry.primary_count}"
                    )
        if expect.per_disease_profile is not None:
            expected = sorted(tuple(pair) for pair in expect.per_disease_profile)
            actual = sorted(
                (len(entry.judgments), entry.primary_count)
                for entry in collection.entries
            )
            if expected != actual:
                findings.append(
                    f"per-disease (judged, primary) profile mismatch: "
                    f"expected {expected}, found {actual}"
                )
        if expect.symptom_frequency is not None:
            frequencies = collection.symptom_frequencies()
            for symptom_id, count in sorted(expect.symptom_frequency.items()):
                actual_count = frequencies.get(symptom_id, 0)
                if actual_count != count:
                    findings.append(
                        f"symptom {symptom_id!r}: expected to be judged for "
                        f"{count} diseases, found {actual_count}"
                    )
        if expect.top_symptom_frequencies is not None:
            expected_top = list(expect.top_symptom_frequencies)
            ranked = sorted(collection.symptom_frequencies().values(), reverse=True)
            actual_top = ranked[: len(expected_top)]
            if actual_top != expected_top:
                findings.append(
                    f"top symptom frequencies mismatch: expected {expected_top}, "
                    f"found {actual_top}"
                )
    return ValidationReport(findings=findings)


def load_expectations(path) -> CountExpectations:
    """Read a CountExpectations JSON file (all keys optional)."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise MalformedCollection(f"{path}: invalid JSON: {exc.msg}") from None
    if not isinstance(document, dict):
        raise MalformedCollection(f"{path}: expected a JSON object")
    expectations = CountExpectations()
    for key in ("diseases", "judgments", "primaries"):
        if key in document:
            value = document[key]
            if type(value) is not int or value < 0:
                raise MalformedCollection(f"{path}: {key!r} must be a non-negative integer")
            setattr(expectations, key, value)
    if "per_disease" in document:
        raw = document["per_disease"]
        if not isinstance(raw, dict):
            raise MalformedCollection(f"{path}: 'per_disease' must be an object")
        per_disease = {}
        for disease_id, counts in raw.items():
            if (
                not isinstance(counts, dict)
                or type(counts.get("relevant")) is not int
                or type(counts.get("primary")) is not int
            ):
                raise MalformedCollection(
                    f"{path}: per_disease[{disease_id!r}] needs integer "
                    f"'relevant' and 'primary'"
                )
            per_disease[disease_id] = (counts["relevant"], counts["primary"])
        expectations.per_disease = per_disease
    if "per_disease_profile" in document:
        raw = document["per_disease_profile"]
        if not isinstance(raw, list) or any(
            not isinstance(pair, list) or len(pair) != 2
            or any(type(v) is not int for v in pair)
            for pair in raw
        ):
            raise MalformedCollection(
                f"{path}: 'per_disease_profile' must be a list of [judged, primary] pairs"
            )
        expectations.per_disease_profile = [tuple(pair) for pair in raw]
    if "symptom_frequency" in document:
        raw = document["symptom_frequency"]
        if not isinstance(raw, dict) or any(type(v) is not int for v in raw.values()):
            raise MalformedCollection(
                f"{path}: 'symptom_frequency' must map symptom ids to integers"
            )
        expectations.symptom_frequency = dict(raw)
    if "top_symptom_frequencies" in document:
        raw = document["top_symptom_frequencies"]
        if not isinstance(raw, list) or any(type(v) is not int for v in raw):
            raise MalformedCollection(
                f"{path}: 'top_symptom_frequencies' must be a list of integers"
            )
        expectations.top_symptom_frequencies = list(raw)
    return expectations


@dataclass(frozen=True)
class AnnotationRecord:
    disease_id: str
    symptom_id: str
    annotator_id: str
    is_primary: bool


_TRUE_VALUES = {"true", "1"}
_FALSE_VALUES = {"false", "0"}


def read_annotations(path) -> list[AnnotationRecord]:
    """Read annotator records from CSV (disease_id, symptom_id, annotator_id,
    is_primary)."""
    path = Path(path)
    records: list[AnnotationRecord] = []
    seen: set[tuple[str, str, str]] = set()
    required = ["disease_id", "symptom_id", "annotator_id", "is_primary"]
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
            raise MalformedRow(path, 1, f"header must contain columns {required}")
        for row in reader:
            lineno = reader.line_num
            values = {name: (row[name] or "").strip() for name in required}
            for name in ("disease_id", "symptom_id", "annotator_id"):
                if not values[name]:
                    raise MalformedRow(path, lineno, f"empty {name}")
            flag_raw = values["is_primary"].lower()
            if flag_raw in _TRUE_VALUES:
                is_primary = True
            elif flag_raw in _FALSE_VALUES:
                is_primary = False
            else:
                raise MalformedRow(
                    path, lineno, f"is_primary must be true/false, got {values['is_primary']!r}"
                )
            key = (values["disease_id"], values["symptom_id"], values["annotator_id"])
            if key in seen:
                raise DuplicateAnnotation(
                    f"{path}:{lineno}: annotator {key[2]!r} rated pair "
                    f"({key[0]!r}, {key[1]!r}) twice"
                )
            seen.add(key)
            records.append(
                AnnotationRecord(
                    values["disease_id"],
                    values["symptom_id"],
                    values["annotator_id"],
                    is_primary,
                )
            )
    if not records:
        raise MalformedRow(path, 0, "no annotation rows")
    return records


def read_pair_list(path) -> list[tuple[str, str]]:
    """Read the agreed (disease_id, symptom_id) pair list from CSV."""
    path = Path(path)
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        required = ["disease_id", "symptom_id"]
        if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
            raise MalformedRow(path, 1, f"header must contain columns {required}")
        for row in reader:
            lineno = reader.line_num
            disease_id = (row["disease_id"] or "").strip()
            symptom_id = (row["symptom_id"] or "").strip()
            if not disease_id or not symptom_id:
                raise MalformedRow(path, lineno, "empty disease_id or symptom_id")
            pair = (disease_id, symptom_id)
            if pair in seen:
                raise MalformedRow(path, lineno, f"duplicate pair {pair!r}")
            seen.add(pair)
            pairs.append(pair)
    if not pairs:
        raise MalformedRow(path, 0, "no pairs")
    return pairs


def majority_vote(records: Iterable[AnnotationRecord]) -> dict[str, int]:
    """Grade one disease's symptoms: 2 where a strict majority said primary.

    Every symptom must be rated by the same odd panel of at least three
    annotators, so a strict majority always exists. Relevance itself
    (grade >= 1) is decided upstream when the pair list is drawn up; every
    annotated symptom therefore appears in the output.
    """
    items = list(records)
    if not items:
        raise ValueError("no annotation records")
    diseases = {record.disease_id for record in items}
    if len(diseases) > 1:
        raise ValueError(f"records span multiple diseases: {sorted(diseases)}")
    votes_by_symptom: dict[str, dict[str, bool]] = {}
    for record in items:
        votes = votes_by_symptom.setdefault(record.symptom_id, {})
        if record.annotator_id in votes:
            raise DuplicateAnnotation(
                f"annotator {record.annotator_id!r} rated "
                f"({record.disease_id!r}, {record.symptom_id!r}) twice"
            )
        votes[record.annotator_id] = record.is_primary
    panel: set[str] = set()
    for votes in votes_by_symptom.values():
        panel.update(votes)
    if len(panel) < 3:
        raise MissingAnnotator(
            f"panel has {len(panel)} annotator(s); a strict majority needs at least 3"
        )
    if len(panel) % 2 == 0:
        raise EvenPanel(f"panel of {len(panel)} annotators cannot break ties")
    for symptom_id, votes in sorted(votes_by_symptom.items()):
        if set(votes) != panel:
            missing = sorted(panel - set(votes))
            raise MissingAnnotator(
                f"symptom {symptom_id!r} lacks votes from annotator(s) {missing}"
            )
    panel_size = len(panel)
    return {
        symptom_id: (
            GRADE_PRIMARY if 2 * sum(votes.values()) > panel_size else GRADE_RELEVANT
        )
        for symptom_id, votes in votes_by_symptom.items()
    }


def fleiss_kappa_statistic(table) -> float:
    """Fleiss' kappa over an items x categories count matrix.

    kappa = (P_bar - Pe_bar) / (1 - Pe_bar): mean observed pairwise
    agreement against the agreement expected from the marginal category
    distribution. Unanimous tables yield exactly 1.0, including the
    degenerate case where every rating lands in a single category and the
    chance term reaches 1.
    """
    import numpy as np

    counts = np.asarray(table, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] < 1 or counts.shape[1] < 2:
        raise ValueError("table must be items x categories with >= 2 categories")
    row_totals = counts.sum(axis=1)
    n = row_totals[0]
    if n < 2:
        raise UnequalPanelSizes("every item needs ratings from at least 2 annotators")
    if not np.all(row_totals == n):
        raise UnequalPanelSizes("every item must be rated by the same number of annotators")
    per_item = (np.sum(counts * counts, axis=1) - n) / (n * (n - 1))
    p_bar = float(per_item.mean())
    shares = counts.sum(axis=0) / counts.sum()
    pe_bar = float(np.dot(shares, shares))
    if pe_bar == 1.0:
        return 1.0
    return (p_bar - pe_bar) / (1.0 - pe_bar)


@dataclass
class AgreementReport:
    """Fleiss' kappa overall and per disease, plus annotator primary rates.

    ``per_disease_kappa`` omits diseases with fewer than two judged
    symptoms, where kappa is undefined. ``per_annotator_primary_rate`` is
    the mean number of primary marks per annotated disease.
    """

    overall_kappa: float
    per_disease_kappa: dict[str, float]
    per_annotator_primary_rate: dict[str, float]


def fleiss_kappa(records: Iterable[AnnotationRecord]) -> AgreementReport:
    """Agreement over primary/not-primary ratings of disease-symptom items."""
    items = list(records)
    if not items:
        raise ValueError("no annotation records")
    counts_by_item: dict[tuple[str, str], list[int]] = {}
    seen: set[tuple[str, str, str]] = set()
    for record in items:
        key = (record.disease_id, record.symptom_id, record.annotator_id)
        if key in seen:
            raise DuplicateAnnotation(
                f"annotator {record.annotator_id!r} rated "
                f"({record.disease_id!r}, {record.symptom_id!r}) twice"
            )
        seen.add(key)
        row = counts_by_item.setdefault((record.disease_id, record.symptom_id), [0, 0])
        row[0 if record.is_primary else 1] += 1

    ordered_items = sorted(counts_by_item)
    table = [counts_by_item[item] for item in ordered_items]
    overall = fleiss_kappa_statistic(table)

    per_disease: dict[str, float] = {}
    diseases = sorted({disease_id for disease_id, _ in ordered_items})
    for disease_id in diseases:
        rows = [
            counts_by_item[item] for item in ordered_items if item[0] == disease_id
        ]
        if len(rows) < 2:
            continue  # kappa undefined for a single item; reported as absent
        per_disease[disease_id] = fleiss_kappa_statistic(rows)

    primaries: dict[str, int] = {}
    diseases_annotated: dict[str, set[str]] = {}
    for record in items:
        primaries.setdefault(record.annotator_id, 0)
        if record.is_primary:
            primaries[record.annotator_id] += 1
        diseases_annotated.setdefault(record.annotator_id, set()).add(record.disease_id)
    rates = {
        annotator_id: primaries[annotator_id] / len(diseases_annotated[annotator_id])
        for annotator_id in sorted(primaries)
    }
    return AgreementReport(
        overall_kappa=overall,
        per_disease_kappa=per_disease,
        per_annotator_primary_rate=rates,
    )
