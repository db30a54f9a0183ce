"""Seeded synthetic inputs for the benchmark workloads, with planted truth.

Every file the program reads is generated here from ``--seed``. The
generator knows, for each article section, exactly which concepts it
planted, so the expected tags, pair counts and rankings follow from the
planted truth alone and never from the program's own output.

Surface forms are built so that tagging is unambiguous: concept synonyms
are made of unique pseudo-words that no filler word equals, and two
mentions are always separated by at least one filler word. A nested
synonym ("modifier + another concept's synonym") is planted whole, so
leftmost-longest resolution keeps only its owner.
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]

FILLER = tuple(
    (
        "the patient patients presented with chronic acute notes study cohort "
        "clinical reported cases case treatment outcome outcomes analysis among "
        "adults children were was observed in of and a an for after before during "
        "follow up hospital admission history physical examination laboratory "
        "findings revealed normal elevated mild severe onset weeks months years "
        "therapy response group control trial randomized review literature data "
        "results suggest that this these may be associated risk factors over "
        "under within without significant difference between both each protéine "
        "über naïve"
    ).split()
)
_NON_VOCAB_KEYWORDS = (
    "Humans", "Case Report", "Adult", "Female", "Male", "Retrospective Studies",
    "Follow-Up Studies", "Treatment Outcome",
)
# no pseudo-word may equal a word the generator writes outside a mention
_RESERVED = frozenset(FILLER) | {
    w for k in _NON_VOCAB_KEYWORDS for w in k.lower().replace("-", " ").split()
}
AFFINITY = 25  # symptoms each disease favours in bodies, vectors and judgments
JUDGED = 12  # judged symptoms per disease in the graded collection
ANNOTATORS = ("A1", "A2", "A3")


@dataclass(frozen=True)
class Shape:
    """Sizes and mix of one workload's generated inputs."""

    diseases: int
    symptoms: int
    articles: int
    title_words: int
    body_words: int
    body_mentions: tuple[int, int]
    keyword_share: float
    relevant_share: float
    bad_lines: int
    workers: int
    collection_diseases: int  # judged in the collection, ranked by the external scores
    vector_diseases: int  # drawn from the collection's diseases
    vector_symptoms: int
    dims: int
    steps: tuple[str, ...]  # the commands the workload runs, in order (run.py's step names)


SHAPES = {
    # PubMed-like: long bodies with few mentions, a fifth of articles relevant.
    # The corpus-side workloads do not rank, so their vectors and collection
    # are generated small and left unread.
    "sparse-w1": Shape(
        diseases=500, symptoms=3000, articles=1500, title_words=12, body_words=400,
        body_mentions=(2, 6), keyword_share=0.5, relevant_share=0.2, bad_lines=5,
        workers=1, collection_diseases=10, vector_diseases=5, vector_symptoms=50, dims=10,
        steps=("tag", "mine_kwd", "mine_fulltext"),
    ),
    # short symptom-dense articles, all relevant, many 512-article chunks
    "dense-w2": Shape(
        diseases=500, symptoms=3000, articles=4096, title_words=8, body_words=60,
        body_mentions=(8, 14), keyword_share=0.9, relevant_share=1.0, bad_lines=0,
        workers=2, collection_diseases=10, vector_diseases=5, vector_symptoms=50, dims=10,
        steps=("mine_kwd", "mine_fulltext"),
    ),
    # small vocabulary, every concept has a vector; the corpus is tiny and unread
    "rank-eval": Shape(
        diseases=60, symptoms=1500, articles=150, title_words=10, body_words=100,
        body_mentions=(3, 6), keyword_share=0.6, relevant_share=0.5, bad_lines=0,
        workers=1, collection_diseases=60, vector_diseases=60, vector_symptoms=1500, dims=100,
        steps=("rank_vectors", "rank_scores", "eval", "vote", "kappa"),
    ),
}


@dataclass
class Truth:
    """What the generator planted, keyed the way the checks need it."""

    shape: Shape
    disease_ids: list[str]
    symptom_ids: list[str]
    names: dict[str, str]  # concept id -> normalized canonical name
    # article id -> (title, keyword, body) concept sets, valid articles only
    sections: dict[str, tuple[frozenset, frozenset, frozenset]] = field(default_factory=dict)
    with_keywords: int = 0
    collection: list[str] = field(default_factory=list)  # judged disease ids, sorted
    judgments: dict[str, dict[str, int]] = field(default_factory=dict)
    baseline: dict[str, list[str]] = field(default_factory=dict)
    vector_rows: dict[str, list[float]] = field(default_factory=dict)  # first row per concept
    vectors_skipped: int = 0
    external_scores: dict[str, dict[str, float]] = field(default_factory=dict)
    annotations: list[tuple[str, str, str, bool]] = field(default_factory=list)


@dataclass
class Inputs:
    vocab: Path
    corpus: Path
    vectors: Path
    collection: Path
    baseline: Path
    scores: Path
    annotations: Path | None
    pairs: Path | None


def _words(rng: random.Random):
    """Endless stream of distinct three-syllable pseudo-words."""
    seen: set[str] = set()
    count = len(_SYLLABLES)
    while True:
        n = rng.randrange(count**3)
        word = _SYLLABLES[n // count**2] + _SYLLABLES[n // count % count] + _SYLLABLES[n % count]
        if word not in seen and word not in _RESERVED:
            seen.add(word)
            yield word


def _styled(rng: random.Random, words: tuple[str, ...]) -> str:
    roll = rng.random()
    if roll < 0.15:
        return " ".join(w.upper() for w in words)
    if roll < 0.4:
        return " ".join(w.capitalize() for w in words)
    return " ".join(words)


def _mention(rng: random.Random, words: tuple[str, ...]) -> str:
    text = _styled(rng, words)
    roll = rng.random()
    if roll < 0.1:
        return f"({text})"
    if roll < 0.3:
        return text + ","
    if roll < 0.4:
        return text + "."
    return text


def _prose(rng: random.Random, n_words: int, mentions: list[str]) -> str:
    """Filler text with each mention between two filler words."""
    n_filler = max(n_words - 2 * len(mentions), len(mentions) + 1)
    filler = rng.choices(FILLER, k=n_filler)
    for i in range(0, n_filler, 9):
        filler[i] = filler[i].capitalize()
    for i in range(8, n_filler - 1, 11):
        filler[i] += rng.choice((",", ".", ";"))
    slots = sorted(rng.sample(range(1, n_filler), len(mentions)))
    pieces, previous = [], 0
    for slot, mention in zip(slots, mentions):
        pieces.extend(filler[previous:slot])
        pieces.append(mention)
        previous = slot
    pieces.extend(filler[previous:])
    return " ".join(pieces)


def generate(name: str, seed: int, out_dir: Path) -> tuple[Inputs, Truth]:
    """Write one workload's inputs under ``out_dir`` and return the truth."""
    shape = SHAPES[name]
    rng = random.Random(f"{name}:{seed}")
    words = _words(rng)
    out_dir.mkdir(parents=True, exist_ok=True)

    # vocabulary: 1-4 synonyms per concept, about 30% multi-word, plus
    # nested "modifier + synonym of another concept" forms
    disease_ids = [f"D{i:04d}" for i in range(shape.diseases)]
    symptom_ids = [f"S{i:04d}" for i in range(shape.symptoms)]
    synonyms: dict[str, list[tuple[str, ...]]] = {}
    for concept_id in disease_ids + symptom_ids:
        count = rng.choices((1, 2, 3, 4), weights=(30, 35, 25, 10))[0]
        synonyms[concept_id] = [
            tuple(next(words) for _ in range(2 if rng.random() < 0.3 else 1))
            for _ in range(count)
        ]
    all_ids = disease_ids + symptom_ids
    for concept_id in rng.sample(all_ids, len(all_ids) // 20):
        other = rng.choice(all_ids)
        singles = [s for s in synonyms[other] if len(s) == 1]
        if other != concept_id and singles:
            synonyms[concept_id].append((next(words), singles[0][0]))
    names = {cid: " ".join(syns[0]) for cid, syns in synonyms.items()}
    vocab_path = out_dir / "vocab.tsv"
    with open(vocab_path, "w", encoding="utf-8") as handle:
        handle.write("# id\tkind\tcanonical\tsynonyms\n")
        for concept_id in all_ids:
            kind = "disease" if concept_id.startswith("D") else "symptom"
            canonical = " ".join(w.capitalize() for w in synonyms[concept_id][0])
            others = "|".join(_styled(rng, s) for s in synonyms[concept_id][1:])
            handle.write(f"{concept_id}\t{kind}\t{canonical}\t{others}\n")

    truth = Truth(shape, disease_ids, symptom_ids, names)
    affinity = {d: rng.sample(symptom_ids, AFFINITY) for d in disease_ids}

    def plant(ids, sink: set) -> list[str]:
        sink.update(ids)
        return [_mention(rng, rng.choice(synonyms[c])) for c in ids]

    def symptoms_for(disease: str | None, n: int, favoured: float) -> list[str]:
        chosen = []
        for _ in range(n):
            pool = affinity[disease] if disease and rng.random() < favoured else symptom_ids
            chosen.append(rng.choice(pool))
        return chosen

    lines = []
    for i in range(shape.articles):
        article_id = f"PMID{i:07d}"
        title, keywords, body = set(), set(), set()
        relevant = rng.random() < shape.relevant_share
        has_keywords = rng.random() < shape.keyword_share
        disease = rng.choice(disease_ids) if relevant else None
        keyword_ids: list[str] = []
        title_ids: list[str] = []
        if has_keywords:
            if relevant:
                keyword_ids = [disease] + rng.sample(disease_ids, rng.randint(0, 1))
            keyword_ids += symptoms_for(disease, rng.randint(2, 5), 0.7)
        if relevant and (not has_keywords or rng.random() < 0.5):
            title_ids.append(disease)
        elif rng.random() < 0.4:
            title_ids += symptoms_for(None, 1, 0.0)
        body_ids = symptoms_for(disease, rng.randint(*shape.body_mentions), 0.6)
        if rng.random() < 0.3:
            body_ids.append(rng.choice(disease_ids))
        keyword_text = plant(keyword_ids, keywords)
        keyword_text = [
            k + rng.choice(("", "", "/diagnosis", "/therapy")) for k in keyword_text
        ]
        if has_keywords:
            keyword_text += rng.sample(_NON_VOCAB_KEYWORDS, rng.randint(0, 2))
            rng.shuffle(keyword_text)
        record = {
            "id": article_id,
            "title": _prose(rng, shape.title_words, plant(title_ids, title)),
            "keywords": keyword_text,
            "text": _prose(rng, shape.body_words, plant(body_ids, body)),
        }
        lines.append(json.dumps(record, ensure_ascii=False))
        truth.sections[article_id] = (frozenset(title), frozenset(keywords), frozenset(body))
        truth.with_keywords += bool(keyword_text)
    bad = [
        '{"id": "BAD-json", "title": ',
        '["not", "an", "object"]',
        '{"id": "BAD-title", "title": 7, "keywords": [], "text": ""}',
        '{"id": "BAD-keywords", "title": "x", "keywords": "flat", "text": ""}',
        '{"title": "no id", "keywords": [], "text": ""}',
    ]
    for k in range(shape.bad_lines):
        lines.insert(rng.randrange(len(lines) + 1), bad[k % len(bad)])
    corpus_path = out_dir / "corpus.jsonl"
    corpus_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    # graded collection over a sample of diseases, and a baseline run to compare with
    truth.collection = sorted(rng.sample(disease_ids, shape.collection_diseases))
    collection = []
    for disease in truth.collection:
        judged = affinity[disease][:JUDGED]
        grades = {s: 2 if rng.random() < 0.35 else 1 for s in judged}
        truth.judgments[disease] = grades
        collection.append({
            "id": disease,
            "name": names[disease],
            "judgments": [{"symptom_id": s, "grade": g} for s, g in sorted(grades.items())],
        })
        pool = affinity[disease][: JUDGED + 4] + rng.sample(symptom_ids, 10)
        ranking = list(dict.fromkeys(rng.sample(pool, len(pool))))[:10]
        truth.baseline[disease] = ranking
    collection_path = out_dir / "collection.json"
    collection_path.write_text(
        json.dumps({"diseases": collection, "metadata": {}}, indent=1), encoding="utf-8"
    )
    baseline_path = out_dir / "baseline.tsv"
    with open(baseline_path, "w", encoding="utf-8") as handle:
        for disease in truth.collection:
            for position, symptom in enumerate(truth.baseline[disease], start=1):
                handle.write(f"{disease}\t{position}\t{symptom}\t{float(11 - position)!r}\n")

    # vectors: id tokens, underscore_name tokens, junk tokens and repeats
    vector_diseases = rng.sample(truth.collection, shape.vector_diseases)
    vector_symptoms = set(rng.sample(symptom_ids, shape.vector_symptoms))
    base = {s: [rng.gauss(0.0, 1.0) for _ in range(shape.dims)] for s in sorted(vector_symptoms)}
    rows: list[tuple[str, list[float]]] = []
    for concept_id, vector in base.items():
        rows.append((concept_id, vector))
    for disease in vector_diseases:
        favoured = [base[s] for s in affinity[disease][:8] if s in base]
        vector = [rng.gauss(0.0, 1.0) for _ in range(shape.dims)]
        for other in favoured:
            vector = [v + 0.6 * o for v, o in zip(vector, other)]
        rows.append((disease, vector))
    rows = [(cid, [float(f"{v:.5f}") for v in vec]) for cid, vec in rows]
    truth.vector_rows = dict(rows)
    lines = []
    for concept_id, vector in rows:
        roll = rng.random()
        if roll < 0.6:
            token = concept_id
        else:
            syns = synonyms[concept_id]
            token = "_".join(syns[0] if roll < 0.85 else rng.choice(syns))
        lines.append((token, vector))
    junk = [(next(words), [rng.gauss(0.0, 1.0) for _ in range(shape.dims)])
            for _ in range(len(rows) // 20 + 1)]
    repeats = [(cid, [rng.gauss(0.0, 1.0) for _ in range(shape.dims)])
               for cid, _ in rng.sample(rows, len(rows) // 50 + 1)]
    lines += junk
    rng.shuffle(lines)
    lines += repeats  # after every original, so the first row of a concept is kept
    truth.vectors_skipped = len(junk) + len(repeats)
    vectors_path = out_dir / "vectors.txt"
    with open(vectors_path, "w", encoding="utf-8") as handle:
        handle.write(f"{shape.dims}\n")
        for token, vector in lines:
            handle.write(token + " " + " ".join(f"{v:.5f}" for v in vector) + "\n")

    # external scores for rank --scores, over the collection's diseases
    inputs = Inputs(vocab_path, corpus_path, vectors_path, collection_path,
                    baseline_path, out_dir / "external_scores.tsv", None, None)
    with open(inputs.scores, "w", encoding="utf-8") as handle:
        handle.write("# disease\tsymptom\tscore\n")
        for disease in truth.collection:
            row_scores = {}
            for symptom in rng.sample(symptom_ids, 150):
                value = 0.0 if rng.random() < 0.05 else round(rng.random() * 10, 3)
                row_scores[symptom] = value
                handle.write(f"{disease}\t{symptom}\t{value:.3f}\n")
            truth.external_scores[disease] = row_scores
            for _ in range(5):  # ids outside the vocabulary are skipped
                handle.write(f"X{rng.randrange(10**6)}\t{symptom}\t1.000\n")
    if "vote" in shape.steps or "kappa" in shape.steps:
        inputs.annotations = out_dir / "annotations.csv"
        inputs.pairs = out_dir / "pairs.csv"
        pair_rows = ["disease_id,symptom_id"]
        record_rows = ["disease_id,symptom_id,annotator_id,is_primary"]
        for disease in truth.collection:
            for symptom, grade in sorted(truth.judgments[disease].items()):
                pair_rows.append(f"{disease},{symptom}")
                votes = rng.choice((2, 3)) if grade == 2 else rng.choice((0, 1))
                flags = [True] * votes + [False] * (len(ANNOTATORS) - votes)
                rng.shuffle(flags)
                for annotator, flag in zip(ANNOTATORS, flags):
                    truth.annotations.append((disease, symptom, annotator, flag))
                    record_rows.append(f"{disease},{symptom},{annotator},{str(flag).lower()}")
        inputs.annotations.write_text("\n".join(record_rows) + "\n", encoding="utf-8")
        inputs.pairs.write_text("\n".join(pair_rows) + "\n", encoding="utf-8")
    return inputs, truth
