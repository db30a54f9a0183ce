"""Co-occurrence mining with inverse symptom frequency weighting.

A disease/symptom pair's relation strength is the number of articles in
which the pair co-occurs, multiplied by the inverse symptom frequency:
the vocabulary's total disease count divided by the number of distinct
diseases that co-occur with that symptom at least once. Symptoms that
accompany many diseases carry little discriminating signal and are
down-weighted accordingly. Pairs that never co-occur score 0.0, which
also keeps a zero disease spread out of the division.

Counting regimes:

* keyword: disease and symptom both appear in the article's keyword section.
* fulltext: the disease appears in the keywords or the title, and the
  symptom appears in the body text.

:func:`mine_corpus` tags only the sections its regime counts: the keywords
alone under keyword; under fulltext the keywords and the title, and the
body only of an article whose keywords or title hold a disease. A section
left untagged could add no pair, so the counts are those of tagging every
section.

Counting is a commutative-monoid fold: pair counts over disjoint article
subsets sum, and the symptom spread is derived once, from the summed
counts, when the index is built. Chunked-parallel mining therefore
produces the same index as a sequential pass. Each worker process builds
its concept matcher once and is sent only the regime and a chunk of
articles.
"""

import logging
import math
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Article
from .errors import MalformedRow, UndefinedISF, UnknownConcept, VocabularyMismatch
from .tagger import ConceptMatcher, SectionTags
from .vocab import Vocabulary

logger = logging.getLogger(__name__)

# method labels attached to relation scores
KWD = "kwd"
KWDLARGE = "kwdlarge"
FULLTEXT = "fulltext"
EMBEDDING = "embedding"


class Regime(str, Enum):
    KEYWORD = "keyword"
    FULLTEXT = "fulltext"

    @property
    def method(self) -> str:
        """Method label for scores mined under this regime."""
        return KWD if self is Regime.KEYWORD else FULLTEXT


@dataclass(frozen=True)
class RelationScore:
    disease_id: str
    symptom_id: str
    score: float
    method: str


@dataclass
class CooccurrenceIndex:
    """Article-level pair counts plus the derived per-symptom disease counts.

    ``pair_counts`` stores only observed pairs (count >= 1);
    ``symptom_spread`` maps each symptom to the number of distinct diseases
    it co-occurs with, and is always recomputed from ``pair_counts``, never
    carried independently.
    """

    regime: Regime
    pair_counts: dict[tuple[str, str], int]
    symptom_spread: dict[str, int]
    total_diseases: int
    disease_ids: frozenset[str]
    symptom_ids: frozenset[str]


def _check_known(tags: SectionTags, vocabulary: Vocabulary) -> None:
    for section in (tags.title_concepts, tags.keyword_concepts, tags.body_concepts):
        for concept_id in section:
            if concept_id not in vocabulary.concepts:
                raise VocabularyMismatch(
                    f"article {tags.article_id!r} tagged with unknown concept {concept_id!r}"
                )


def _check_vocabulary(vocabulary: Vocabulary) -> None:
    if not vocabulary.disease_ids or not vocabulary.symptom_ids:
        raise VocabularyMismatch(
            "vocabulary must contain at least one disease and one symptom"
        )


def _index_from_counts(
    regime: Regime,
    pair_counts: dict[tuple[str, str], int],
    total_diseases: int,
    disease_ids: frozenset[str],
    symptom_ids: frozenset[str],
) -> CooccurrenceIndex:
    """The one place pair counts become an index and the spread is derived."""
    # keys are unique pairs, so counting pairs per symptom counts distinct diseases
    spread = Counter(symptom_id for (_, symptom_id) in pair_counts)
    return CooccurrenceIndex(
        regime, dict(pair_counts), dict(spread), total_diseases, disease_ids, symptom_ids
    )


def _count_tags(
    tags: Iterable[SectionTags], vocabulary: Vocabulary, regime: Regime
) -> Counter:
    diseases = vocabulary.disease_ids
    symptoms = vocabulary.symptom_ids
    pair_counts: Counter = Counter()
    for item in tags:
        _check_known(item, vocabulary)
        if regime is Regime.KEYWORD:
            article_diseases = item.keyword_concepts & diseases
            article_symptoms = item.keyword_concepts & symptoms
        else:
            article_diseases = (item.keyword_concepts | item.title_concepts) & diseases
            article_symptoms = item.body_concepts & symptoms
        for disease_id in article_diseases:
            for symptom_id in article_symptoms:
                pair_counts[(disease_id, symptom_id)] += 1
    return pair_counts


def count_keyword_cooccurrence(
    tags: Iterable[SectionTags], vocabulary: Vocabulary
) -> CooccurrenceIndex:
    """Count pairs where disease and symptom share the keyword section."""
    _check_vocabulary(vocabulary)
    return _index_from_counts(
        Regime.KEYWORD, _count_tags(tags, vocabulary, Regime.KEYWORD),
        vocabulary.disease_count, vocabulary.disease_ids, vocabulary.symptom_ids,
    )


def count_fulltext_cooccurrence(
    tags: Iterable[SectionTags], vocabulary: Vocabulary
) -> CooccurrenceIndex:
    """Count pairs where the disease marks the article (keywords or title)
    and the symptom occurs in the body."""
    _check_vocabulary(vocabulary)
    return _index_from_counts(
        Regime.FULLTEXT, _count_tags(tags, vocabulary, Regime.FULLTEXT),
        vocabulary.disease_count, vocabulary.disease_ids, vocabulary.symptom_ids,
    )


def merge_indexes(indexes: Sequence[CooccurrenceIndex]) -> CooccurrenceIndex:
    """Combine partial indexes built from disjoint article subsets."""
    if not indexes:
        raise ValueError("nothing to merge")
    first = indexes[0]
    pair_counts: Counter = Counter()
    for index in indexes:
        if (
            index.regime is not first.regime
            or index.total_diseases != first.total_diseases
            or index.disease_ids != first.disease_ids
            or index.symptom_ids != first.symptom_ids
        ):
            raise VocabularyMismatch("partial indexes disagree on regime or vocabulary")
        pair_counts.update(index.pair_counts)
    return _index_from_counts(
        first.regime, pair_counts, first.total_diseases, first.disease_ids, first.symptom_ids
    )


def inverse_symptom_frequency(index: CooccurrenceIndex, symptom_id: str) -> float:
    """Total disease count over the symptom's disease spread; 1.0 when the
    symptom accompanies every disease."""
    if symptom_id not in index.symptom_ids:
        raise UnknownConcept(f"unknown symptom id {symptom_id!r}")
    spread = index.symptom_spread.get(symptom_id, 0)
    if spread == 0:
        raise UndefinedISF(f"symptom {symptom_id!r} co-occurs with no disease")
    return index.total_diseases / spread


def _score(index: CooccurrenceIndex, symptom_id: str, count: int) -> float:
    # the one scoring expression; its operation order fixes the output floats
    return count * (index.total_diseases / index.symptom_spread[symptom_id])


def relation_score(index: CooccurrenceIndex, disease_id: str, symptom_id: str) -> float:
    """Pair count times inverse symptom frequency, or 0.0 for pairs that
    never co-occur."""
    if disease_id not in index.disease_ids:
        raise UnknownConcept(f"unknown disease id {disease_id!r}")
    if symptom_id not in index.symptom_ids:
        raise UnknownConcept(f"unknown symptom id {symptom_id!r}")
    count = index.pair_counts.get((disease_id, symptom_id), 0)
    if count == 0:
        return 0.0
    return _score(index, symptom_id, count)


def index_scores(index: CooccurrenceIndex) -> list[RelationScore]:
    """Relation scores for every observed pair in the index."""
    method = index.regime.method
    return [
        RelationScore(disease_id, symptom_id, _score(index, symptom_id, count), method)
        for (disease_id, symptom_id), count in index.pair_counts.items()
    ]


def rank_symptoms(
    scores: Iterable[RelationScore], k: int, drop_zero: bool = True
) -> list[tuple[str, float]]:
    """Top-k symptoms by descending score; ties break by ascending symptom id.

    Zero scores are dropped by default: a pair with no supporting evidence
    must not occupy a cutoff slot. Embedding rankings pass
    ``drop_zero=False`` because a zero cosine is a measurement, not missing
    evidence.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    items = list(scores)
    if len({item.disease_id for item in items}) > 1:
        raise ValueError("scores must all belong to one disease")
    if len({item.method for item in items}) > 1:
        raise ValueError("scores must all come from one method")
    if len({item.symptom_id for item in items}) != len(items):
        raise ValueError("duplicate symptom id in scores")
    for item in items:
        if not math.isfinite(item.score):
            raise ValueError(f"non-finite score for symptom {item.symptom_id!r}")
    ranked = sorted(
        (
            (item.symptom_id, item.score)
            for item in items
            if not (drop_zero and item.score == 0.0)
        ),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:k]


@dataclass
class ImportedScores:
    scores: list[RelationScore]
    skipped: int


def import_external_scores(
    path, vocabulary: Vocabulary, method: str = KWDLARGE
) -> ImportedScores:
    """Read a disease/symptom/score TSV produced by an external miner.

    External score normalization is treated as opaque; values are kept
    verbatim. Rows whose ids do not resolve against the vocabulary are
    counted and skipped with a warning rather than aborting the import.
    """
    path = Path(path)
    scores: list[RelationScore] = []
    seen: set[tuple[str, str]] = set()
    skipped = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, raw_line in enumerate(handle, 1):
            line = raw_line.rstrip("\r\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise MalformedRow(
                    path, lineno, f"expected 3 tab-separated fields, got {len(fields)}"
                )
            disease_id, symptom_id, score_field = fields
            try:
                value = float(score_field)
            except ValueError:
                raise MalformedRow(path, lineno, f"bad score {score_field!r}") from None
            if not math.isfinite(value):
                raise MalformedRow(path, lineno, "score must be finite")
            if (
                disease_id not in vocabulary.disease_ids
                or symptom_id not in vocabulary.symptom_ids
            ):
                skipped += 1
                logger.debug(
                    "%s:%d: skipping unresolvable pair (%s, %s)",
                    path, lineno, disease_id, symptom_id,
                )
                continue
            pair = (disease_id, symptom_id)
            if pair in seen:
                raise MalformedRow(path, lineno, f"duplicate pair {pair!r}")
            seen.add(pair)
            scores.append(RelationScore(disease_id, symptom_id, value, method))
    if skipped:
        logger.warning(
            "%s: skipped %d row(s) with ids outside the vocabulary", path, skipped
        )
    return ImportedScores(scores=scores, skipped=skipped)


def save_scores(scores: Iterable[RelationScore], path) -> None:
    """Write scores as a sorted disease/symptom/score TSV (byte-deterministic)."""
    rows = sorted(scores, key=lambda s: (s.disease_id, s.symptom_id))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for item in rows:
            handle.write(f"{item.disease_id}\t{item.symptom_id}\t{item.score!r}\n")


def save_index(index: CooccurrenceIndex, path) -> None:
    """Snapshot an index: `#|X|=` and `#regime=` header lines, then count rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"#|X|={index.total_diseases}\n")
        handle.write(f"#regime={index.regime.value}\n")
        for (disease_id, symptom_id), count in sorted(index.pair_counts.items()):
            handle.write(f"{disease_id}\t{symptom_id}\t{count}\n")


def load_index(path, vocabulary: Vocabulary) -> CooccurrenceIndex:
    """Rebuild an index from a snapshot, validated against the vocabulary."""
    path = Path(path)
    header: dict[str, str] = {}
    pair_counts: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw_line in enumerate(handle, 1):
            line = raw_line.rstrip("\r\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if not sep:
                    raise MalformedRow(path, lineno, f"malformed header {line!r}")
                if key in header:
                    raise MalformedRow(path, lineno, f"duplicate header {key!r}")
                header[key] = value
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise MalformedRow(
                    path, lineno, f"expected 3 tab-separated fields, got {len(fields)}"
                )
            disease_id, symptom_id, count_field = fields
            try:
                count = int(count_field)
            except ValueError:
                raise MalformedRow(path, lineno, f"bad count {count_field!r}") from None
            if count < 1:
                raise MalformedRow(path, lineno, "counts must be >= 1")
            if disease_id not in vocabulary.disease_ids:
                raise VocabularyMismatch(
                    f"{path}:{lineno}: {disease_id!r} is not a disease in the vocabulary"
                )
            if symptom_id not in vocabulary.symptom_ids:
                raise VocabularyMismatch(
                    f"{path}:{lineno}: {symptom_id!r} is not a symptom in the vocabulary"
                )
            pair = (disease_id, symptom_id)
            if pair in pair_counts:
                raise MalformedRow(path, lineno, f"duplicate pair {pair!r}")
            pair_counts[pair] = count
    for key in ("|X|", "regime"):
        if key not in header:
            raise MalformedRow(path, 0, f"missing #{key}= header")
    try:
        total_diseases = int(header["|X|"])
    except ValueError:
        raise MalformedRow(path, 0, f"bad #|X|= value {header['|X|']!r}") from None
    try:
        regime = Regime(header["regime"])
    except ValueError:
        raise MalformedRow(path, 0, f"bad #regime= value {header['regime']!r}") from None
    if total_diseases != vocabulary.disease_count:
        raise VocabularyMismatch(
            f"snapshot says |X|={total_diseases} but vocabulary has "
            f"{vocabulary.disease_count} diseases"
        )
    return _index_from_counts(
        regime, pair_counts, total_diseases, vocabulary.disease_ids, vocabulary.symptom_ids
    )


# the matcher of a pool worker process, built once by _start_worker
_worker_matcher: ConceptMatcher | None = None


def _start_worker(vocabulary: Vocabulary) -> None:
    global _worker_matcher
    _worker_matcher = ConceptMatcher(vocabulary)


def _count_articles(
    matcher: ConceptMatcher, articles: Iterable[Article], regime: Regime
) -> Counter:
    """Tag only the sections ``regime`` counts (see the module docstring),
    then count pairs."""
    diseases = matcher.vocabulary.disease_ids

    def tagged():
        for article in articles:
            tags = SectionTags(
                article.article_id, keyword_concepts=matcher.tag_keywords(article.keywords)
            )
            if regime is Regime.FULLTEXT:
                tags.title_concepts = matcher.tag_text(article.title)
                # body symptoms pair only with keyword or title diseases
                if not diseases.isdisjoint(tags.keyword_concepts | tags.title_concepts):
                    tags.body_concepts = matcher.tag_text(article.body)
            yield tags

    return _count_tags(tagged(), matcher.vocabulary, regime)


def _count_chunk(regime: Regime, articles: list) -> Counter:
    return _count_articles(_worker_matcher, articles, regime)


def _chunked(items, size: int):
    chunk = []
    for item in items:
        chunk.append(item)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def mine_corpus(
    articles,
    vocabulary: Vocabulary,
    regime: Regime,
    workers: int = 1,
    chunk_size: int = 512,
) -> CooccurrenceIndex:
    """Tag articles and count co-occurrence, optionally across processes.

    Only the sections the regime counts are tagged (see the module
    docstring). With ``workers > 1`` each worker process builds its
    matcher once and counts whole chunks of articles; the chunk counts
    sum, and the index (spread included) is built once at the end. The
    result is identical for every worker count and chunking, so output
    files stay byte-identical.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    _check_vocabulary(vocabulary)
    if workers == 1:
        pair_counts = _count_articles(ConceptMatcher(vocabulary), articles, regime)
    else:
        pair_counts = Counter()
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_start_worker, initargs=(vocabulary,)
        ) as pool:
            pending: deque = deque()
            for chunk in _chunked(articles, chunk_size):
                pending.append(pool.submit(_count_chunk, regime, chunk))
                # bound the number of chunks held in memory
                while len(pending) >= workers * 2:
                    pair_counts.update(pending.popleft().result())
            for future in pending:
                pair_counts.update(future.result())
    return _index_from_counts(
        regime, pair_counts, vocabulary.disease_count,
        vocabulary.disease_ids, vocabulary.symptom_ids,
    )
