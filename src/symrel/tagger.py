"""Concept tagging: find vocabulary concepts in titles, keywords, and bodies.

Free text (titles, bodies) is scanned with an Aho-Corasick automaton built
over all normalized synonyms. A hit only counts when it sits on word
boundaries -- flanked by string edges or non-alphanumeric characters in the
normalized text -- so "pain" never fires inside "painter". Overlapping hits
resolve leftmost-longest: the winning span is consumed, and concepts whose
only occurrence lies inside a consumed span are suppressed for that span
(they still match where they occur standalone).

Keywords are curated descriptors, not prose, so each keyword matches by
exact synonym lookup after stripping a "/qualifier" suffix
(:meth:`ConceptMatcher.tag_keywords`).

Tagging records article-level presence per section (set semantics); how
often a concept occurs within one article never matters downstream.
:meth:`ConceptMatcher.tag_article` tags all three sections, as the ``tag``
command writes them; a caller that reads only some sections, like the
miner, calls :meth:`~ConceptMatcher.tag_keywords` and
:meth:`~ConceptMatcher.tag_text` for just those.
"""

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .corpus import Article
from .errors import MalformedRecord
from .vocab import Vocabulary, normalize_term


@dataclass
class SectionTags:
    """Concept ids present in each section of one article."""

    article_id: str
    title_concepts: set[str] = field(default_factory=set)
    keyword_concepts: set[str] = field(default_factory=set)
    body_concepts: set[str] = field(default_factory=set)


class ConceptMatcher:
    """Multi-pattern dictionary matcher over a vocabulary's synonyms.

    Construction is linear in the total length of all synonyms; matching is
    linear in text length plus the number of raw hits.
    """

    def __init__(self, vocabulary: Vocabulary):
        self.vocabulary = vocabulary
        self._patterns: list[tuple[str, str]] = []
        goto: list[dict[str, int]] = [{}]
        outputs: list[list[int]] = [[]]
        for synonym, concept_id in sorted(vocabulary.synonym_index.items()):
            state = 0
            for ch in synonym:
                nxt = goto[state].get(ch)
                if nxt is None:
                    nxt = len(goto)
                    goto.append({})
                    outputs.append([])
                    goto[state][ch] = nxt
                state = nxt
            outputs[state].append(len(self._patterns))
            self._patterns.append((synonym, concept_id))
        fail = [0] * len(goto)
        queue = deque(goto[0].values())
        while queue:
            state = queue.popleft()
            for ch, child in goto[state].items():
                queue.append(child)
                probe = fail[state]
                while probe and ch not in goto[probe]:
                    probe = fail[probe]
                fail[child] = goto[probe].get(ch, 0)
                outputs[child].extend(outputs[fail[child]])
        self._goto = goto
        self._fail = fail
        self._outputs = outputs

    def _boundary_hits(self, text: str) -> list[tuple[int, int, str]]:
        """All synonym occurrences that sit on word boundaries."""
        goto, fail, outputs = self._goto, self._fail, self._outputs
        patterns = self._patterns
        length = len(text)
        hits: list[tuple[int, int, str]] = []
        state = 0
        for end, ch in enumerate(text):
            while state and ch not in goto[state]:
                state = fail[state]
            state = goto[state].get(ch, 0)
            if outputs[state]:
                for pattern_index in outputs[state]:
                    surface, concept_id = patterns[pattern_index]
                    start = end - len(surface) + 1
                    if start > 0 and text[start - 1].isalnum():
                        continue
                    if end + 1 < length and text[end + 1].isalnum():
                        continue
                    hits.append((start, end + 1, concept_id))
        return hits

    def tag_text(self, text: str) -> set[str]:
        """Concept ids found in free text after leftmost-longest resolution."""
        normalized = normalize_term(text)
        hits = self._boundary_hits(normalized)
        hits.sort(key=lambda hit: (hit[0], hit[0] - hit[1]))
        found: set[str] = set()
        cursor = 0
        for start, end, concept_id in hits:
            if start >= cursor:
                found.add(concept_id)
                cursor = end
        return found

    def tag_keywords(self, keywords: Iterable[str]) -> set[str]:
        """Concept ids of keywords, by exact synonym lookup after stripping
        a "/qualifier" suffix; no automaton scan."""
        found: set[str] = set()
        for keyword in keywords:
            concept = self.vocabulary.lookup(keyword.split("/", 1)[0])
            if concept is not None:
                found.add(concept.id)
        return found

    def tag_article(self, article: Article) -> SectionTags:
        """Tag all three sections of an article.

        Sections are independent: keywords never leak into body tags and
        vice versa.
        """
        return SectionTags(
            article_id=article.article_id,
            title_concepts=self.tag_text(article.title),
            keyword_concepts=self.tag_keywords(article.keywords),
            body_concepts=self.tag_text(article.body),
        )


def write_tags(tags: Iterable[SectionTags], path) -> int:
    """Write tags as JSONL (sorted id lists per section); returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for item in tags:
            record = {
                "id": item.article_id,
                "title": sorted(item.title_concepts),
                "keywords": sorted(item.keyword_concepts),
                "body": sorted(item.body_concepts),
            }
            handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_tags(path) -> Iterator[SectionTags]:
    """Stream a tags JSONL file written by :func:`write_tags`."""
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(path, lineno, f"invalid JSON: {exc.msg}") from None
            if not isinstance(record, dict):
                raise MalformedRecord(path, lineno, "record is not a JSON object")
            for name in ("id", "title", "keywords", "body"):
                if name not in record:
                    raise MalformedRecord(path, lineno, f"missing field {name!r}")
            if not isinstance(record["id"], str) or not record["id"]:
                raise MalformedRecord(path, lineno, "field 'id' must be a non-empty string")
            for name in ("title", "keywords", "body"):
                ids = record[name]
                if not isinstance(ids, list) or any(not isinstance(i, str) for i in ids):
                    raise MalformedRecord(
                        path, lineno, f"field {name!r} must be a list of strings"
                    )
            yield SectionTags(
                article_id=record["id"],
                title_concepts=set(record["title"]),
                keyword_concepts=set(record["keywords"]),
                body_concepts=set(record["body"]),
            )
