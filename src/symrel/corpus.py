"""Streaming access to JSONL article corpora.

One article per line: ``{"id": ..., "title": ..., "keywords": [...],
"text": ...}``. Corpora can be orders of magnitude larger than memory, so
reading is strictly single-pass and bodies are never retained. Duplicate
detection is exact, so a reader keeps every article id it has seen in
memory: memory grows with the number of articles, not with their size.
Mining consumes the stream in chunks; pair counts over disjoint chunks
sum, and the symptom spread is derived once from the total (see
:mod:`symrel.miner`).
"""

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .errors import DuplicateArticleId, MalformedRecord

logger = logging.getLogger(__name__)

_REQUIRED_FIELDS = ("id", "title", "keywords", "text")


@dataclass
class Article:
    article_id: str
    title: str
    keywords: list[str]
    body: str


@dataclass
class CorpusStats:
    article_count: int = 0
    with_keywords_count: int = 0
    skipped_count: int = 0


class CorpusReader:
    """Iterate a JSONL corpus file in order.

    Malformed records abort by default; with ``skip_bad_records`` they are
    counted, logged, and skipped. ``stats`` holds exact counts for the most
    recently completed pass. Each pass holds the set of article ids seen so
    far, to reject duplicates.
    """

    def __init__(self, path, skip_bad_records: bool = False):
        self.path = Path(path)
        self.skip_bad_records = skip_bad_records
        self.stats = CorpusStats()

    def __iter__(self) -> Iterator[Article]:
        stats = CorpusStats()
        self.stats = stats
        seen_ids: set[str] = set()
        with open(self.path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                try:
                    article = _parse_record(self.path, lineno, line)
                except MalformedRecord:
                    if not self.skip_bad_records:
                        raise
                    stats.skipped_count += 1
                    logger.warning("%s:%d: skipping malformed record", self.path, lineno)
                    continue
                if article.article_id in seen_ids:
                    raise DuplicateArticleId(
                        f"{self.path}:{lineno}: duplicate article id {article.article_id!r}"
                    )
                seen_ids.add(article.article_id)
                stats.article_count += 1
                if article.keywords:
                    stats.with_keywords_count += 1
                yield article


def _parse_record(path, lineno: int, line: str) -> Article:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(path, lineno, f"invalid JSON: {exc.msg}") from None
    if not isinstance(record, dict):
        raise MalformedRecord(path, lineno, "record is not a JSON object")
    for name in _REQUIRED_FIELDS:
        if name not in record:
            raise MalformedRecord(path, lineno, f"missing field {name!r}")
    if not isinstance(record["id"], str) or not record["id"]:
        raise MalformedRecord(path, lineno, "field 'id' must be a non-empty string")
    for name in ("title", "text"):
        if not isinstance(record[name], str):
            raise MalformedRecord(path, lineno, f"field {name!r} must be a string")
    keywords = record["keywords"]
    if not isinstance(keywords, list) or any(not isinstance(k, str) for k in keywords):
        raise MalformedRecord(path, lineno, "field 'keywords' must be a list of strings")
    return Article(record["id"], record["title"], list(keywords), record["text"])


def stream_corpus(path, skip_bad_records: bool = False) -> CorpusReader:
    """Open a corpus for (re-)iteration. Thin constructor wrapper."""
    return CorpusReader(path, skip_bad_records=skip_bad_records)
