"""Run one pipeline command with spans around its calls into the library.

Usage: ``python perfbench/traced.py SPEC.json`` with ``src`` on
``PYTHONPATH``. The spec holds ``argv``, the command line a user would
give ``symrel``, and ``trace_out``, where the spans and counters are
written as JSON.

Every command except ``mine`` runs through the real ``symrel.cli.main``.
Before it runs, the library functions that ``symrel.cli`` imports are
replaced, in the ``symrel.cli`` namespace only, by wrappers that open a
span around each call, and ``symrel.tagger.normalize_term`` (the name
``ConceptMatcher.tag_text`` looks up) by one that opens a
``vocab.normalize`` span. No library code is edited, and the handlers
run as they are, checks and output included.

``mine`` hands the whole corpus to ``mine_corpus`` in one call, which
hides how tagging, folding and merging share the time. It is therefore
re-enacted here with the same public calls: one matcher and one fold for
a single worker; otherwise, as the process pool does it, a matcher and a
fold per 512-article chunk, merged pairwise, all in this one process.
Title, keywords and body are tagged separately so their times split.
"""

import functools
import json
import sys
from pathlib import Path

from tracing import Tracer

tracer = Tracer()
span = tracer.span

with span("cli.import"):
    import symrel.cli  # the import every command pays

import symrel.tagger  # noqa: E402
from symrel.corpus import Article  # noqa: E402
from symrel.miner import (  # noqa: E402
    Regime,
    count_fulltext_cooccurrence,
    count_keyword_cooccurrence,
    merge_indexes,
)
from symrel.tagger import ConceptMatcher, SectionTags  # noqa: E402

CHUNK_SIZE = 512  # mine_corpus's default chunk for workers > 1

# name imported by symrel.cli -> span around each call
SPANS = {
    "load_vocabulary": "vocab.load",
    "write_tags": "tagger.write_tags",
    "index_scores": "miner.index_scores",
    "save_index": "miner.save_index",
    "save_scores": "miner.save_scores",
    "import_external_scores": "miner.import_scores",
    "rank_symptoms": "miner.rank_symptoms",
    "load_vectors": "embedding.load_vectors",
    "rank_by_embedding": "embedding.rank",
    "load_run": "evalmetrics.load_run",
    "write_run": "evalmetrics.write_run",
    "evaluate_run": "evalmetrics.evaluate_run",
    "compare_runs": "evalmetrics.compare_runs",
    "report_json": "evalmetrics.report_json",
    "load_collection": "collection.load",
    "read_annotations": "collection.read_annotations",
    "read_pair_list": "collection.read_pair_list",
    "majority_vote": "collection.majority_vote",
    "fleiss_kappa": "collection.fleiss_kappa",
    "save_collection": "collection.save",
}

counters: dict[str, float] = {}
readers = []


def _count(name: str, amount: float = 1) -> None:
    counters[name] = counters.get(name, 0) + amount


def _spanned(name: str, func, after=None):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with span(name):
            result = func(*args, **kwargs)
        if after is not None:
            after(result, *args)
        return result
    return wrapper


def _vocabulary_loaded(vocabulary, *_):
    counters["vocab.synonyms"] = len(vocabulary.synonym_index)


def _vectors_loaded(table, _path, vocabulary):
    counters["embedding.vectors_kept"] = len(table.vectors)
    counters["embedding.vectors_skipped"] = table.skipped
    counters["embedding.ranked_symptoms"] = sum(1 for s in vocabulary.symptom_ids if s in table.vectors)


def _compared(comparison, *_):
    counters["evalmetrics.ttests"] = len(comparison.tests)


def _annotations_read(records, *_):
    counters["collection.records"] = len(records)


AFTER = {
    "load_vocabulary": _vocabulary_loaded,
    "load_vectors": _vectors_loaded,
    "rank_by_embedding": lambda *_: _count("embedding.rankings"),
    "compare_runs": _compared,
    "read_annotations": _annotations_read,
}


class TracedReader:
    """A corpus reader whose every article read is a ``corpus.read`` span."""

    def __init__(self, reader):
        self.reader = reader
        self.path = reader.path
        readers.append(self)

    @property
    def stats(self):
        return self.reader.stats

    def __iter__(self):
        articles = iter(self.reader)
        while True:
            with span("corpus.read"):
                article = next(articles, None)
            if article is None:
                return
            yield article


class TracedMatcher(ConceptMatcher):
    """A matcher whose construction and per-article tagging are spans."""

    def __init__(self, vocabulary):
        with span("tagger.build"):
            super().__init__(vocabulary)

    def tag_article(self, article):
        with span("tagger.tag_article"):
            tags = super().tag_article(article)
        _count_hits(tags)
        return tags


def _count_hits(tags: SectionTags) -> None:
    _count("tagger.hits_title", len(tags.title_concepts))
    _count("tagger.hits_keywords", len(tags.keyword_concepts))
    _count("tagger.hits_body", len(tags.body_concepts))


def _install() -> None:
    cli = symrel.cli
    for name, span_name in SPANS.items():
        setattr(cli, name, _spanned(span_name, getattr(cli, name), AFTER.get(name)))
    stream_corpus = cli.stream_corpus
    cli.stream_corpus = lambda *args, **kwargs: TracedReader(stream_corpus(*args, **kwargs))
    cli.ConceptMatcher = TracedMatcher
    normalize_term = symrel.tagger.normalize_term

    def traced_normalize(text):
        _count("vocab.normalized_bytes", len(text.encode("utf-8")))
        with span("vocab.normalize"):
            return normalize_term(text)

    symrel.tagger.normalize_term = traced_normalize


def _tag_sections(matcher, article):
    with span("tagger.tag_title"):
        title = matcher.tag_text(article.title)
    with span("tagger.tag_keywords"):
        keywords = ConceptMatcher.tag_article(
            matcher, Article(article.article_id, "", article.keywords, "")
        )
    with span("tagger.tag_body"):
        body = matcher.tag_text(article.body)
    tags = SectionTags(article.article_id, title, keywords.keyword_concepts, body)
    _count_hits(tags)
    return tags


def mine(argv: list[str]) -> int:
    """The mine handler, with ``mine_corpus`` taken apart as described above."""
    cli = symrel.cli
    config = cli.resolve_config(cli.build_parser().parse_args(argv))
    cli._require(config, "vocab", "corpus", "regime", "out")
    regime_name = config.regime
    vocabulary = cli.load_vocabulary(config.vocab)
    regime = cli.REGIME_CHOICES[regime_name]
    fold = count_keyword_cooccurrence if regime is Regime.KEYWORD else count_fulltext_cooccurrence
    reader = cli.stream_corpus(config.corpus, skip_bad_records=config.skip_bad_records)
    chunk_size = None if config.workers == 1 else CHUNK_SIZE
    merged, matcher, chunks, relevant = None, None, 0, 0
    with span(f"miner.mine_corpus_{regime_name}"):
        articles = iter(reader)
        done = False
        while not done:
            chunk = []
            while chunk_size is None or len(chunk) < chunk_size:
                article = next(articles, None)
                if article is None:
                    done = True
                    break
                chunk.append(article)
            if not chunk and chunks:
                break
            chunks += 1
            if matcher is None or chunk_size is not None:
                matcher = cli.ConceptMatcher(vocabulary)
            tags = [_tag_sections(matcher, article) for article in chunk]
            relevant += sum(
                1 for t in tags if (t.keyword_concepts | t.title_concepts) & vocabulary.disease_ids
            )
            with span(f"miner.fold_{regime_name}"):
                part = fold(tags, vocabulary)
            if merged is None:
                merged = part
            else:
                with span("miner.merge"):
                    merged = merge_indexes([merged, part])
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cli.save_index(merged, out_dir / f"index_{regime_name}.tsv")
    cli.save_scores(cli.index_scores(merged), out_dir / f"scores_{regime_name}.tsv")
    counters["miner.pairs"] = len(merged.pair_counts)
    counters["miner.chunks"] = chunks
    counters["miner.relevant_articles"] = relevant
    counters["miner.symptoms_with_spread"] = len(merged.symptom_spread)
    return 0


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    argv = spec["argv"]
    _install()
    code = mine(argv) if argv[0] == "mine" else symrel.cli.main(argv)
    if "embedding.rankings" in counters:
        counters["embedding.cosines"] = counters["embedding.rankings"] * counters["embedding.ranked_symptoms"]
    for reader in readers:
        stats = reader.stats
        counters["corpus.articles"] = stats.article_count
        counters["corpus.with_keywords"] = stats.with_keywords_count
        counters["corpus.skipped"] = stats.skipped_count
        counters["corpus.bytes"] = reader.path.stat().st_size
    Path(spec["trace_out"]).write_text(
        json.dumps({"spans": tracer.spans, "counters": counters}), encoding="utf-8"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
