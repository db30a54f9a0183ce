"""Command-line pipeline: tag, mine, rank, eval, kappa, vote, validate.

Settings come from defaults, then an optional key=value config file, then
command-line flags, in increasing precedence. Every command validates its
configuration and input paths before touching a potentially huge corpus,
and rerunning a command with unchanged inputs produces byte-identical
outputs regardless of the worker count.
"""

import argparse
import json
import logging
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import evalmetrics
from .collection import (
    fleiss_kappa,
    load_collection,
    load_expectations,
    majority_vote,
    read_annotations,
    read_pair_list,
    save_collection,
    validate_collection,
    GradedCollection,
    DiseaseEntry,
)
from .corpus import stream_corpus
from .embedding import load_vectors, rank_by_embedding
from .errors import (
    ConfigError,
    MissingAnnotator,
    PairListMismatch,
    SymrelError,
    UnknownConcept,
)
from .evalmetrics import (
    compare_runs,
    evaluate_run,
    load_run,
    report_json,
    write_run,
)
from .miner import (
    Regime,
    import_external_scores,
    index_scores,
    mine_corpus,
    rank_symptoms,
    save_index,
    save_scores,
)
from .tagger import ConceptMatcher, write_tags
from .vocab import load_vocabulary

logger = logging.getLogger(__name__)

REGIME_CHOICES = {regime.method: regime for regime in Regime}


@dataclass
class PipelineConfig:
    vocab: Path | None = None
    corpus: Path | None = None
    vectors: Path | None = None
    scores: Path | None = None
    collection: Path | None = None
    out: Path | None = None
    regime: str | None = None
    cutoffs: tuple[int, ...] = (5, 10)
    alpha: float = 0.01
    workers: int = 1
    skip_bad_records: bool = False
    k: int = 10
    ndcg_gain: str = evalmetrics.GAIN_LINEAR
    precision_denominator: str = evalmetrics.DENOMINATOR_FIXED


_PATH_KEYS = ("vocab", "corpus", "vectors", "scores", "collection", "out")
_CONFIG_KEYS = {f.name for f in fields(PipelineConfig)}


def _parse_config_file(path: Path) -> dict[str, str]:
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw_line in enumerate(handle, 1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _parse_cutoffs(raw: str) -> tuple[int, ...]:
    try:
        cutoffs = tuple(int(piece) for piece in raw.split(","))
    except ValueError:
        raise ConfigError(f"cutoffs must be comma-separated integers, got {raw!r}") from None
    if not cutoffs or any(k < 1 for k in cutoffs):
        raise ConfigError("cutoffs must be positive")
    if list(cutoffs) != sorted(set(cutoffs)):
        raise ConfigError("cutoffs must be strictly ascending")
    return cutoffs


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1"):
        return True
    if lowered in ("false", "0"):
        return False
    raise ConfigError(f"{key} must be true or false, got {raw!r}")


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge defaults, config-file values, and command-line overrides."""
    config = PipelineConfig()
    file_values: dict[str, str] = {}
    if getattr(args, "config", None) is not None:
        file_values = _parse_config_file(args.config)
    for key, raw in file_values.items():
        if key in _PATH_KEYS:
            setattr(config, key, Path(raw))
        elif key == "cutoffs":
            config.cutoffs = _parse_cutoffs(raw)
        elif key == "alpha":
            try:
                config.alpha = float(raw)
            except ValueError:
                raise ConfigError(f"alpha must be a number, got {raw!r}") from None
        elif key in ("workers", "k"):
            try:
                setattr(config, key, int(raw))
            except ValueError:
                raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
        elif key == "skip_bad_records":
            config.skip_bad_records = _parse_bool(raw, key)
        else:
            setattr(config, key, raw)
    for key in _PATH_KEYS + ("regime", "alpha", "workers", "k", "skip_bad_records",
                             "ndcg_gain", "precision_denominator"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    if getattr(args, "cutoffs", None) is not None:
        config.cutoffs = _parse_cutoffs(args.cutoffs)

    if not 0.0 < config.alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {config.alpha}")
    if config.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {config.workers}")
    if config.k < 1:
        raise ConfigError(f"k must be >= 1, got {config.k}")
    if config.regime is not None and config.regime not in REGIME_CHOICES:
        raise ConfigError(
            f"regime must be one of {sorted(REGIME_CHOICES)}, got {config.regime!r}"
        )
    if config.ndcg_gain not in (evalmetrics.GAIN_LINEAR, evalmetrics.GAIN_EXPONENTIAL):
        raise ConfigError(f"unknown ndcg_gain {config.ndcg_gain!r}")
    if config.precision_denominator not in (
        evalmetrics.DENOMINATOR_FIXED,
        evalmetrics.DENOMINATOR_RETRIEVED,
    ):
        raise ConfigError(f"unknown precision_denominator {config.precision_denominator!r}")
    return config


def _require(config: PipelineConfig, *keys: str) -> None:
    """Fail fast: every named setting must be present, input paths must exist."""
    for key in keys:
        value = getattr(config, key)
        if value is None:
            raise ConfigError(f"--{key} is required for this command")
        if key in _PATH_KEYS and key != "out" and not Path(value).is_file():
            raise ConfigError(f"--{key}: file not found: {value}")


def _cmd_tag(config: PipelineConfig, args: argparse.Namespace) -> int:
    _require(config, "vocab", "corpus", "out")
    vocabulary = load_vocabulary(config.vocab)
    matcher = ConceptMatcher(vocabulary)
    reader = stream_corpus(config.corpus, skip_bad_records=config.skip_bad_records)
    count = write_tags((matcher.tag_article(article) for article in reader), config.out)
    stats = reader.stats
    logger.info(
        "tagged %d article(s) (%d with keywords, %d skipped) -> %s",
        count, stats.with_keywords_count, stats.skipped_count, config.out,
    )
    return 0


def _cmd_mine(config: PipelineConfig, args: argparse.Namespace) -> int:
    _require(config, "vocab", "corpus", "regime", "out")
    vocabulary = load_vocabulary(config.vocab)
    regime = REGIME_CHOICES[config.regime]
    reader = stream_corpus(config.corpus, skip_bad_records=config.skip_bad_records)
    index = mine_corpus(reader, vocabulary, regime, workers=config.workers)
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    index_path = out_dir / f"index_{config.regime}.tsv"
    scores_path = out_dir / f"scores_{config.regime}.tsv"
    save_index(index, index_path)
    save_scores(index_scores(index), scores_path)
    stats = reader.stats
    logger.info(
        "mined %d pair(s) over %d symptom(s) from %d article(s) "
        "(%d with keywords, %d skipped) -> %s, %s",
        len(index.pair_counts), len(index.symptom_spread), stats.article_count,
        stats.with_keywords_count, stats.skipped_count, index_path, scores_path,
    )
    return 0


def _cmd_rank(config: PipelineConfig, args: argparse.Namespace) -> int:
    _require(config, "vocab")
    if (config.scores is None) == (config.vectors is None):
        raise ConfigError("rank needs exactly one of --scores or --vectors")
    if args.disease is None and config.out is None:
        raise ConfigError("rank needs --disease (print a table) or --out (write a run file)")
    vocabulary = load_vocabulary(config.vocab)
    rankings: dict[str, list[tuple[str, float]]] = {}
    if config.scores is not None:
        _require(config, "scores")
        imported = import_external_scores(config.scores, vocabulary, method="scores")
        by_disease: dict[str, list] = {}
        for score in imported.scores:
            by_disease.setdefault(score.disease_id, []).append(score)
        for disease_id in sorted(by_disease):
            rankings[disease_id] = rank_symptoms(by_disease[disease_id], config.k)
    else:
        _require(config, "vectors")
        table = load_vectors(config.vectors, vocabulary)
        for disease_id in sorted(vocabulary.disease_ids):
            if disease_id not in table.vectors:
                continue
            rankings[disease_id] = rank_by_embedding(
                table, disease_id, vocabulary, config.k
            )
    rankings = {d: ranking for d, ranking in rankings.items() if ranking}
    if args.disease is not None:
        if args.disease not in vocabulary.disease_ids:
            raise UnknownConcept(f"unknown disease id {args.disease!r}")
        print(f"# top-{config.k} symptoms for {args.disease}")
        print("rank\tsymptom_id\tname\tscore")
        for position, (symptom_id, score) in enumerate(
            rankings.get(args.disease, []), start=1
        ):
            name = vocabulary.concepts[symptom_id].canonical_name
            print(f"{position}\t{symptom_id}\t{name}\t{score!r}")
    if config.out is not None:
        write_run(rankings, config.out)
        logger.info("wrote rankings for %d disease(s) -> %s", len(rankings), config.out)
    return 0


def _cmd_eval(config: PipelineConfig, args: argparse.Namespace) -> int:
    _require(config, "collection")
    for run_path in args.runs:
        if not Path(run_path).is_file():
            raise ConfigError(f"run file not found: {run_path}")
    collection = load_collection(config.collection)
    runs = [load_run(path) for path in args.runs]
    labels = [run.label for run in runs]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"run labels (file stems) must be unique, got {labels}")
    reports = [
        evaluate_run(
            run,
            collection,
            config.cutoffs,
            ndcg_gain=config.ndcg_gain,
            precision_denominator=config.precision_denominator,
        )
        for run in runs
    ]
    comparison = compare_runs(
        reports,
        alpha=config.alpha,
        options={
            "ndcg_gain": config.ndcg_gain,
            "precision_denominator": config.precision_denominator,
        },
        inputs={
            "collection": str(config.collection),
            "runs": [str(path) for path in args.runs],
        },
    )
    markdown = comparison.to_markdown()
    sys.stdout.write(markdown)
    if config.out is not None:
        out_dir = Path(config.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.md").write_text(markdown, encoding="utf-8")
        (out_dir / "report.json").write_text(report_json(comparison), encoding="utf-8")
        logger.info("wrote %s and %s", out_dir / "report.md", out_dir / "report.json")
    return 0


def _cmd_kappa(config: PipelineConfig, args: argparse.Namespace) -> int:
    if args.annotations is None:
        raise ConfigError("--annotations is required for this command")
    if not Path(args.annotations).is_file():
        raise ConfigError(f"--annotations: file not found: {args.annotations}")
    records = read_annotations(args.annotations)
    report = fleiss_kappa(records)
    payload = {
        "overall_kappa": report.overall_kappa,
        "per_disease_kappa": report.per_disease_kappa,
        "per_annotator_primary_rate": report.per_annotator_primary_rate,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if config.out is not None:
        Path(config.out).write_text(text, encoding="utf-8")
    return 0


def _cmd_vote(config: PipelineConfig, args: argparse.Namespace) -> int:
    _require(config, "vocab", "out")
    if args.annotations is None or args.pairs is None:
        raise ConfigError("--annotations and --pairs are required for this command")
    for path in (args.annotations, args.pairs):
        if not Path(path).is_file():
            raise ConfigError(f"file not found: {path}")
    vocabulary = load_vocabulary(config.vocab)
    records = read_annotations(args.annotations)
    pairs = read_pair_list(args.pairs)
    for disease_id, symptom_id in pairs:
        if disease_id not in vocabulary.disease_ids:
            raise UnknownConcept(f"pair list disease {disease_id!r} not in vocabulary")
        if symptom_id not in vocabulary.symptom_ids:
            raise UnknownConcept(f"pair list symptom {symptom_id!r} not in vocabulary")
    listed = set(pairs)
    unlisted = sorted(
        {(r.disease_id, r.symptom_id) for r in records} - listed
    )
    if unlisted:
        raise PairListMismatch(
            f"annotations reference pair(s) outside the pair list: {unlisted[:5]}"
        )
    records_by_disease: dict[str, list] = {}
    for record in records:
        records_by_disease.setdefault(record.disease_id, []).append(record)
    annotated = {(r.disease_id, r.symptom_id) for r in records}
    pairs_by_disease: dict[str, list] = {}
    for pair in pairs:
        pairs_by_disease.setdefault(pair[0], []).append(pair)
    entries = []
    for disease_id in sorted(pairs_by_disease):
        for pair in sorted(pairs_by_disease[disease_id]):
            if pair not in annotated:
                raise MissingAnnotator(f"pair {pair!r} has no annotation records")
        judgments = majority_vote(records_by_disease[disease_id])
        entries.append(
            DiseaseEntry(
                disease_id=disease_id,
                name=vocabulary.concepts[disease_id].canonical_name,
                judgments=judgments,
            )
        )
    collection = GradedCollection(
        entries=entries,
        metadata={
            "annotations": Path(args.annotations).name,
            "pairs": Path(args.pairs).name,
        },
    )
    save_collection(collection, config.out)
    logger.info(
        "voted %d disease(s), %d judgment(s) -> %s",
        len(entries), collection.total_judgments(), config.out,
    )
    return 0


def _cmd_validate(config: PipelineConfig, args: argparse.Namespace) -> int:
    _require(config, "collection")
    expectations = None
    if args.expect is not None:
        if not Path(args.expect).is_file():
            raise ConfigError(f"--expect: file not found: {args.expect}")
        expectations = load_expectations(args.expect)
    collection = load_collection(config.collection)
    report = validate_collection(collection, expectations)
    print(str(report))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="key=value config file")
    common.add_argument("--vocab", type=Path, help="concept vocabulary TSV")
    common.add_argument("--corpus", type=Path, help="article corpus JSONL")
    common.add_argument("--vectors", type=Path, help="concept vector file")
    common.add_argument("--scores", type=Path, help="relation scores TSV")
    common.add_argument("--collection", type=Path, help="graded collection JSON")
    common.add_argument("--regime", choices=sorted(REGIME_CHOICES),
                        help="co-occurrence regime")
    common.add_argument("--cutoffs", help="comma-separated cutoffs (default 5,10)")
    common.add_argument("--alpha", type=float, help="significance level (default 0.01)")
    common.add_argument("--workers", type=int, help="worker processes (default 1)")
    common.add_argument("--skip-bad-records", dest="skip_bad_records",
                        action="store_const", const=True,
                        help="count and skip malformed corpus records")
    common.add_argument("--out", type=Path, help="output file or directory")

    parser = argparse.ArgumentParser(
        prog="symrel",
        description="Mine and evaluate graded disease-symptom relation rankings.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    tag = subparsers.add_parser("tag", parents=[common],
                                help="tag corpus sections with concept ids")
    tag.set_defaults(handler=_cmd_tag)

    mine = subparsers.add_parser("mine", parents=[common],
                                 help="count co-occurrence and score relations")
    mine.set_defaults(handler=_cmd_mine)

    rank = subparsers.add_parser("rank", parents=[common],
                                 help="rank symptoms per disease")
    rank.add_argument("--disease", help="print the top-k table for this disease")
    rank.add_argument("--k", type=int, help="ranking depth (default 10)")
    rank.set_defaults(handler=_cmd_rank)

    evaluate = subparsers.add_parser("eval", parents=[common],
                                     help="evaluate run files against a collection")
    evaluate.add_argument("runs", nargs="+", type=Path, help="run TSV files")
    evaluate.set_defaults(handler=_cmd_eval)

    kappa = subparsers.add_parser("kappa", parents=[common],
                                  help="annotator agreement report")
    kappa.add_argument("--annotations", type=Path, help="annotation records CSV")
    kappa.set_defaults(handler=_cmd_kappa)

    vote = subparsers.add_parser("vote", parents=[common],
                                 help="build a collection by majority voting")
    vote.add_argument("--annotations", type=Path, help="annotation records CSV")
    vote.add_argument("--pairs", type=Path, help="agreed pair list CSV")
    vote.set_defaults(handler=_cmd_vote)

    validate = subparsers.add_parser("validate", parents=[common],
                                     help="check a collection against expectations")
    validate.add_argument("--expect", type=Path, help="expected counts JSON")
    validate.set_defaults(handler=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = resolve_config(args)
        return args.handler(config, args)
    except SymrelError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
