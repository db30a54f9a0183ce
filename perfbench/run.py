"""symrel pipeline benchmark: one workload, one seed, one closed loop.

Usage, from the root of a symrel checkout::

    python3 perfbench/run.py --workload sparse-w1 --seed 1 --seconds 30 --trace 0

The benchmark generates the workload's inputs from the seed
(``workloads.py``), then runs the real command line, ``python -m
symrel.cli``, one command at a time through the workload's command
sequence (``sparse-w1``: tag, mine kwd, mine fulltext; ``dense-w2``:
mine kwd, mine fulltext; ``rank-eval``: rank --vectors, rank --scores,
eval, vote, kappa), repeating the whole sequence until ``--seconds`` are
spent. Every output of every command is checked against references
built from the planted truth and ``tests/oracles.py`` (``reference.py``);
a command that exits nonzero or writes a wrong output counts as failed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` as
medians over the loop's samples, and prints each command's own figure
(``tag_articles_per_s`` and the like) where the workload runs it.
``--trace 1`` alternates untraced passes with traced ones, in which each
command runs through ``traced.py`` with spans around its calls into the
library, and reports the per-layer metrics, the command figures among
them. Times are totals over one pass of the command sequence, except
``cli.import_s`` (median per command) and ``miner.mine_corpus_*_s`` (the
whole mining stage, children included). A layer or command idle on a
workload reads 0.

The last line of standard output is the JSON result; the lines before it
give each metric's median, quartiles and sample count, the workload's
shape and the machine. The spans of the traced run are written to
``.bench_work/<workload>/spans.json``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tracing import durations, self_times

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 3
PROBE_REPEATS = 3
# A fixed job independent of symrel, shaped like a command: a fresh
# interpreter, the scipy import, and a pure-Python dict build. It runs
# before every untraced pass, and pipeline_rel divides the pass times by
# its median, which cancels the host's speed of the moment: on a shared
# 2-core VM whole runs go up to 1.5 times slower, and this job slows with
# them, while a pure-Python loop timed in-process does not.
REFERENCE_JOB = (
    "import scipy.stats\n"
    "trie = {}\n"
    "for i in range(150000):\n"
    "    node = trie\n"
    "    for ch in 'w%d' % (i * 7919 % 100003):\n"
    "        node = node.setdefault(ch, {})\n"
)
CHUNK_SIZE = 512  # mine_corpus's default chunk for workers > 1
TAGGING_STEPS = ("tag", "mine_kwd", "mine_fulltext")
# each command's own figure: its step and the units of work it does per run,
# or None for a wall time
COMMAND_METRICS = {
    "tag_articles_per_s": ("tag", lambda expected: expected.articles),
    "mine_kwd_articles_per_s": ("mine_kwd", lambda expected: expected.articles),
    "mine_fulltext_articles_per_s": ("mine_fulltext", lambda expected: expected.articles),
    "rank_vectors_diseases_per_s": ("rank_vectors", lambda expected: len(expected.vector_diseases)),
    "eval_s": ("eval", None),
}


@dataclass
class Step:
    name: str
    argv: list[str]  # symrel's arguments
    check: Callable[[], list[str]]  # output files against the references


@dataclass
class Outcome:
    wall: float
    rss_mb: float
    ok: bool
    trace: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class Launcher:
    """Runs commands through ``launcher.py``, a process started before any heavy import."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=_env(), cwd=ROOT, text=True,
        )

    def run(self, argv: list[str], log: Path) -> tuple[float, float, int]:
        """Wall time, peak RSS of the process tree's largest member, exit code."""
        self.process.stdin.write(json.dumps({"argv": argv, "log": str(log)}) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise SystemExit("perfbench: the launcher process died")
        answer = json.loads(line)
        return answer["wall"], answer["rss_mb"], answer["code"]

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()
        self.process.stdout.close()


def build_steps(inputs, expected, work: Path) -> list[Step]:
    """The workload's command sequence, in the order its shape names."""
    import reference

    shape = expected.truth.shape
    runs = work / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    mined = work / "mined"
    vocab, corpus = str(inputs.vocab), str(inputs.corpus)

    run_files = [str(runs / "vectors.tsv"), str(runs / "scores.tsv"), str(inputs.baseline)]
    steps = [
        Step("tag", ["tag", "--vocab", vocab, "--corpus", corpus,
                     "--skip-bad-records", "--out", str(work / "tags.jsonl")],
             lambda: reference.check_tags(expected, work / "tags.jsonl")),
    ]
    for regime in ("kwd", "fulltext"):
        steps.append(Step(
            f"mine_{regime}",
            ["mine", "--vocab", vocab, "--corpus", corpus, "--regime", regime, "--workers",
             str(shape.workers), "--skip-bad-records", "--out", str(mined)],
            lambda regime=regime: reference.check_mined(expected, mined, regime),
        ))
    steps += [
        Step("rank_vectors",
             ["rank", "--vocab", vocab, "--vectors", str(inputs.vectors), "--k", str(reference.K),
              "--out", run_files[0]],
             lambda: reference.check_vectors_run(expected, Path(run_files[0]))),
        Step("rank_scores",
             ["rank", "--vocab", vocab, "--scores", str(inputs.scores), "--k", str(reference.K),
              "--out", run_files[1]],
             lambda: reference.check_scores_run(expected, Path(run_files[1]))),
        Step("eval", ["eval", "--collection", str(inputs.collection), "--out", str(work / "eval"),
                      *run_files],
             lambda: reference.check_eval(expected, work / "eval")),
    ]
    if inputs.annotations:
        voted, kappa = work / "voted.json", work / "kappa.json"
        steps += [
            Step("vote", ["vote", "--vocab", vocab, "--annotations", str(inputs.annotations),
                          "--pairs", str(inputs.pairs), "--out", str(voted)],
                 lambda: reference.check_vote(expected, voted)),
            Step("kappa", ["kappa", "--annotations", str(inputs.annotations), "--out", str(kappa)],
                 lambda: reference.check_kappa(expected, kappa)),
        ]
    by_name = {step.name: step for step in steps}
    return [by_name[name] for name in shape.steps]


def run_step(launcher: Launcher, step: Step, work: Path, traced: bool, tally: Tally) -> Outcome:
    log = work / "logs" / f"{step.name}{'.traced' if traced else ''}.log"
    if traced:
        spec_path = work / "logs" / f"{step.name}.spec.json"
        trace_path = work / "logs" / f"{step.name}.trace.json"
        spec_path.write_text(json.dumps({"argv": step.argv, "trace_out": str(trace_path)}),
                             encoding="utf-8")
        trace_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "traced.py"), str(spec_path)]
    else:
        argv = [sys.executable, "-m", "symrel.cli", *step.argv]
    wall, rss, code = launcher.run(argv, log)
    tally.attempted += 1
    if code != 0:
        problems = [f"{step.name} exited with {code}; see {log}"]
    else:
        try:
            problems = step.check()
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"{step.name}: output unreadable: {exc!r}"]
    if problems:
        tally.failed += 1
        tally.problems.extend(f"{step.name}: {p}" for p in problems)
    trace = json.loads(trace_path.read_text(encoding="utf-8")) if traced and code == 0 else None
    return Outcome(wall, rss, not problems, trace)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(name: str, unit: str, values: list[float], bound: float | None) -> float:
    """Print a metric's median, quartiles and sample count; return the median."""
    q1, median, q3 = quartiles(values)
    spread = (q3 - q1) / median if median else 0.0
    flag = f"  SPREAD {spread:.3f} > BOUND {bound}" if bound is not None and spread > bound else ""
    print(f"{name:34s} {median:14.6g} {unit:10s} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}{flag}")
    return median


def end_to_end(passes: list[dict[str, Outcome]], expected) -> dict[str, list[float]]:
    """Samples of the whole-pass metrics and of each command's figure, one per pass."""
    samples: dict[str, list[float]] = {}
    for outcomes in passes:
        for metric, (step, units) in COMMAND_METRICS.items():
            if step in outcomes and outcomes[step].ok:
                wall = outcomes[step].wall
                samples.setdefault(metric, []).append(units(expected) / wall if units else wall)
        if all(o.ok for o in outcomes.values()):
            samples.setdefault("pipeline_s", []).append(sum(o.wall for o in outcomes.values()))
            samples.setdefault("peak_rss_mb", []).append(max(o.rss_mb for o in outcomes.values()))
    return samples


def per_layer(traced: list[dict[str, Outcome]], untraced: list[dict[str, Outcome]],
              probes: dict[str, list[float]], names: list[str]) -> dict[str, list[float]]:
    """Samples of each per-layer metric, one per traced pass; command figures per untraced pass."""
    samples: dict[str, list[float]] = {}
    untraced_walls = [sum(o.wall for o in outcomes.values()) for outcomes in untraced
                      if all(o.ok for o in outcomes.values())]
    for outcomes in traced:
        if not all(o.ok and o.trace for o in outcomes.values()):
            continue
        own: dict[str, float] = {}
        full: dict[str, float] = {}
        counts: dict[str, dict[str, float]] = {}
        imports, overhead = [], 0.0
        for step, outcome in outcomes.items():
            spans = outcome.trace["spans"]
            mine = self_times(spans)
            for name, value in mine.items():
                own[name] = own.get(name, 0.0) + value
            for name, value in durations(spans).items():
                full[name] = full.get(name, 0.0) + value
            imports.append(mine["cli.import"])
            overhead += outcome.wall - sum(mine.values())
            counts[step] = outcome.trace["counters"]

        def count(step: str, key: str) -> float:
            return counts.get(step, {}).get(key, 0)

        def total(key: str) -> float:
            return sum(c.get(key, 0) for c in counts.values())

        m = {
            "cli.import_s": statistics.median(imports),
            "cli.import_rss_mb": statistics.median(probes["import_rss_mb"]),
            "cli.scipy_import_s": statistics.median(probes["scipy_import_s"]),
            "cli.overhead_s": overhead,
            "trace.overhead_ratio": _ratio(sum(o.wall for o in outcomes.values()),
                                           statistics.median(untraced_walls) if untraced_walls else 0),
        }
        m["miner.mine_corpus_kwd_s"] = full.get("miner.mine_corpus_kwd", 0.0)
        m["miner.mine_corpus_fulltext_s"] = full.get("miner.mine_corpus_fulltext", 0.0)
        # every other "<span>_s" metric is that span's self time
        for name in names:
            if name.endswith("_s") and name not in m and name not in COMMAND_METRICS:
                m[name] = own.get(name[:-2], 0.0)
        # corpus-wide counts come from mine --regime fulltext, which reads the whole corpus
        articles = count("mine_fulltext", "corpus.articles")
        m["vocab.synonyms"] = count("mine_fulltext", "vocab.synonyms")
        m["vocab.normalize_mb_per_s"] = _ratio(total("vocab.normalized_bytes") / 1e6,
                                               m["vocab.normalize_s"])
        m["corpus.mb_per_s"] = _ratio(total("corpus.bytes") / 1e6, m["corpus.read_s"])
        for key in ("articles", "with_keywords", "skipped"):
            m[f"corpus.{key}"] = count("mine_fulltext", f"corpus.{key}")
        for key in ("hits_title", "hits_keywords", "hits_body"):
            m[f"tagger.{key}"] = count("mine_fulltext", f"tagger.{key}")
        relevant = count("mine_fulltext", "miner.relevant_articles")
        m["tagger.body_useful_ratio"] = _ratio(relevant, articles)
        m["tagger.kwd_useful_ratio"] = _ratio(m["corpus.with_keywords"], 3 * articles)
        m["miner.chunks"] = count("mine_fulltext", "miner.chunks")
        m["miner.relevant_articles"] = relevant
        m["miner.pairs_kwd"] = count("mine_kwd", "miner.pairs")
        m["miner.pairs_fulltext"] = count("mine_fulltext", "miner.pairs")
        m["miner.symptoms_with_spread"] = count("mine_fulltext", "miner.symptoms_with_spread")
        for key in ("vectors_kept", "vectors_skipped", "cosines"):
            m[f"embedding.{key}"] = count("rank_vectors", f"embedding.{key}")
        m["embedding.cosines_per_s"] = _ratio(m["embedding.cosines"], m["embedding.rank_s"])
        m["evalmetrics.ttests"] = count("eval", "evalmetrics.ttests")
        m["collection.records"] = count("kappa", "collection.records")
        for name, value in m.items():
            samples.setdefault(name, []).append(value)
    return samples


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def check_trace_counters(traced: list[dict[str, Outcome]], expected, tally: Tally) -> None:
    """Counts the traced commands saw must match the planted truth."""
    truth = expected.truth
    shape = truth.shape
    mined = {"corpus.articles": expected.articles, "corpus.skipped": shape.bad_lines,
             "corpus.with_keywords": truth.with_keywords,
             "miner.chunks": 1 if shape.workers == 1 else -(-expected.articles // CHUNK_SIZE)}
    want = {
        "tag": {"corpus.articles": expected.articles, "corpus.skipped": shape.bad_lines},
        "mine_kwd": {**mined, "miner.pairs": len(expected.counts["kwd"])},
        "mine_fulltext": {**mined, "miner.pairs": len(expected.counts["fulltext"]),
                          "miner.relevant_articles": expected.relevant},
        "rank_vectors": {"embedding.vectors_kept": expected.vectors_kept,
                         "embedding.vectors_skipped": truth.vectors_skipped,
                         "embedding.cosines": expected.cosine_count},
        "eval": {"evalmetrics.ttests": len(expected.ttests)},
        "vote": {"collection.records": len(truth.annotations)},
        "kappa": {"collection.records": len(truth.annotations)},
    }
    for outcomes in traced:
        for step, outcome in outcomes.items():
            if not outcome.trace:
                continue
            counters = outcome.trace["counters"]
            for key, value in want.get(step, {}).items():
                if counters.get(key) != value:
                    tally.failed += 1
                    tally.problems.append(
                        f"traced {step}: {key}={counters.get(key)}, planted {value}")


def probe(launcher: Launcher, code: list[str], log: Path) -> tuple[float, float]:
    wall, rss, status = launcher.run([sys.executable, "-c", *code], log)
    if status != 0:
        raise SystemExit(f"perfbench: probe {code[0]!r} failed; see {log}")
    return wall, rss


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in config["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "symrel" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print("perfbench: run from the root of a symrel checkout "
              "(src/symrel/cli.py and tests/oracles.py not found)", file=sys.stderr)
        return 2
    launcher = Launcher()  # before numpy and the references grow this process
    try:
        return measure(args, config, launcher)
    finally:
        launcher.close()


def measure(args: argparse.Namespace, config: dict, launcher: Launcher) -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "tests"), str(ROOT / "src")]
    import reference
    import workloads

    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    inputs, truth = workloads.generate(args.workload, args.seed, work / "inputs")
    expected = reference.Expected(truth)
    steps = build_steps(inputs, expected, work)
    tally = Tally()

    # fill the bytecode cache first: users do not pay compilation on every run
    if launcher.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "symrel")],
                    work / "logs" / "compile.log")[2] != 0:
        raise SystemExit(f"perfbench: compiling src/symrel failed; see {work / 'logs' / 'compile.log'}")
    setup_code = "import sys, symrel.cli\nfrom symrel.vocab import load_vocabulary\n"
    if set(truth.shape.steps) & set(TAGGING_STEPS):
        setup_code += "from symrel.tagger import ConceptMatcher\nConceptMatcher(load_vocabulary(sys.argv[1]))"
    else:
        setup_code += "load_vocabulary(sys.argv[1])"
    setups: list[float] = []

    def set_up() -> float:
        """Time set-up from a fresh interpreter; returns the wall time spent."""
        setups.append(probe(launcher, [setup_code, str(inputs.vocab)], work / "logs" / "setup.log")[0])
        return setups[-1]

    probes: dict[str, list[float]] = {"import_rss_mb": [], "import_s": [], "scipy_import_s": [],
                                      "scipy_rss_mb": []}
    if args.trace:
        for _ in range(PROBE_REPEATS):
            wall, rss = probe(launcher, ["import symrel.cli"], work / "logs" / "probe.log")
            probes["import_s"].append(wall)
            probes["import_rss_mb"].append(rss)
            wall, rss = probe(launcher, ["import scipy.stats"], work / "logs" / "probe.log")
            probes["scipy_import_s"].append(wall)
            probes["scipy_rss_mb"].append(rss)

    # closed loop: one command at a time, in whole passes over the
    # sequence; traced runs alternate untraced and traced passes. A new pass
    # starts while at least half an average pass fits in --seconds. Every
    # untraced pass starts with the reference job, and the first ones with
    # a set-up probe too; --seconds does not count either, and set-up
    # samples are spread over the run like the others.
    references: list[float] = []
    untraced: list[dict[str, Outcome]] = []
    traced: list[dict[str, Outcome]] = []
    start = time.perf_counter()
    paused = 0.0

    def left() -> float:
        return args.seconds - (time.perf_counter() - start - paused)

    while True:
        is_traced = bool(args.trace) and len(traced) < len(untraced)
        passes = len(untraced) + len(traced)
        if passes and (traced or not args.trace) and left() < (args.seconds - left()) / passes / 2:
            break
        if not args.trace:
            if len(setups) < SETUP_REPEATS:
                paused += set_up()
            references.append(probe(launcher, [REFERENCE_JOB], work / "logs" / "reference.log")[0])
            paused += references[-1]
        outcomes = {step.name: run_step(launcher, step, work, is_traced, tally) for step in steps}
        (traced if is_traced else untraced).append(outcomes)
    measured = time.perf_counter() - start - paused
    while not args.trace and len(setups) < SETUP_REPEATS:
        set_up()
    check_trace_counters(traced, expected, tally)

    metric_defs = config["per_layer"] if args.trace else config["end_to_end"]
    if args.trace:
        samples = per_layer(traced, untraced, probes, [d["name"] for d in metric_defs])
        samples.update((name, values) for name, values in end_to_end(untraced, expected).items()
                       if name in COMMAND_METRICS or name == "pipeline_s")
        spans = {f"{i}:{step}": o.trace["spans"] for i, it in enumerate(traced)
                 for step, o in it.items() if o.trace}
        (work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        samples = end_to_end(untraced, expected)
        samples["setup_s"] = setups
        reference = statistics.median(references)
        samples["pipeline_rel"] = [wall / reference for wall in samples.get("pipeline_s", [])]

    shape = truth.shape
    facts = {
        "workload": args.workload, "seed": args.seed, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "workers": shape.workers,
        "articles": expected.articles, "corpus_bytes": inputs.corpus.stat().st_size,
        "bad_lines": shape.bad_lines, "relevant_share": round(expected.relevant / expected.articles, 4),
        "with_keywords_share": round(truth.with_keywords / expected.articles, 4),
        "pairs_kwd": len(expected.counts["kwd"]), "pairs_fulltext": len(expected.counts["fulltext"]),
        "chunks": 1 if shape.workers == 1 else -(-expected.articles // CHUNK_SIZE),
        "steps": list(shape.steps), "collection_diseases": len(truth.collection),
        "vectors_kept": expected.vectors_kept, "vectors_skipped": truth.vectors_skipped,
        "cosines": expected.cosine_count, "diseases": shape.diseases, "symptoms": shape.symptoms,
        "passes": len(untraced), "traced_passes": len(traced),
        "measured_s": round(measured, 3), "setup_repeats": SETUP_REPEATS,
        "reference_s": round(statistics.median(references), 4) if references else None,
    }
    print("shape " + json.dumps(facts))
    if probes["import_s"]:
        print("import probe: symrel.cli %.3f s %.1f MB; scipy.stats %.3f s %.1f MB" % (
            statistics.median(probes["import_s"]), statistics.median(probes["import_rss_mb"]),
            statistics.median(probes["scipy_import_s"]), statistics.median(probes["scipy_rss_mb"])))
    for step, outcome in (traced[-1].items() if traced else ()):
        if outcome.trace:
            own = self_times(outcome.trace["spans"])
            layers = sum(v for k, v in own.items() if k != "cli.import")
            print(f"account {step:13s} wall {outcome.wall:.3f} s = cli.import {own['cli.import']:.3f}"
                  f" + layers {layers:.3f} + cli.overhead {outcome.wall - own['cli.import'] - layers:.3f}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"error_rate {error_rate:.4f} ratio ({tally.failed} of {tally.attempted} commands)")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    metrics = {}
    for definition in metric_defs:
        name, unit = definition["name"], definition["unit"]
        median = report(name, unit, samples.get(name) or [0.0], definition.get("bound"))
        metrics[name] = {"value": median, "unit": unit}
    if not args.trace:
        # pipeline_s and each command's own figure, where the workload runs the
        # command; the traced run reports them as per-layer metrics
        for definition in config["per_layer"]:
            if definition["name"] in samples:
                report(definition["name"], definition["unit"], samples[definition["name"]], None)
    correct = tally.failed == 0 and bool(untraced)
    (work / "result.json").write_text(json.dumps(
        {"shape": facts, "error_rate": error_rate, "correct": correct, "samples": samples,
         "problems": tally.problems}, indent=1), encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
