"""Run the benchmark over several seeds and report how steady each metric is.

Usage, from the root of a symrel checkout::

    python3 perfbench/steadiness.py --workload dense-w2 --runs 10 [--first-seed 1] [--trace 0]

For each metric it prints the median and quartiles of the per-run values
(``statistics.quantiles(values, n=4)``), the sample count and the spread,
(q3 - q1) / median. A spread above the metric's bound in
``BENCHMARK.json`` is flagged ``OVER BOUND``; one above a third of the
bound is flagged ``over bound/3``. The raw result lines are appended to
``.bench_work/steadiness-<workload>.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    definitions = config["per_layer"] if args.trace else config["end_to_end"]
    status = 0
    for workload in args.workload:
        results = []
        raw = ROOT / ".bench_work" / f"steadiness-{workload}.jsonl"
        raw.parent.mkdir(parents=True, exist_ok=True)
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, *config["command"][1:], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            result["seed"] = seed
            with open(raw, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(result) + "\n")
            if done.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})\n{done.stderr[-2000:]}")
                status = 1
                continue
            results.append(result)
        print(f"== {workload}: {len(results)} runs")
        for definition in definitions:
            name = definition["name"]
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else 0.0
            bound = definition.get("bound")
            flag = ""
            if bound is not None:
                flag = "OVER BOUND" if spread > bound else "over bound/3" if spread > bound / 3 else ""
            print(f"{name:34s} median {median:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} n {len(values):2d} "
                  f"spread {spread:6.3f} bound {bound if bound is not None else '-'} {flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
