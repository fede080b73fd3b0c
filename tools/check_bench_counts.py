"""Check a benchmark run's exact counts against ``BENCH_COUNTS.json``.

    python -m bench --smoke --out DIR
    python tools/check_bench_counts.py DIR [--spans REF_DIR]

Reads ``DIR/results.json`` (never the run's stdout, which prints six
significant figures) and compares, for every set in it, each count that
``BENCH_COUNTS.json`` at the repository root names per workload. Counts
are compared exactly; clocks are never compared. Prints one line per
difference and exits 1 if any count moved.

With ``--spans REF_DIR`` it first explains a moved ``trace.spans`` by
name: for each workload it prints, per span name, how many more or fewer
spans ``DIR/<workload>.spans.jsonl`` holds than ``REF_DIR``'s (a smoke
run of another tree, made the same way). Names whose counts are equal are
not printed; ``runtime.gc`` spans move with allocation alone.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def differences(results: dict, expected: dict) -> list[str]:
    """Every way *results* (a ``results.json`` document) departs from the
    *expected* counts; empty when they all match."""
    problems = []
    if results.get("seed") != expected["seed"]:
        problems.append(f"seed: expected {expected['seed']}, got {results.get('seed')}")
    for index, values in enumerate(results["sets"]):
        for workload, counts in expected["workloads"].items():
            measured = values.get(workload, {})
            for name, value in counts.items():
                got = measured.get(name)
                if got != value:
                    problems.append(
                        f"set {index} {workload} {name}: expected {value!r}, got {got!r}"
                    )
    return problems


def span_names(path: Path) -> Counter:
    """How many spans of each name a ``.spans.jsonl`` file holds."""
    with open(path, encoding="utf-8") as lines:
        return Counter(json.loads(line)["name"] for line in lines)


def span_differences(run_dir: Path, ref_dir: Path, workloads) -> list[str]:
    """Per workload, the run's and the reference's span totals, then each
    span name whose count differs between them."""
    lines = []
    for workload in workloads:
        run = span_names(run_dir / f"{workload}.spans.jsonl")
        ref = span_names(ref_dir / f"{workload}.spans.jsonl")
        lines.append(f"{workload} spans {ref.total()} -> {run.total()} "
                     f"({run.total() - ref.total():+d})")
        lines.extend(f"  {name} {ref[name]} -> {run[name]} ({run[name] - ref[name]:+d})"
                     for name in sorted(run | ref) if run[name] != ref[name])
    return lines


def main() -> int:
    args = sys.argv[1:]
    ref_dir = None
    if len(args) == 3 and args[1] == "--spans":
        ref_dir = Path(args[2])
        args = args[:1]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    expected = json.loads((ROOT / "BENCH_COUNTS.json").read_text())
    if ref_dir is not None:
        for line in span_differences(Path(args[0]), ref_dir, expected["workloads"]):
            print(line)
    results = json.loads((Path(args[0]) / "results.json").read_text())
    problems = differences(results, expected)
    for problem in problems:
        print(problem)
    checked = sum(len(counts) for counts in expected["workloads"].values())
    print(f"{checked} counts x {len(results['sets'])} set(s): "
          f"{'ok' if not problems else f'{len(problems)} differ'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
