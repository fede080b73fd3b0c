"""Check a benchmark run's exact counts against ``BENCH_COUNTS.json``.

    python -m bench --smoke --out DIR
    python tools/check_bench_counts.py DIR

Reads ``DIR/results.json`` (never the run's stdout, which prints six
significant figures) and compares, for every set in it, each count that
``BENCH_COUNTS.json`` at the repository root names per workload. Counts
are compared exactly; clocks are never compared. Prints one line per
difference and exits 1 if any count moved.
"""

from __future__ import annotations

import json
import sys
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


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    results = json.loads((Path(args[0]) / "results.json").read_text())
    expected = json.loads((ROOT / "BENCH_COUNTS.json").read_text())
    problems = differences(results, expected)
    for problem in problems:
        print(problem)
    checked = sum(len(counts) for counts in expected["workloads"].values())
    print(f"{checked} counts x {len(results['sets'])} set(s): "
          f"{'ok' if not problems else f'{len(problems)} differ'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
