"""``python -m bench``: run the benchmark.

With ``--workload`` it runs that one workload in this process and prints, as
the last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics, or with
``--trace 1`` the per-layer metrics. Without it, it runs every workload, both
passes, each in a fresh child process, and prints every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of timed phases per run (default 9)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass, print the per-layer metrics")
    parser.add_argument("--smoke", action="store_true", help="1/20 size, one repetition")
    parser.add_argument("--out", type=Path, help="directory for results.json and span files")
    parser.add_argument("--repeat", type=int, default=1, help="run this many sets")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two results.json files and exit")
    return parser.parse_args(argv)


def _run_one(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order must not differ between runs: start over with
        # string hashing fixed. exec replaces this process; nothing is left.
        os.execve(
            sys.executable,
            [sys.executable, "-m", "bench", *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    import_started = time.perf_counter()
    from bench import runner  # imports the program: timed, it is part of set-up

    import_seconds = time.perf_counter() - import_started
    from bench.metrics import E2E_UNITS, LAYER_UNITS
    from bench.workloads import REFERENCE_SECONDS, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    spans = args.out / f"{args.workload}.spans.jsonl" if args.out and args.trace else None
    outcome = runner.run_workload(
        args.workload, seed=args.seed,
        seconds=REFERENCE_SECONDS if args.seconds is None else args.seconds,
        trace=bool(args.trace), smoke=args.smoke, spans_path=spans,
        import_seconds=import_seconds,
    )
    for problem in outcome["problems"]:
        print(problem, file=sys.stderr)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    for name, value in outcome["values"].items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    for note in outcome["notes"]:
        print(f"{args.workload} {note}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome["values"].items()
        },
    }))
    return 0 if outcome["failed"] == 0 else 1


def _child(workload: str, trace: int, args: argparse.Namespace) -> dict:
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(args.seed), "--trace", str(trace)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    if args.out:
        command += ["--out", str(args.out)]
    done = subprocess.run(
        command, cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{workload} (trace {trace}) exited {done.returncode} without a result")
    return json.loads(lines[-1])


def _run_all(args: argparse.Namespace) -> int:
    from bench.compare import print_spread
    from bench.workloads import WORKLOADS

    sets = []
    correct = True
    for _ in range(args.repeat):
        results: dict[str, dict[str, float]] = {}
        for workload in WORKLOADS:
            results[workload] = {}
            attempted = failed = 0
            for trace in (0, 1):
                outcome = _child(workload, trace, args)
                correct &= outcome["correct"]
                attempted += outcome["attempted"]
                failed += outcome["failed"]
                for name, metric in outcome["metrics"].items():
                    print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
                    results[workload][name] = metric["value"]
            print(f"{workload} op_fail_ratio {failed / attempted:.6g} ratio")
        sets.append(results)
    if args.repeat > 1:
        print_spread(sets)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "results.json").write_text(
            json.dumps({"seed": args.seed, "sets": sets}, indent=1)
        )
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.compare:
        from bench.compare import compare_files

        return compare_files(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"the program under test is missing: no {ROOT / 'src' / 'repro'}")
    if args.workload:
        return _run_one(args)
    return _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
