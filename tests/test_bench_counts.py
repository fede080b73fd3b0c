"""The exact-counts gate: ``tools/check_bench_counts.py`` passes a smoke
run that reads ``BENCH_COUNTS.json`` and fails one whose counts moved."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = json.loads((ROOT / "BENCH_COUNTS.json").read_text())


def _check(tmp_path: Path, values: dict) -> subprocess.CompletedProcess:
    results = {"seed": COUNTS["seed"], "sets": [values]}
    (tmp_path / "results.json").write_text(json.dumps(results))
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_bench_counts.py"), str(tmp_path)],
        capture_output=True, text=True, check=False,
    )


def _pinned_run() -> dict:
    # A real results set carries clocks beside the counts; they are ignored.
    return {
        workload: dict(counts, ops_per_s=1234.5, latency_p50_ms=0.7)
        for workload, counts in COUNTS["workloads"].items()
    }


def test_the_pinned_counts_pass(tmp_path):
    done = _check(tmp_path, _pinned_run())
    assert done.returncode == 0, done.stdout


def test_one_fewer_commit_fails(tmp_path):
    values = _pinned_run()
    values["ingest_skew"]["consensus.commits"] -= 1
    done = _check(tmp_path, values)
    assert done.returncode == 1
    assert "ingest_skew consensus.commits" in done.stdout


def test_one_more_posting_fails(tmp_path):
    values = _pinned_run()
    # The smallest move the per-row ratio can make.
    ratio = values["query_cold"]["query.postings_per_row"]
    values["query_cold"]["query.postings_per_row"] = math.nextafter(ratio, math.inf)
    done = _check(tmp_path, values)
    assert done.returncode == 1
    assert "query_cold query.postings_per_row" in done.stdout


def test_spans_mode_names_what_moved(tmp_path):
    run, ref = tmp_path / "run", tmp_path / "ref"
    for directory, names in ((run, ["query", "cache.result_get"]),
                             (ref, ["query", "cache.result_get", "cache.request_get"])):
        directory.mkdir()
        for workload in COUNTS["workloads"]:
            lines = [json.dumps({"id": i, "name": name}) for i, name in enumerate(names)]
            (directory / f"{workload}.spans.jsonl").write_text("\n".join(lines) + "\n")
    results = {"seed": COUNTS["seed"], "sets": [_pinned_run()]}
    (run / "results.json").write_text(json.dumps(results))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_bench_counts.py"), str(run),
         "--spans", str(ref)],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stdout
    assert "query_cold spans 3 -> 2 (-1)" in done.stdout
    assert "  cache.request_get 1 -> 0 (-1)" in done.stdout
    assert "  query " not in done.stdout  # equal counts are not printed
