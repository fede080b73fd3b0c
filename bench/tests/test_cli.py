"""The command as the driver runs it: one JSON result line, or a failure
where the program under test is missing."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from bench.metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]


def _run(cwd: Path, *arguments: str) -> subprocess.CompletedProcess:
    environment = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    return subprocess.run(
        [sys.executable, "-m", "bench", *arguments], cwd=cwd, env=environment,
        capture_output=True, text=True, timeout=170, check=False,
    )


def test_one_workload_prints_the_result_line_last():
    for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
        done = _run(ROOT, "--workload", "mixed_realtime", "--seed", "3",
                    "--seconds", "9", "--trace", str(trace), "--smoke")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [name for name, *_ in expected]
        units = {name: unit for name, unit, *_ in expected}
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))


def test_it_fails_without_printing_where_the_program_is_missing(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(tmp_path, "--workload", "ingest_skew", "--seed", "1",
                "--seconds", "9", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
    assert "missing" in done.stderr


def test_all_workloads_smoke_writes_results_and_spans(tmp_path):
    done = _run(ROOT, "--smoke", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    sets = json.loads((tmp_path / "results.json").read_text())["sets"]
    assert len(sets) == 1
    for workload, metrics in sets[0].items():
        assert len(metrics) == len(END_TO_END) + len(PER_LAYER)
        assert f"{workload} op_fail_ratio 0 ratio" in done.stdout
        first = json.loads((tmp_path / f"{workload}.spans.jsonl").read_text().splitlines()[0])
        assert set(first) == {"id", "parent", "request", "name", "layer", "start", "end", "measure"}
