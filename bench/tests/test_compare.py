"""Verdicts of ``--compare`` and the spread report."""

import json

from bench.compare import compare_files, print_spread, quartiles, spread, verdict


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [v * 1.02 for v in steady], "lower", 0.10) == "within"
    assert verdict(steady, [v * 1.20 for v in steady], "lower", 0.10) == "worse"
    assert verdict(steady, [v * 0.80 for v in steady], "lower", 0.10) == "better"
    assert verdict(steady, [v * 0.80 for v in steady], "higher", 0.10) == "worse"
    assert verdict(steady, [v * 1.20 for v in steady], "higher", 0.10) == "better"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert spread(noisy) > 0.10
    assert verdict(noisy, [v * 2 for v in noisy], "lower", 0.10) == "unresolved"
    assert verdict([100.0], [104.0], "lower", 0.10) == "within"  # one run each


def test_quartiles_of_one_value():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert spread([3.0]) == 0.0


def _write(path, factor):
    sets = [{"query_cold": {"ops_per_s": 1000.0 * factor + i, "latency_p50_ms": 1.0 + 0.001 * i,
                            "query.parse.us": 50.0}} for i in range(3)]
    path.write_text(json.dumps({"seed": 1, "sets": sets}))


def test_compare_files_reports_worse_and_fails(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write(a, 1.0)
    _write(b, 0.6)
    assert compare_files(a, a) == 0
    assert "worse" not in capsys.readouterr().out
    assert compare_files(a, b) == 1
    out = capsys.readouterr().out
    assert "query_cold" in out and "ops_per_s" in out and "worse" in out
    assert "query.parse.us" not in out  # per-layer metrics have no bound
    print_spread(json.loads(a.read_text())["sets"])
    assert "query.parse.us" in capsys.readouterr().out
