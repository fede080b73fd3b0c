"""``BENCHMARK.json`` says what the code measures, within the driver's limits."""

import json
import re
from pathlib import Path

from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import REFERENCE_SECONDS, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_manifest_matches_the_code():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["bench"]
    assert manifest["run_seconds"] == REFERENCE_SECONDS
    assert manifest["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert manifest["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
    ]


def test_manifest_is_within_the_limits():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    runs = 4 + 22 * len(manifest["workloads"])
    assert runs * 30 < 3420  # a run takes under 30 s here, set-up included
