"""Compare two result files written by ``python -m bench --out DIR``.

One row per workload and end-to-end metric: both medians, the ratio B / A,
the metric's bound, and a verdict. ``worse`` means B's median is worse than
A's by more than the bound; ``unresolved`` means either side's own run-to-run
spread (interquartile range over median, from ``--repeat`` sets) is wider
than the bound, so the comparison cannot tell.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from bench.metrics import BETTER, BOUNDS, E2E_UNITS


def load(path: Path) -> list[dict[str, dict[str, float]]]:
    """The sets of a result file: ``[{workload: {metric: value}}, ...]``."""
    return json.loads(Path(path).read_text())["sets"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``better`` / ``within`` / ``worse`` / ``unresolved`` for B against A."""
    noise = max(spread(a), spread(b))
    if noise > bound:
        return "unresolved"
    base = statistics.median(a)
    change = (statistics.median(b) - base) / base  # positive: B is larger
    worsening = change if better == "lower" else -change
    if worsening > bound:
        return "worse"
    if worsening < 0 and -worsening > noise:
        return "better"
    return "within"


def _column(sets: list[dict], workload: str, metric: str) -> list[float]:
    return [s[workload][metric] for s in sets if metric in s.get(workload, {})]


def compare_files(path_a: Path, path_b: Path) -> int:
    """Print the comparison; returns 1 when any row is ``worse``."""
    sets_a, sets_b = load(path_a), load(path_b)
    print(f"{'workload':18s} {'metric':26s} {'A':>12s} {'B':>12s} {'B/A':>8s} "
          f"{'bound':>6s} verdict")
    worse = 0
    for workload in sets_a[0]:
        for metric in E2E_UNITS:
            a = _column(sets_a, workload, metric)
            b = _column(sets_b, workload, metric)
            if not a or not b:
                continue
            outcome = verdict(a, b, BETTER[metric], BOUNDS[metric])
            worse += outcome == "worse"
            median_a, median_b = statistics.median(a), statistics.median(b)
            print(f"{workload:18s} {metric:26s} {median_a:12.5g} {median_b:12.5g} "
                  f"{median_b / median_a:8.3f} {BOUNDS[metric]:6.2f} {outcome}"
                  f"  (A = {median_a:.5g} {E2E_UNITS[metric]})")
    return 1 if worse else 0


def print_spread(sets: list[dict]) -> None:
    """Median and quartiles per workload and metric over repeated sets."""
    print(f"{'workload':18s} {'metric':40s} {'q1':>12s} {'median':>12s} {'q3':>12s} spread")
    for workload in sets[0]:
        for metric in sets[0][workload]:
            values = _column(sets, workload, metric)
            q1, median, q3 = quartiles(values)
            print(f"{workload:18s} {metric:40s} {q1:12.5g} {median:12.5g} {q3:12.5g} "
                  f"{spread(values):.3f}")
