"""Figure 1: normalized throughput of the top 1000 sellers.

The paper plots the first 10 seconds of Single's Day 2021: a power-law
curve where the top 10 sellers carry 14.14% of total throughput. We
regenerate the series from the Zipf workload model the paper itself uses
for its lab experiments (§6.1) and check the power-law shape and the
top-10 concentration.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from benchmarks.conftest import fmt, print_table
from repro.workload import ZipfSampler

SAMPLES = 200_000
TENANTS = 100_000


def sample_ranked_throughput(theta: float = 1.0, seed: int = 0) -> list:
    """Return per-seller sample counts, ranked descending (the Fig 1 series)."""
    sampler = ZipfSampler(TENANTS, theta, seed=seed)
    counts = Counter(sampler.sample_rank() for _ in range(SAMPLES))
    return sorted(counts.values(), reverse=True)


def test_fig01_top_sellers_power_law(benchmark):
    ranked = benchmark.pedantic(sample_ranked_throughput, rounds=1, iterations=1)
    total = sum(ranked)
    smallest = ranked[min(999, len(ranked) - 1)]
    normalized = [c / smallest for c in ranked[:1000]]

    rows = []
    for rank in (1, 10, 100, 1000):
        idx = min(rank, len(normalized)) - 1
        rows.append((rank, fmt(normalized[idx], 1)))
    top10_share = sum(ranked[:10]) / total
    print_table(
        "Figure 1: normalized throughput of top 1000 sellers (power law)",
        ["ranked seller", "normalized throughput"],
        rows,
    )
    print(f"top-10 sellers' share of total throughput: {top10_share:.2%} "
          "(paper: 14.14%)")

    # Power-law shape: log-log slope of the top-1000 curve is clearly negative
    # and near -1/theta-ish territory.
    ranks = np.arange(1, len(normalized) + 1)
    slope = np.polyfit(np.log(ranks), np.log(normalized), 1)[0]
    assert slope < -0.5, f"expected power-law decay, slope={slope:.2f}"
    # Strong concentration at the head, same order as the paper's 14.14%.
    assert 0.05 < top10_share < 0.5
    # The head dominates: top seller >> 1000th seller.
    assert normalized[0] > 50
