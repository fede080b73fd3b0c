"""Figure 1: normalized throughput of the top 1000 sellers.

The paper plots the first 10 seconds of Single's Day 2021: a power-law
curve where the top 10 sellers carry 14.14% of total throughput. We
regenerate the series from the Zipf workload model the paper itself uses
for its lab experiments (§6.1) and check the power-law shape and the
top-10 concentration.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import run


def test_fig01_top_sellers_power_law(scale):
    result = run("fig01", scale)
    print(result.render())
    normalized = result.values["normalized"]
    top10_share = result.values["top10_share"]

    # Power-law shape: log-log slope of the top-1000 curve is clearly negative
    # and near -1/theta-ish territory.
    ranks = np.arange(1, len(normalized) + 1)
    slope = np.polyfit(np.log(ranks), np.log(normalized), 1)[0]
    assert slope < -0.5, f"expected power-law decay, slope={slope:.2f}"
    # Strong concentration at the head, same order as the paper's 14.14%.
    assert 0.05 < top10_share < 0.5
    # The head dominates: top seller >> 1000th seller.
    assert normalized[0] > 50
