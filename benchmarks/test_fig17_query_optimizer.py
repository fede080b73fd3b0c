"""Figure 17: average (a) and quantile (b) query latencies of the top 100
tenants with and without ESDB's query optimizer.

Paper setup: 1000 random multi-column queries per top-100 tenant (3–10
columns each), single-threaded client. Paper shape: the optimizer improves
average latency 2.41x overall and up to 5.08x for the largest tenant; the
99th-percentile stays under 200 ms.

This reproduction times the same query mix against the real engine with the
rule-based optimizer enabled vs disabled (disabled = Lucene's rigid
one-index-search-per-predicate plan, Figure 7).
"""

from __future__ import annotations

import statistics

import pytest

from repro.experiments import run


@pytest.fixture(scope="module")
def fig17(scale):
    result = run("fig17", scale)
    print(result.render())
    return result.values


def test_fig17a_average_latency_with_vs_without_optimizer(fig17, clocks):
    with_opt, without_opt = fig17["with"], fig17["without"]
    speedups = list(fig17["speedups"].values())
    overall = statistics.fmean(without_opt["pooled"]) / statistics.fmean(with_opt["pooled"])

    # Optimizer wins for the hot tenants (where posting lists are big).
    assert overall > 1.2
    top5 = [without_opt["per_tenant"][t] / with_opt["per_tenant"][t] for t in range(1, 6)]
    assert max(top5) > 1.5
    # The optimizer never makes any tenant dramatically worse.
    assert min(speedups) > 0.5


def test_fig17b_latency_quantiles(fig17, clocks):
    with_opt, without_opt = fig17["quantiles"]["with"], fig17["quantiles"]["without"]
    for q in (0.50, 0.90, 0.99):
        assert with_opt[q] <= without_opt[q] * 1.1, q
    # Paper: p99 under 200 ms with the optimizer (our corpus is much smaller,
    # so this bound is comfortable but still meaningful as a regression gate).
    assert with_opt[0.99] < 200.0
