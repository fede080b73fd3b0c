"""Tests for the paper-scale analytic query-throughput model."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.routing import DoubleHashRouting, DynamicSecondaryHashRouting, HashRouting
from repro.sim import (
    QueryCostModel,
    commit_paper_scale_rules,
    model_query_throughput,
)

N = 512


class TestQueryCostModel:
    def test_work_grows_with_docs_until_limit_bound(self):
        cost = QueryCostModel()
        assert cost.work(10_000, 1) > cost.work(1_000, 1)

    def test_limit_caps_scan_cost(self):
        cost = QueryCostModel(limit=100, fetch_factor=200)
        assert cost.work(1e9, 1) == cost.work(1e8, 1)

    def test_fanout_overhead_hurts_small_tenants(self):
        cost = QueryCostModel()
        assert cost.work(50, 8) > cost.work(50, 1)

    def test_fanout_cost_modest_for_large_tenants(self):
        """Scan-dominated regime: fan-out adds only a constant."""
        cost = QueryCostModel()
        big = 1e6
        assert cost.work(big, 32) < cost.work(big, 1) * 1.5

    def test_invalid_fanout(self):
        with pytest.raises(ConfigurationError):
            QueryCostModel().work(10, 0)

class TestCommitPaperScaleRules:
    def test_only_head_tenants_get_rules(self):
        policy = DynamicSecondaryHashRouting(N)
        committed = commit_paper_scale_rules(policy, num_tenants=100_000)
        assert 0 < committed < 1000  # a tiny fraction of tenants
        assert policy.rules.max_offset(1) > 1
        assert policy.rules.max_offset(50_000) == 1

    def test_offsets_monotone_decreasing_in_rank(self):
        policy = DynamicSecondaryHashRouting(N)
        commit_paper_scale_rules(policy, num_tenants=100_000)
        offsets = [policy.rules.max_offset(rank) for rank in (1, 10, 100, 1000)]
        assert offsets == sorted(offsets, reverse=True)


class TestModelShapes:
    """The Figure 16 conclusions must hold across the model's constants."""

    def _results(self, cost=None):
        dynamic = DynamicSecondaryHashRouting(N)
        commit_paper_scale_rules(dynamic)
        policies = {
            "hashing": HashRouting(N),
            "double": DoubleHashRouting(N, offset=8),
            "dynamic": dynamic,
        }
        return {
            name: model_query_throughput(policy, cost=cost)
            for name, policy in policies.items()
        }

    def test_small_tenants_double_hashing_worst(self):
        results = self._results()
        tail = -1  # rank 2000
        assert results["double"].qps[tail] < results["hashing"].qps[tail]
        assert results["double"].qps[tail] < results["dynamic"].qps[tail]

    def test_small_tenants_dynamic_matches_hashing(self):
        results = self._results()
        tail = -1
        ratio = results["dynamic"].qps[tail] / results["hashing"].qps[tail]
        assert ratio == pytest.approx(1.0, rel=0.01)
        assert results["dynamic"].fanout[tail] == 1

    def test_paper_63_percent_gain_over_double_hashing(self):
        results = self._results()
        tail = -1
        gain = results["dynamic"].qps[tail] / results["double"].qps[tail] - 1
        # Paper: "+63% for the smaller tenants" — same order here.
        assert gain > 0.3

    def test_large_tenants_dynamic_not_collapsed(self):
        results = self._results()
        head = 0  # rank 1
        assert results["dynamic"].fanout[head] > 1
        assert results["dynamic"].qps[head] > results["hashing"].qps[head] * 0.5

    def test_shape_robust_to_cost_constants(self):
        for scale in (0.3, 3.0):
            cost = QueryCostModel(
                per_subquery_overhead=200e-6 * scale,
                search_per_doc=1.2e-6 / scale,
            )
            results = self._results(cost)
            tail = -1
            assert results["double"].qps[tail] < results["dynamic"].qps[tail], scale
