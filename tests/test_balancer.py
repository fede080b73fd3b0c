"""Tests for the workload monitor and the load balancer (Algorithm 1)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.balancer import (
    BalancerConfig,
    LoadBalancer,
    WorkloadMonitor,
    compute_offset_size,
)
from repro.errors import ConfigurationError
from repro.routing import RuleList


class TestWorkloadMonitor:
    def test_window_rolls_automatically(self):
        monitor = WorkloadMonitor(window_seconds=10.0)
        monitor.record_write("a", 0, now=1.0)
        monitor.record_write("a", 0, now=2.0)
        monitor.record_write("b", 0, now=11.0)  # triggers roll
        shares = monitor.shares()
        assert shares == {"a": 1.0}

    def test_throughput_normalized_by_window(self):
        monitor = WorkloadMonitor(window_seconds=10.0)
        for i in range(50):
            monitor.record_write("a", 0, now=float(i % 10) / 2)
        monitor.roll_window(now=10.0)
        assert monitor.throughput()["a"] == pytest.approx(5.0)

    def test_shares_sum_to_one(self):
        monitor = WorkloadMonitor(window_seconds=5.0)
        for tenant, count in (("a", 30), ("b", 60), ("c", 10)):
            for _ in range(count):
                monitor.record_write(tenant, 0, now=1.0)
        monitor.roll_window(now=5.0)
        shares = monitor.shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["b"] == pytest.approx(0.6)

    def test_storage_accumulates_across_windows(self):
        monitor = WorkloadMonitor(window_seconds=1.0)
        monitor.record_write("a", 0, now=0.0)
        monitor.record_write("a", 0, now=5.0)
        monitor.record_write("b", 0, now=9.0)
        assert monitor.storage() == {"a": 2, "b": 1}

    def test_seeded_storage_is_replaced_then_accumulates(self):
        monitor = WorkloadMonitor(window_seconds=1.0)
        monitor.record_write("a", 0, now=0.0)
        monitor.seed_storage({"a": 10, "b": 5})
        monitor.record_write("b", 0, now=0.5)
        assert monitor.storage() == {"a": 10, "b": 6}

    def test_short_window_throughput_uses_its_length(self):
        monitor = WorkloadMonitor(window_seconds=10.0)
        for _ in range(4):
            monitor.record_write("a", 0, now=1.0)
        monitor.roll_window(now=2.0)  # a rebalance before the boundary
        assert monitor.throughput() == {"a": 2.0}

    def test_window_lists_tenants_in_first_seen_order(self):
        monitor = WorkloadMonitor(window_seconds=1.0)
        for tenant in ("a", "b", "c"):
            monitor.record_write(tenant, 0, now=0.0)
        monitor.roll_window(now=1.0)
        for tenant in ("c", "b"):
            monitor.record_write(tenant, 1, now=1.5)
        monitor.roll_window(now=2.0)
        assert list(monitor.shares()) == ["b", "c"]
        assert monitor.windows[-1].shards == {1: 2}

    def test_storage_shares(self):
        monitor = WorkloadMonitor()
        monitor.seed_storage({"a": 75, "b": 25})
        assert monitor.storage_shares() == {"a": 0.75, "b": 0.25}

    def test_stats_sorted_by_share(self):
        monitor = WorkloadMonitor(window_seconds=1.0)
        for tenant, count in (("small", 1), ("big", 9)):
            for _ in range(count):
                monitor.record_write(tenant, 0, now=0.5)
        monitor.roll_window(1.0)
        stats = monitor.stats()
        assert stats[0].tenant_id == "big"
        assert stats[0].share == pytest.approx(0.9)

    def test_empty_monitor_returns_empty_views(self):
        monitor = WorkloadMonitor()
        assert monitor.shares() == {}
        assert monitor.throughput() == {}
        assert monitor.storage_shares() == {}

    def test_invalid_window_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadMonitor(window_seconds=0)


class TestComputeOffsetSize:
    def test_small_share_gets_offset_one(self):
        assert compute_offset_size(0.001, 512, target_share_per_shard=0.004) == 1

    def test_offsets_are_powers_of_two(self):
        for share in (0.01, 0.05, 0.1, 0.3, 0.9):
            s = compute_offset_size(share, 512, target_share_per_shard=0.004)
            assert s & (s - 1) == 0  # power of two

    def test_larger_share_larger_offset(self):
        s_small = compute_offset_size(0.02, 512, 0.004)
        s_big = compute_offset_size(0.2, 512, 0.004)
        assert s_big > s_small

    def test_post_split_share_meets_target(self):
        share = 0.13
        target = 0.004
        s = compute_offset_size(share, 512, target)
        assert share / s <= target

    def test_clamped_to_num_shards(self):
        assert compute_offset_size(1.0, 16, 0.0001) == 16

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_offset_size(1.5, 512, 0.004)
        with pytest.raises(ConfigurationError):
            compute_offset_size(0.5, 512, 0)


class TestLoadBalancerRuntime:
    def _loaded_monitor(self, shares: dict) -> WorkloadMonitor:
        monitor = WorkloadMonitor(window_seconds=10.0)
        for tenant, count in shares.items():
            for _ in range(count):
                monitor.record_write(tenant, 0, now=1.0)
        monitor.roll_window(10.0)
        return monitor

    def test_hotspot_detected_and_offset_proposed(self):
        monitor = self._loaded_monitor({"hot": 500, "cold": 500 // 100})
        balancer = LoadBalancer(monitor, 512, BalancerConfig(hotspot_share=0.05))
        proposals = balancer.rebalance()
        tenants = {p.tenant_id for p in proposals}
        assert "hot" in tenants
        assert "cold" not in tenants

    def test_offsets_never_shrink(self):
        monitor = self._loaded_monitor({"hot": 1000})
        balancer = LoadBalancer(monitor, 512, BalancerConfig(hotspot_share=0.05))
        first = balancer.rebalance()
        assert first and first[0].offset > 1
        # Same workload again: offset already granted, nothing new proposed.
        monitor2 = self._loaded_monitor({"hot": 1000})
        balancer.monitor = monitor2
        assert balancer.rebalance() == []

    def test_growing_hotspot_gets_larger_offset(self):
        config = BalancerConfig(hotspot_share=0.01, target_share_per_shard=0.004)
        monitor = self._loaded_monitor({"hot": 5, "rest": 95})
        balancer = LoadBalancer(monitor, 512, config)
        first = balancer.rebalance()
        first_offset = next(p.offset for p in first if p.tenant_id == "hot")
        balancer.monitor = self._loaded_monitor({"hot": 60, "rest": 40})
        second = balancer.rebalance()
        second_offset = next(p.offset for p in second if p.tenant_id == "hot")
        assert second_offset > first_offset

    def test_max_offset_cap_respected(self):
        config = BalancerConfig(
            hotspot_share=0.01, target_share_per_shard=0.0001, max_offset=8
        )
        monitor = self._loaded_monitor({"hot": 100})
        balancer = LoadBalancer(monitor, 512, config)
        proposals = balancer.rebalance()
        assert all(p.offset <= 8 for p in proposals)

    def test_retract_allows_reproposal(self):
        monitor = self._loaded_monitor({"hot": 1000})
        balancer = LoadBalancer(monitor, 512, BalancerConfig(hotspot_share=0.05))
        (proposal,) = balancer.rebalance()
        balancer.retract(proposal)  # consensus aborted
        balancer.monitor = self._loaded_monitor({"hot": 1000})
        again = balancer.rebalance()
        assert [p.offset for p in again] == [proposal.offset]

    def test_retract_ignores_stale_proposal(self):
        monitor = self._loaded_monitor({"hot": 1000})
        balancer = LoadBalancer(monitor, 512, BalancerConfig(hotspot_share=0.05))
        (proposal,) = balancer.rebalance()
        from repro.balancer.balancer import ProposedRule

        balancer.retract(ProposedRule("hot", proposal.offset * 2))  # not granted
        assert balancer.granted_offset("hot") == proposal.offset

    def test_commit_writes_rules(self):
        monitor = self._loaded_monitor({"hot": 100})
        balancer = LoadBalancer(monitor, 512, BalancerConfig(hotspot_share=0.05))
        proposals = balancer.rebalance()
        rules = RuleList()
        LoadBalancer.commit(rules, proposals, effective_time=42.0)
        assert rules.match("hot", 43.0) > 1
        assert rules.match("hot", 41.0) == 1


class TestLoadBalancerInit:
    def test_initialization_uses_storage_shares(self):
        monitor = WorkloadMonitor()
        monitor.seed_storage({"big": 500, "small": 5, "tiny": 1})
        balancer = LoadBalancer(
            monitor, 512, BalancerConfig(init_storage_share=0.05)
        )
        proposals = balancer.initialize()
        tenants = {p.tenant_id for p in proposals}
        assert "big" in tenants
        assert "tiny" not in tenants

    def test_most_tenants_stay_on_single_shard(self):
        """§4.1: s = 1 for most tenants with small storage proportion."""
        monitor = WorkloadMonitor()
        storage = {f"t{i}": 1 for i in range(1000)}
        storage["whale"] = 5000
        monitor.seed_storage(storage)
        balancer = LoadBalancer(monitor, 512, BalancerConfig(init_storage_share=0.01))
        proposals = balancer.initialize()
        assert {p.tenant_id for p in proposals} == {"whale"}


@given(
    share=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    num_shards=st.sampled_from([8, 64, 512, 1024]),
)
def test_property_offset_bounds(share, num_shards):
    s = compute_offset_size(share, num_shards, target_share_per_shard=0.004)
    assert 1 <= s <= num_shards
    assert s & (s - 1) == 0
