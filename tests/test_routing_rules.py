"""Tests for SecondaryHashingRule and RuleList (§4.2, Algorithm 2)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.routing import RuleList, SecondaryHashingRule


class TestSecondaryHashingRule:
    def test_covers_requires_time_and_membership(self):
        rule = SecondaryHashingRule(10.0, 4, frozenset({"a", "b"}))
        assert rule.covers("a", 10.0)
        assert rule.covers("b", 99.0)
        assert not rule.covers("a", 9.9)  # created before effective time
        assert not rule.covers("c", 50.0)  # tenant not in k_list

    def test_offset_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SecondaryHashingRule(0.0, 0, frozenset({"a"}))


class TestRuleListInsert:
    def test_same_time_and_offset_merges_tenants(self):
        rules = RuleList()
        rules.insert(5.0, 8, ["a"])
        rules.insert(5.0, 8, ["b"])
        assert len(rules) == 1
        (rule,) = list(rules)
        assert rule.tenants == {"a", "b"}

    def test_different_offset_creates_new_rule(self):
        rules = RuleList()
        rules.insert(5.0, 8, ["a"])
        rules.insert(5.0, 16, ["a"])
        assert len(rules) == 2

    def test_empty_tenants_rejected(self):
        with pytest.raises(ConfigurationError):
            RuleList().insert(0.0, 2, [])

    def test_update_single_tenant_entry_point(self):
        rules = RuleList()
        rule = rules.update(3.0, 4, "t")
        assert rule.tenants == {"t"}


class TestRuleMatching:
    """The three matching conditions of §4.2."""

    def test_default_offset_is_one(self):
        assert RuleList().match("anyone", 100.0) == 1

    def test_condition_1_effective_time_before_creation(self):
        rules = RuleList()
        rules.update(50.0, 8, "t")
        assert rules.match("t", 49.0) == 1  # record predates the rule
        assert rules.match("t", 50.0) == 8
        assert rules.match("t", 51.0) == 8

    def test_condition_2_tenant_membership(self):
        rules = RuleList()
        rules.update(0.0, 8, "hot")
        assert rules.match("cold", 10.0) == 1

    def test_condition_3_largest_offset_wins(self):
        rules = RuleList()
        rules.update(0.0, 4, "t")
        rules.update(10.0, 16, "t")
        rules.update(20.0, 8, "t")  # smaller later rule must NOT win
        assert rules.match("t", 30.0) == 16

    def test_historical_record_uses_rules_in_force_at_creation(self):
        rules = RuleList()
        rules.update(10.0, 4, "t")
        rules.update(20.0, 16, "t")
        # A record created at t=15 only matches the offset-4 rule.
        assert rules.match("t", 15.0) == 4

    def test_max_offset_is_union_over_history(self):
        rules = RuleList()
        rules.update(10.0, 4, "t")
        rules.update(20.0, 16, "t")
        assert rules.max_offset("t") == 16

    def test_rules_for_sorted_by_time(self):
        rules = RuleList()
        rules.update(20.0, 16, "t")
        rules.update(10.0, 4, "t")
        times = [r.effective_time for r in rules.rules_for("t")]
        assert times == [10.0, 20.0]


class TestRuleListSnapshot:
    def test_snapshot_is_immutable_copy(self):
        rules = RuleList()
        rules.update(1.0, 2, "a")
        snap = rules.snapshot()
        rules.update(2.0, 4, "b")
        assert len(snap) == 1
        assert len(rules.snapshot()) == 2

    def test_iteration_ordered_by_effective_time(self):
        rules = RuleList()
        rules.update(5.0, 2, "a")
        rules.update(1.0, 2, "b")
        rules.update(3.0, 2, "c")
        assert [r.effective_time for r in rules] == [1.0, 3.0, 5.0]

    def test_rebuild_from_rules_iterable(self):
        original = RuleList()
        original.update(1.0, 2, "a")
        original.update(2.0, 8, "b")
        clone = RuleList(original.snapshot())
        assert clone.match("b", 3.0) == 8
        assert clone.match("a", 3.0) == 2


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1000, allow_nan=False),
            st.sampled_from([1, 2, 4, 8, 16, 32]),
            st.integers(min_value=0, max_value=20),
        ),
        max_size=30,
    ),
    st.integers(min_value=0, max_value=20),
    st.floats(min_value=0, max_value=2000, allow_nan=False),
)
def test_property_match_equals_bruteforce(entries, tenant, created):
    """RuleList.match must equal a brute-force scan over all rules."""
    rules = RuleList()
    for time_, offset, tid in entries:
        rules.update(time_, offset, tid)
    expected = 1
    for time_, offset, tid in entries:
        if tid == tenant and time_ <= created and offset > expected:
            expected = offset
    assert rules.match(tenant, created) == expected


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.sampled_from([2, 4, 8]),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_property_offsets_monotone_in_time_for_growing_rules(entries):
    """If offsets only ever grow over time, match() is monotone in t_c."""
    rules = RuleList()
    offset = 1
    for i, (gap, step) in enumerate(sorted(entries)):
        offset = max(offset, step * (i + 1))
        rules.update(float(i), min(offset, 512), "t")
    last = 0
    for t in range(len(entries) + 2):
        current = rules.match("t", float(t))
        assert current >= last
        last = current


class TestRuleCompaction:
    def test_dead_smaller_later_rule_removed(self):
        rules = RuleList()
        rules.update(0.0, 16, "t")
        rules.update(10.0, 8, "t")  # dead: earlier rule already grants 16
        dropped = rules.compact()
        assert dropped == 1
        assert len(rules.rules_for("t")) == 1

    def test_staircase_survives(self):
        rules = RuleList()
        rules.update(0.0, 2, "t")
        rules.update(10.0, 8, "t")
        rules.update(20.0, 32, "t")
        assert rules.compact() == 0
        assert len(rules.rules_for("t")) == 3

    def test_duplicate_offset_later_is_dead(self):
        rules = RuleList()
        rules.update(0.0, 8, "t")
        rules.update(5.0, 8, "t")
        assert rules.compact() == 1

    def test_compaction_preserves_other_tenants(self):
        rules = RuleList()
        rules.update(0.0, 16, "a")
        rules.update(10.0, 8, "a")  # dead for a
        rules.update(10.0, 8, "b")  # alive for b
        rules.compact()
        assert rules.match("b", 11.0) == 8
        assert rules.match("a", 11.0) == 16


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.sampled_from([1, 2, 4, 8, 16, 32]),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=25,
    ),
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=-10, max_value=200, allow_nan=False),
)
def test_property_compaction_never_changes_match(entries, tenant, created):
    rules = RuleList()
    for time_, offset, tid in entries:
        rules.update(time_, offset, tid)
    before = rules.match(tenant, created)
    before_max = rules.max_offset(tenant)
    rules.compact()
    assert rules.match(tenant, created) == before
    assert rules.max_offset(tenant) == before_max


class TestRuleListVersion:
    def test_starts_at_zero_and_bumps_on_insert(self):
        rules = RuleList()
        assert rules.version == 0
        rules.update(1.0, 2, "t")
        assert rules.version == 1
        rules.insert(1.0, 2, ["u"])  # merge into existing rule still bumps
        assert rules.version == 2

    def test_seeded_list_counts_initial_inserts(self):
        seeded = RuleList([SecondaryHashingRule(1.0, 2, frozenset({"t"}))])
        assert seeded.version == 1

    def test_compact_bumps_even_when_nothing_dropped(self):
        rules = RuleList()
        rules.update(0.0, 2, "t")
        rules.update(10.0, 8, "t")  # staircase: nothing is dead
        version = rules.version
        assert rules.compact() == 0
        assert rules.version == version + 1

    def test_version_strictly_monotone_across_mixed_operations(self):
        rules = RuleList()
        seen = [rules.version]
        rules.update(0.0, 16, "t")
        seen.append(rules.version)
        rules.update(10.0, 8, "t")
        seen.append(rules.version)
        rules.compact()
        seen.append(rules.version)
        assert seen == sorted(set(seen))


class TestCompactionWithCoordinatorCache:
    """Regression: compaction must preserve match() AND retire cached
    fan-outs (version bump), so a coordinator cache never serves a result
    computed against the pre-compaction rule list."""

    def test_compaction_preserves_match_and_invalidates_cache(self):
        from repro.cache import CoordinatorResultCache, sql_fingerprint

        rules = RuleList()
        rules.update(0.0, 16, "t")
        rules.update(10.0, 8, "t")  # dead: 16 already granted earlier
        cache = CoordinatorResultCache(4096)
        fingerprint = sql_fingerprint("SELECT * FROM logs WHERE tenant_id = 't'")
        cache.put(fingerprint, rules.version, "result@v", validators=(), cost=64)
        assert cache.get(fingerprint, rules.version, {}) == "result@v"
        version_before = rules.version
        assert rules.compact() == 1
        # Match behaviour is unchanged...
        assert rules.match("t", 11.0) == 16
        assert rules.max_offset("t") == 16
        # ...but the version moved, so the cached entry is unreachable.
        assert rules.version > version_before
        assert cache.get(fingerprint, rules.version, {}) is None

    def test_end_to_end_compaction_recomputes_through_facade(self):
        from repro import ESDB, EsdbConfig
        from repro.cluster import ClusterTopology
        from tests.conftest import make_log

        db = ESDB(EsdbConfig(topology=ClusterTopology(num_nodes=2, num_shards=8),
                             auto_refresh_every=None))
        rules = db.policy.rules
        rules.update(0.0, 4, "t1")
        rules.update(5.0, 2, "t1")  # dead membership, compaction fodder
        for i in range(12):
            db.write(make_log(i, tenant="t1", created=float(10 + i), status=1))
        db.refresh()
        sql = "SELECT * FROM transaction_logs WHERE tenant_id = 't1'"
        before = db.execute_sql(sql)
        db.execute_sql(sql)
        assert db.result_cache.stats.hits == 1
        assert rules.compact() == 1
        after = db.execute_sql(sql)
        # Compaction forced a recompute (no new hit), same correct answer.
        assert db.result_cache.stats.hits == 1
        assert after.total_hits == before.total_hits == 12
        assert after.subqueries == before.subqueries
