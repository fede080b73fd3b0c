"""Tests for the three routing policies (Eq. 1 / Eq. 2, Figure 2)."""

from __future__ import annotations


import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.routing import (
    DoubleHashRouting,
    DynamicSecondaryHashRouting,
    HashRouting,
    RuleList,
    ShardRange,
)
from tests.conftest import equal_spellings

N = 64


class TestShardRange:
    def test_iterates_consecutive_shards(self):
        r = ShardRange(start=5, length=3, total=8)
        assert list(r) == [5, 6, 7]

    def test_wraps_around_modulo_total(self):
        r = ShardRange(start=6, length=4, total=8)
        assert list(r) == [6, 7, 0, 1]

    def test_contains_respects_wraparound(self):
        r = ShardRange(start=6, length=4, total=8)
        assert 0 in r and 6 in r
        assert 2 not in r and 5 not in r

    def test_invalid_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardRange(start=0, length=0, total=8)
        with pytest.raises(ConfigurationError):
            ShardRange(start=0, length=9, total=8)
        with pytest.raises(ConfigurationError):
            ShardRange(start=8, length=1, total=8)


class TestHashRouting:
    def test_all_records_of_tenant_on_one_shard(self):
        policy = HashRouting(N)
        shards = {policy.route_write("t1", rec) for rec in range(100)}
        assert len(shards) == 1

    def test_query_range_is_single_shard(self):
        policy = HashRouting(N)
        assert len(policy.query_shards("t1")) == 1
        assert policy.query_shards("t1").start == policy.route_write("t1", 0)

    def test_different_tenants_spread_over_shards(self):
        policy = HashRouting(N)
        shards = {policy.route_write(f"t{i}", 0) for i in range(1000)}
        assert len(shards) > N * 0.9  # nearly all shards used


class TestDoubleHashRouting:
    def test_records_spread_over_exactly_s_consecutive_shards(self):
        policy = DoubleHashRouting(N, offset=8)
        base = policy.base_shard("t1")
        shards = {policy.route_write("t1", rec) for rec in range(2000)}
        expected = {(base + i) % N for i in range(8)}
        assert shards == expected

    def test_offset_one_degrades_to_hashing(self):
        double = DoubleHashRouting(N, offset=1)
        plain = HashRouting(N)
        for rec in range(50):
            assert double.route_write("t", rec) == plain.route_write("t", rec)

    def test_offset_n_spreads_over_all_shards(self):
        policy = DoubleHashRouting(16, offset=16)
        shards = {policy.route_write("t", rec) for rec in range(4000)}
        assert shards == set(range(16))

    def test_query_range_matches_write_spread(self):
        policy = DoubleHashRouting(N, offset=8)
        writes = {policy.route_write("t9", rec) for rec in range(2000)}
        assert writes <= set(policy.query_shards("t9"))

    def test_invalid_offset_rejected(self):
        with pytest.raises(ConfigurationError):
            DoubleHashRouting(N, offset=0)
        with pytest.raises(ConfigurationError):
            DoubleHashRouting(N, offset=N + 1)

    def test_routing_is_equation_1(self):
        """p = (h1(k1) + h2(k2) mod s) mod N exactly."""
        from repro.hashing import h1, h2

        policy = DoubleHashRouting(N, offset=8)
        for rec in range(20):
            expected = (h1("t") % N + h2(rec) % 8) % N
            assert policy.route_write("t", rec) == expected


class TestDynamicSecondaryHashRouting:
    def test_no_rules_behaves_like_hashing(self):
        dynamic = DynamicSecondaryHashRouting(N)
        plain = HashRouting(N)
        for rec in range(50):
            assert dynamic.route_write("t", rec, 100.0) == plain.route_write("t", rec)

    def test_rule_changes_routing_only_after_effective_time(self):
        dynamic = DynamicSecondaryHashRouting(N)
        dynamic.rules.update(50.0, 8, "hot")
        before = {dynamic.route_write("hot", rec, 49.0) for rec in range(500)}
        after = {dynamic.route_write("hot", rec, 51.0) for rec in range(500)}
        assert len(before) == 1
        assert len(after) == 8

    def test_spread_is_consecutive_from_base(self):
        dynamic = DynamicSecondaryHashRouting(N)
        dynamic.rules.update(0.0, 8, "hot")
        base = dynamic.base_shard("hot")
        shards = {dynamic.route_write("hot", rec, 1.0) for rec in range(2000)}
        assert shards == {(base + i) % N for i in range(8)}

    def test_cold_tenants_unaffected_by_hot_rules(self):
        dynamic = DynamicSecondaryHashRouting(N)
        dynamic.rules.update(0.0, 32, "hot")
        shards = {dynamic.route_write("cold", rec, 10.0) for rec in range(200)}
        assert len(shards) == 1

    def test_query_covers_union_of_historical_offsets(self):
        dynamic = DynamicSecondaryHashRouting(N)
        dynamic.rules.update(10.0, 4, "t")
        dynamic.rules.update(20.0, 16, "t")
        # Writes at various creation times...
        writes = set()
        for created in (5.0, 15.0, 25.0):
            writes |= {dynamic.route_write("t", rec, created) for rec in range(500)}
        assert writes <= set(dynamic.query_shards("t"))
        assert len(dynamic.query_shards("t")) == 16

    def test_shared_rule_list_instance(self):
        rules = RuleList()
        dynamic = DynamicSecondaryHashRouting(N, rules=rules)
        rules.update(0.0, 8, "t")
        assert dynamic.offset_for("t", 1.0) == 8

    def test_read_your_writes_update_routes_to_original_shard(self):
        """An UPDATE identified by (k1, k2, t_c) must reach the shard that
        holds the record, even after the offset changed (§4.2)."""
        dynamic = DynamicSecondaryHashRouting(N)
        dynamic.rules.update(0.0, 4, "t")
        original = {rec: dynamic.route_write("t", rec, 5.0) for rec in range(300)}
        dynamic.rules.update(10.0, 16, "t")
        for rec, shard in original.items():
            # Re-route the same record with its original creation time.
            assert dynamic.route_write("t", rec, 5.0) == shard


@settings(max_examples=50)
@given(
    tenant=st.integers(min_value=0, max_value=10_000),
    record=st.integers(min_value=0, max_value=10_000_000),
    created=st.floats(min_value=0, max_value=1e6, allow_nan=False),
)
def test_property_write_always_lands_in_query_range(tenant, record, created):
    dynamic = DynamicSecondaryHashRouting(N)
    dynamic.rules.update(0.0, 4, tenant)
    dynamic.rules.update(100.0, 32, tenant)
    shard = dynamic.route_write(tenant, record, created)
    assert shard in dynamic.query_shards(tenant)


@settings(max_examples=30)
@given(
    offsets=st.lists(st.sampled_from([2, 4, 8, 16, 32, 64]), min_size=1, max_size=5),
    records=st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50),
)
def test_property_spread_never_exceeds_committed_offset(offsets, records):
    dynamic = DynamicSecondaryHashRouting(N)
    for i, offset in enumerate(offsets):
        dynamic.rules.update(float(i), offset, "t")
    created = float(len(offsets) + 1)
    shards = {dynamic.route_write("t", rec, created) for rec in records}
    assert len(shards) <= max(offsets)


class TestCandidateShards:
    def test_static_policies_have_one_candidate(self):
        for policy in (HashRouting(N), DoubleHashRouting(N, offset=8)):
            for rec in range(50):
                assert policy.candidate_shards("t", rec) == (policy.route_write("t", rec),)

    def test_untouched_tenant_has_its_base_shard_only(self):
        dynamic = DynamicSecondaryHashRouting(N)
        assert dynamic.candidate_shards("t", 7) == (dynamic.base_shard("t"),)


@settings(max_examples=50)
@given(
    rules=st.lists(
        st.tuples(st.floats(0, 100, allow_nan=False), st.sampled_from([2, 4, 8, 16, 64])),
        max_size=6,
    ),
    record=st.integers(min_value=0, max_value=10**9),
    created=st.floats(min_value=0, max_value=200, allow_nan=False),
    compact=st.booleans(),
)
def test_property_record_is_among_its_candidates(rules, record, created, compact):
    """Whatever its creation time, a record routes to one of at most
    1 + (distinct offsets) candidate shards — and compaction keeps it so."""
    dynamic = DynamicSecondaryHashRouting(N)
    for effective_time, offset in rules:
        dynamic.rules.update(effective_time, offset, "t")
    shard = dynamic.route_write("t", record, created)
    if compact:
        dynamic.rules.compact()
    candidates = dynamic.candidate_shards("t", record)
    assert shard in candidates
    assert len(candidates) == len(set(candidates)) <= 1 + len({o for _, o in rules})


class TestBoundedQueryShards:
    def test_static_policies_ignore_the_bounds(self):
        for policy in (HashRouting(N), DoubleHashRouting(N, offset=8)):
            assert policy.query_shards("t", until=5.0, record_id=3, since=1.0) == (
                policy.query_shards("t")
            )

    def test_upper_bound_visits_the_offset_matched_there(self):
        dynamic = DynamicSecondaryHashRouting(N)
        dynamic.rules.update(10.0, 4, "t")
        dynamic.rules.update(20.0, 16, "t")
        base = dynamic.base_shard("t")
        assert dynamic.query_shards("t", until=5.0) == ShardRange(base, 1, N)
        assert dynamic.query_shards("t", until=15.0) == ShardRange(base, 4, N)
        assert dynamic.query_shards("t", until=20.0) == dynamic.query_shards("t")

    def test_record_with_exact_time_has_one_shard_per_spelling(self):
        dynamic = DynamicSecondaryHashRouting(N)
        dynamic.rules.update(10.0, 4, "t")
        dynamic.rules.update(20.0, 16, "t")
        for rec in range(50):
            for created in (5.0, 15.0, 25.0):
                assert dynamic.query_shards(
                    "t", since=created, until=created, record_id=f"r{rec}"
                ) == (dynamic.route_write("t", f"r{rec}", created),)
                # An int id's float and bool spellings, which `=` equates
                # with it, hash alike and share its one shard.
                for key in equal_spellings(rec):
                    assert dynamic.query_shards(
                        "t", since=created, until=created, record_id=key
                    ) == (dynamic.route_write("t", rec, created),)

    def test_record_without_time_visits_its_candidates(self):
        dynamic = DynamicSecondaryHashRouting(N)
        dynamic.rules.update(10.0, 4, "t")
        dynamic.rules.update(20.0, 16, "t")
        for rec in range(50):
            assert dynamic.query_shards("t", record_id=f"r{rec}") == (
                dynamic.candidate_shards("t", f"r{rec}")
            )
            for key in equal_spellings(rec):
                assert dynamic.query_shards("t", record_id=key) == (
                    dynamic.candidate_shards("t", rec)
                )

    def test_id_whose_equals_cannot_be_listed_does_not_narrow(self):
        dynamic = DynamicSecondaryHashRouting(N)
        dynamic.rules.update(10.0, 16, "t")
        for record_id in ((1, 2), float("nan")):
            assert dynamic.query_shards("t", record_id=record_id) == dynamic.query_shards("t")


@settings(max_examples=60)
@given(
    rules=st.lists(
        st.tuples(st.floats(0, 100, allow_nan=False), st.sampled_from([2, 4, 8, 16, 64])),
        max_size=6,
    ),
    record=st.one_of(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**6).map(float),
        st.booleans(),
        st.text(max_size=8),
    ),
    times=st.lists(st.floats(0, 200, allow_nan=False), min_size=3, max_size=3),
    compact=st.booleans(),
)
def test_property_bounded_fanout_holds_every_record_in_bounds(rules, record, times, compact):
    """A record created at c lies in the fan-out of any statement whose
    bounds admit c: ``c <= until`` alone, and ``since <= c <= until`` with
    any id equal to its own — across rule appends and compaction."""
    since, created, until = sorted(times)
    dynamic = DynamicSecondaryHashRouting(N)
    for effective_time, offset in rules:
        dynamic.rules.update(effective_time, offset, "t")
    shard = dynamic.route_write("t", record, created)
    if compact:
        dynamic.rules.compact()
    assert shard in dynamic.query_shards("t", until=until)
    for key in equal_spellings(record):
        assert shard in dynamic.query_shards("t", until=until, record_id=key)
        assert shard in dynamic.query_shards("t", since=since, until=until, record_id=key)
        assert shard in dynamic.query_shards("t", since=since, record_id=key)
