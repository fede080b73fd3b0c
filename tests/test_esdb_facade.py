"""End-to-end tests for the ESDB facade."""

from __future__ import annotations

import ast
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ESDB, EsdbConfig, HashRouting
from repro.balancer import BalancerConfig
from repro.cluster import ClusterTopology
from repro.errors import DocumentNotFoundError, EsdbError, InvalidDocumentError
from repro.routing.bounds import RoutingBounds, common_tenant, routing_bounds
from repro.indexing import FrequencyTracker
from repro.obsv import Observer, ObsvConfig
from repro.query import parse_sql
from repro.query.ast import AndNode, ComparisonPredicate
from repro.slo import HeavyHitterProfiler, SloEngine
from repro.telemetry.timeseries import TimeSeriesStore
from repro.tenancy import TenancyConfig, TenantGovernor
from repro.workload import TransactionLogGenerator, WorkloadConfig
from tests.conftest import make_log

SMALL = ClusterTopology(num_nodes=4, num_shards=32)


@pytest.fixture()
def db() -> ESDB:
    return ESDB(EsdbConfig(topology=SMALL, auto_refresh_every=None))


class TestWriteReadPath:
    def test_write_routes_and_counts(self, db):
        shard = db.write(make_log(1, tenant="t", created=1.0))
        assert 0 <= shard < 32
        db.refresh()
        assert db.doc_count() == 1

    def test_sql_query_returns_written_rows(self, db):
        for i in range(10):
            db.write(make_log(i, tenant=77, created=float(i), status=i % 2))
        db.refresh()
        result = db.execute_sql(
            "SELECT transaction_id FROM transaction_logs "
            "WHERE tenant_id = 77 AND status = 1 ORDER BY transaction_id"
        )
        assert [r["transaction_id"] for r in result.rows] == [1, 3, 5, 7, 9]

    def test_query_prunes_to_tenant_shards(self, db):
        db.write(make_log(1, tenant=5, created=0.0))
        db.refresh()
        result = db.execute_sql("SELECT * FROM t WHERE tenant_id = 5")
        assert result.subqueries == db.tenant_fanout(5) == 1

    def test_query_without_tenant_hits_all_shards(self, db):
        db.write(make_log(1, tenant=5, created=0.0))
        db.refresh()
        result = db.execute_sql("SELECT * FROM t WHERE status = 1")
        assert result.subqueries == 32

    def test_update_and_delete_follow_rules(self, db):
        db.write(make_log(1, tenant="t", created=0.0, status=0))
        db.update(1, {"status": 4}, tenant_id="t")
        db.refresh()
        result = db.execute_sql("SELECT status FROM t WHERE tenant_id = 't'")
        assert result.rows[0]["status"] == 4
        db.delete(1, tenant_id="t", created_time=0.0)
        db.refresh()
        assert db.doc_count() == 0

    def test_unknown_doc_id_raises(self, db):
        with pytest.raises(DocumentNotFoundError):
            db.update(999, {}, tenant_id="t")
        with pytest.raises(DocumentNotFoundError):
            db.delete(999, tenant_id="t", created_time=0.0)

    def test_limit_and_order(self, db):
        for i in range(20):
            db.write(make_log(i, tenant=1, created=float(i)))
        db.refresh()
        result = db.execute_sql(
            "SELECT transaction_id FROM t WHERE tenant_id = 1 "
            "ORDER BY created_time DESC LIMIT 3"
        )
        assert [r["transaction_id"] for r in result.rows] == [19, 18, 17]
        assert result.total_hits == 20


def _answers(db: ESDB) -> tuple:
    db.refresh()
    return tuple(
        tuple(sorted(map(repr, db.execute_sql(sql).rows)))
        for sql in (
            "SELECT * FROM t WHERE tenant_id = 'a'",
            "SELECT * FROM t WHERE tenant_id = 'b'",
            "SELECT * FROM t WHERE status >= 0",
        )
    )


def _statuses(db: ESDB, *tenants) -> dict:
    db.refresh()
    return {
        tenant: [
            row["status"]
            for row in db.execute_sql(f"SELECT status FROM t WHERE tenant_id = '{tenant}'").rows
        ]
        for tenant in tenants
    }


class TestUpdateAndDeleteLocateByRules:
    """UPDATE/DELETE find a record by (tenant, id[, creation time]) through
    the rule list — there is no per-document shard directory."""

    @pytest.mark.parametrize(
        "change",
        [{"tenant_id": "b"}, {"transaction_id": 2}, {"created_time": 200.0}],
        ids=["tenant_id", "transaction_id", "created_time"],
    )
    def test_update_cannot_change_a_routing_field(self, db, change):
        db.write(make_log(1, tenant="a", created=1.0, status=0))
        db.policy.rules.update(100.0, 16, "a")
        before = _answers(db)
        logged = [len(engine.translog) for engine in db.engines.values()]
        with pytest.raises(InvalidDocumentError, match=next(iter(change))):
            db.update(1, {"status": 5, **change}, tenant_id="a")
        assert [len(engine.translog) for engine in db.engines.values()] == logged
        assert _answers(db) == before

    def test_same_id_under_two_tenants(self, db):
        assert db.policy.base_shard("a") != db.policy.base_shard("b")
        db.write(make_log(7, tenant="a", created=1.0, status=0))
        db.write(make_log(7, tenant="b", created=1.0, status=0))
        db.update(7, {"status": 1}, tenant_id="a")
        db.update(7, {"status": 2}, tenant_id="b", created_time=1.0)
        assert _statuses(db, "a", "b") == {"a": [1], "b": [2]}
        db.delete(7, tenant_id="b")
        assert _statuses(db, "a", "b") == {"a": [1], "b": []}
        with pytest.raises(DocumentNotFoundError):
            db.delete(7, tenant_id="b")
        db.update(7, {"status": 3}, tenant_id="a")
        assert _statuses(db, "a", "b") == {"a": [3], "b": []}
        db.delete(7, tenant_id="a", created_time=1.0)
        assert _statuses(db, "a", "b") == {"a": [], "b": []}

    def test_id_rewritten_across_a_rule_change_needs_created_time(self, db):
        db.policy.rules.update(10.0, 16, "w")
        doc_id = next(i for i in range(100) if len(db.policy.candidate_shards("w", i)) == 2)
        db.write(make_log(doc_id, tenant="w", created=1.0, status=0))
        db.write(make_log(doc_id, tenant="w", created=20.0, status=0))
        with pytest.raises(DocumentNotFoundError, match="created_time"):
            db.update(doc_id, {"status": 1}, tenant_id="w")
        db.update(doc_id, {"status": 1}, tenant_id="w", created_time=20.0)
        db.delete(doc_id, tenant_id="w", created_time=1.0)
        assert _statuses(db, "w") == {"w": [1]}

    def test_two_argument_call_fails_loudly(self, db):
        db.write(make_log(1, tenant="t", created=1.0))
        with pytest.raises(TypeError):
            db.update(1, {"status": 2})
        with pytest.raises(TypeError):
            db.delete(1)


class TestBalancingLifecycle:
    def test_hot_tenant_spreads_after_rebalance(self):
        db = ESDB(
            EsdbConfig(
                topology=SMALL,
                auto_refresh_every=None,
                balancer=BalancerConfig(hotspot_share=0.2, target_share_per_shard=0.05),
            )
        )
        # Hot tenant dominates the window.
        for i in range(100):
            db.write(make_log(i, tenant="whale", created=float(i) * 0.01))
        for i in range(100, 120):
            db.write(make_log(i, tenant=f"small-{i}", created=float(i) * 0.01))
        committed = db.rebalance()
        assert any(t == "whale" for t, _, _ in committed)
        assert db.tenant_fanout("whale") > 1
        # New writes (after the effective time) spread across shards.
        _, offset, effective = next(c for c in committed if c[0] == "whale")
        shards = {
            db.write(make_log(1000 + i, tenant="whale", created=effective + 1 + i * 0.001))
            for i in range(400)
        }
        # All writes stay inside the committed range and use most of it
        # (exact coverage is probabilistic in the record-id hash).
        assert shards <= set(db.policy.query_shards("whale"))
        assert len(shards) > offset // 2

    def test_read_your_writes_after_offset_change(self):
        db = ESDB(
            EsdbConfig(
                topology=SMALL,
                auto_refresh_every=None,
                balancer=BalancerConfig(hotspot_share=0.2, target_share_per_shard=0.05),
            )
        )
        for i in range(100):
            db.write(make_log(i, tenant="whale", created=float(i) * 0.01, status=0))
        committed = db.rebalance()
        assert committed
        # Historical records must remain reachable for UPDATE after the split.
        db.update(5, {"status": 8}, tenant_id="whale")
        db.refresh()
        result = db.execute_sql(
            "SELECT status FROM t WHERE tenant_id = 'whale' AND transaction_id = 5"
        )
        assert result.rows[0]["status"] == 8

    def test_queries_see_all_records_across_offset_epochs(self):
        db = ESDB(
            EsdbConfig(
                topology=SMALL,
                auto_refresh_every=None,
                balancer=BalancerConfig(hotspot_share=0.2, target_share_per_shard=0.05),
            )
        )
        for i in range(100):
            db.write(make_log(i, tenant="whale", created=float(i) * 0.01))
        committed = db.rebalance()
        _, _, effective = committed[0]
        for i in range(100, 150):
            db.write(make_log(i, tenant="whale", created=effective + 1 + i * 0.001))
        db.refresh()
        result = db.execute_sql("SELECT * FROM t WHERE tenant_id = 'whale'")
        assert result.total_hits == 150

    def test_static_policy_rebalance_is_noop(self):
        db = ESDB(
            EsdbConfig(topology=SMALL, auto_refresh_every=None),
            policy=HashRouting(32),
        )
        for i in range(50):
            db.write(make_log(i, tenant="w", created=float(i) * 0.01))
        assert db.rebalance() == []


class TestConfigValidation:
    def test_policy_shard_mismatch_rejected(self):
        with pytest.raises(EsdbError):
            ESDB(EsdbConfig(topology=SMALL), policy=HashRouting(8))

    def test_clock_monotone(self, db):
        db.advance_clock(10.0)
        db.advance_clock(5.0)
        assert db.now == 10.0


class TestFullTextAndAttributes:
    def test_full_text_search_end_to_end(self, db):
        db.write(make_log(1, tenant=1, created=0.0, title="vintage leather bag"))
        db.write(make_log(2, tenant=1, created=0.0, title="wireless phone case"))
        db.refresh()
        result = db.execute_sql(
            "SELECT transaction_id FROM t WHERE tenant_id = 1 "
            "AND MATCH(auction_title, 'leather bag')"
        )
        assert [r["transaction_id"] for r in result.rows] == [1]

    def test_subattribute_filter_end_to_end(self, db):
        db.write(make_log(1, tenant=1, created=0.0, attributes="activity:sale;size:XL"))
        db.write(make_log(2, tenant=1, created=0.0, attributes="size:S"))
        db.refresh()
        result = db.execute_sql(
            "SELECT transaction_id FROM t WHERE tenant_id = 1 AND ATTR(size) = 'XL'"
        )
        assert [r["transaction_id"] for r in result.rows] == [1]

    def test_like_filter_end_to_end(self, db):
        db.write(make_log(1, tenant=1, created=0.0, title="super mega offer"))
        db.refresh()
        result = db.execute_sql(
            "SELECT * FROM t WHERE tenant_id = 1 AND auction_title LIKE '%mega%'"
        )
        assert result.total_hits == 1


class TestWorkloadIntegration:
    def test_bulk_generated_workload_round_trip(self):
        db = ESDB(EsdbConfig(topology=SMALL, auto_refresh_every=256))
        generator = TransactionLogGenerator(
            WorkloadConfig(num_tenants=200, theta=1.0, seed=7)
        )
        docs = [generator.generate(created_time=i * 0.001) for i in range(2000)]
        db.bulk_write(docs, stop_on_error=True).raise_first()
        db.refresh()
        assert db.doc_count() == 2000
        # Every document must be retrievable through its tenant's SQL query.
        sample = docs[::400]
        for doc in sample:
            result = db.execute_sql(
                f"SELECT transaction_id FROM t WHERE tenant_id = {doc['tenant_id']}"
            )
            assert any(
                r["transaction_id"] == doc["transaction_id"] for r in result.rows
            )


def _eight_tenants(db: ESDB) -> ESDB:
    """One row per tenant 0..7, each with ``status = 2``."""
    for tenant in range(8):
        db.write(make_log(tenant, tenant=tenant, created=float(tenant), status=2))
    db.refresh()
    assert len({db.policy.base_shard(tenant) for tenant in range(8)}) > 1
    return db


class TestTenantUnderOr:
    """A tenant equality under an OR holds for one disjunct only: it must
    not prune the other disjuncts' rows away."""

    def test_tenant_or_other_filter_reads_every_shard(self, db):
        result = _eight_tenants(db).execute_sql(
            "SELECT * FROM t WHERE tenant_id = 1 OR status = 2"
        )
        assert result.total_hits == 8
        assert result.subqueries == 32

    def test_two_tenant_disjuncts_read_both_tenants(self, db):
        result = _eight_tenants(db).execute_sql(
            "SELECT transaction_id FROM t WHERE (tenant_id = 1 AND status = 2) "
            "OR (tenant_id = 2 AND status = 2)"
        )
        assert sorted(row["transaction_id"] for row in result.rows) == [1, 2]
        assert result.subqueries == len(
            {db.policy.base_shard(1), db.policy.base_shard(2)}
        )

    def test_figure_6_template_counts_every_match(self, db):
        # Tenant 1 in a time window with status 1, or any tenant's group 666.
        for i in range(40):
            db.write(make_log(i, tenant=i % 8, created=float(i), status=i % 2,
                              group=666 if i % 5 == 0 else 1))
        db.refresh()
        result = db.execute_sql(
            "SELECT * FROM t WHERE tenant_id = 1 AND created_time BETWEEN 0 AND 50 "
            "AND status = 1 OR group = 666 LIMIT 20"
        )
        expected = [i for i in range(40) if (i % 8 == 1 and i % 2 == 1) or i % 5 == 0]
        assert result.total_hits == len(expected) == 12

    def test_tenant_and_an_or_still_prunes(self, db):
        result = _eight_tenants(db).execute_sql(
            "SELECT * FROM t WHERE tenant_id = 3 AND (status = 2 OR amount <= 5)"
        )
        assert result.total_hits == 1
        assert result.subqueries == 1


class TestTenantInList:
    """``tenant_id IN (a, b)`` — also what the rewriter makes of
    ``tenant_id = a OR tenant_id = b`` — visits each listed tenant's
    shards, not every shard."""

    @pytest.fixture()
    def two(self, db) -> ESDB:
        db.policy.rules.update(10.0, 4, "w")
        db.policy.rules.update(20.0, 8, "v")
        for i in range(40):
            db.write(make_log(i, tenant=("w", "v", "x")[i % 3], created=float(i) * 0.5))
        db.refresh()
        return db

    @pytest.mark.parametrize("where", [
        "tenant_id IN ('w', 'v')", "tenant_id = 'w' OR tenant_id = 'v'",
    ])
    def test_fanout_is_the_union_of_each_tenants_shards(self, two, where):
        result = two.execute_sql(f"SELECT COUNT(*) FROM t WHERE {where}")
        union = set(two.policy.query_shards("w")) | set(two.policy.query_shards("v"))
        assert result.scalar() == 27
        assert result.subqueries == len(union) < 32
        bounded = two.execute_sql(
            f"SELECT COUNT(*) FROM t WHERE ({where}) AND created_time <= 5.0"
        )
        union = set(two.policy.query_shards("w", until=5.0)) | set(
            two.policy.query_shards("v", until=5.0)
        )
        assert bounded.scalar() == 8
        assert bounded.subqueries == len(union) == 2

    def test_two_listed_tenants_are_no_common_tenant(self, two):
        where = parse_sql("SELECT * FROM t WHERE tenant_id IN ('w', 'v')").where
        bounds = routing_bounds(where, two.config.schema)
        assert bounds == (RoutingBounds("w"), RoutingBounds("v"))
        assert common_tenant(bounds) is None
        assert "cross-tenant" not in two.explain(
            "SELECT * FROM t WHERE tenant_id IN ('w', 'v')"
        )


class TestNotFollowsTheNullRule:
    """A row lacking the column matches neither a predicate nor its NOT:
    every negated leaf agrees with ``!=``."""

    @pytest.mark.parametrize("where", [
        "status != 1",
        "NOT (status = 1)",
        "status NOT IN (1)",
        "NOT status IN (1)",
        "NOT status BETWEEN 0 AND 1",
        "status NOT LIKE '1'",
        "NOT MATCH(auction_title, 'silk')",
        "NOT ATTR(color) = 'red'",
    ])
    @pytest.mark.parametrize("optimizer", [True, False])
    def test_a_row_without_the_column_is_not_kept(self, where, optimizer):
        db = ESDB(EsdbConfig(topology=SMALL, optimizer_enabled=optimizer))
        for i, (status, title, attributes) in enumerate(
            ((1, "silk", "color:red"), (None, None, None), (2, "wool", "color:blue")), start=1
        ):
            doc = make_log(i, tenant=1, created=float(i), status=status, title=title,
                           attributes=attributes)
            db.write({k: v for k, v in doc.items() if v is not None})
        db.refresh()
        rows = db.execute_sql(f"SELECT transaction_id FROM t WHERE tenant_id = 1 AND {where}").rows
        assert [row["transaction_id"] for row in rows] == [3]


class TestBoundedFanOut:
    """A statement visits the shards its own bounds allow, derived from the
    rule list: ``match(tenant, upper)`` under an upper time bound, every
    committed offset without one, one shard for an id at a known time."""

    @pytest.fixture()
    def split(self, db) -> ESDB:
        rules = db.policy.rules
        rules.update(10.0, 4, "w")
        rules.update(20.0, 16, "w")
        for i in range(60):
            db.write(make_log(i, tenant="w", created=float(i) * 0.5, status=i % 3))
        db.refresh()
        return db

    def _count(self, db, where: str) -> tuple[int, int]:
        result = db.execute_sql(f"SELECT COUNT(*) FROM t WHERE tenant_id = 'w' AND {where}")
        return result.scalar(), result.subqueries

    def test_exact_fanouts(self, split):
        assert self._count(split, "created_time <= 5.0") == (11, 1)
        assert self._count(split, "created_time BETWEEN 2.0 AND 15.0") == (27, 4)
        assert self._count(split, "created_time < 19.5") == (39, 4)
        assert self._count(split, "created_time < 20.0") == (40, 16)
        assert self._count(split, "created_time >= 25.0") == (10, 16)
        # An id with the time pinned too: one shard.
        assert self._count(split, "transaction_id = 50 AND created_time = 25.0") == (1, 1)
        candidates = split.policy.candidate_shards("w", 50)
        assert self._count(split, "transaction_id = 50") == (1, len(candidates))

    def test_string_id_at_a_known_time_is_one_shard(self, split):
        split.write(make_log("x50", tenant="w", created=25.0))
        split.refresh()
        assert self._count(split, "transaction_id = 'x50' AND created_time = 25.0") == (1, 1)
        assert self._count(split, "created_time = 25.0 AND transaction_id = 'x51'") == (0, 1)
        candidates = split.policy.candidate_shards("w", "x50")
        assert self._count(split, "transaction_id = 'x50'") == (1, len(candidates))

    def test_tightest_numeric_bound_decides(self, split):
        # Two upper bounds (the rewriter merges two `<=` but not `<`): the
        # tighter one decides. A string, bool or NaN bound never prunes.
        assert self._count(split, "created_time < 30 AND created_time <= 5") == (11, 1)
        assert self._count(split, "created_time <= '5'")[1] == 16
        schema = split.config.schema
        for value in (True, float("nan"), "5"):
            where = AndNode((
                ComparisonPredicate("tenant_id", "=", "w"),
                ComparisonPredicate("created_time", "<=", value),
            ))
            assert routing_bounds(where, schema) == (RoutingBounds("w"),)

    def test_result_cache_revalidates_pruned_shards(self, split):
        sql = "SELECT COUNT(*) FROM t WHERE tenant_id = 'w' AND created_time <= 5.0"
        assert split.execute_sql(sql).scalar() == 11
        split.write(make_log(1000, tenant="w", created=4.5))
        split.refresh()
        assert split.execute_sql(sql).scalar() == 12


class TestIdSpellings:
    """``=`` matches ``5`` with ``5.0`` and ``1`` with ``True``, and the
    routing hash encodes them alike: a record is found, and a tenant's
    shards are visited, under any spelling of its key. SQL cannot spell
    ``True`` or ``False``, so the bool spellings are checked on the
    routing policy that decides the fan-out."""

    STORED = (5, 7.0, False)  # each matched by the SQL spelling below
    QUERIED = ("5.0", "7", "0")

    @pytest.fixture()
    def spread(self, db) -> ESDB:
        db.policy.rules.update(10.0, 16, "w")  # offsets 1 and 16
        for stored in (*self.STORED, 1):
            db.write(make_log(stored, tenant="w", created=20.0))
        db.refresh()
        return db

    @pytest.mark.parametrize("time", [False, True])
    def test_every_equal_spelling_is_found(self, spread, time):
        at_time = " AND created_time = 20.0" if time else ""
        for stored, queried in zip(self.STORED, self.QUERIED):
            sql = (
                "SELECT COUNT(*) FROM t WHERE tenant_id = 'w' "
                f"AND transaction_id = {queried}{at_time}"
            )
            assert spread.execute_sql(sql).scalar() == 1, (stored, queried)

    def test_bool_id_visits_the_shard_of_its_int(self, spread):
        policy = spread.policy
        home = policy.route_write("w", 1, 20.0)
        assert spread.engines[home].contains(1)
        at_time = policy.query_shards("w", until=20.0, record_id=True, since=20.0)
        assert list(at_time) == [home]
        assert home in policy.query_shards("w", record_id=True)
        assert policy.route_write("w", False, 20.0) == policy.route_write("w", 0, 20.0)

    def test_float_literal_in_sql(self, spread):
        result = spread.execute_sql(
            "SELECT transaction_id FROM t WHERE tenant_id = 'w' AND transaction_id = 5.0"
        )
        assert [row["transaction_id"] for row in result.rows] == [5]

    def test_tenant_literal_finds_the_tenant_in_any_spelling(self, db):
        for tenant in range(8):
            for i in range(20):
                db.write(make_log(f"{tenant}-{i}", tenant=tenant, created=float(i)))
        db.refresh()
        count = "SELECT COUNT(*) FROM t WHERE tenant_id = {}"
        assert db.execute_sql(count.format("5.0")).scalar() == 20
        assert db.execute_sql(count.format("5")).scalar() == 20
        assert list(db.policy.query_shards(True)) == list(db.policy.query_shards(1))


#: EXPLAIN text for five statements on the ``db`` fixture with tenant 5
#: at offset 4 from t = 10 and 16 from t = 100.
_PINNED_EXPLAIN = (
    (
        'SELECT * FROM t WHERE tenant_id = 5 AND created_time BETWEEN 0 AND 9 AND status = 1 LIMIT 10',
        'SQL: SELECT * FROM t WHERE tenant_id = 5 AND created_time BETWEEN 0 AND 9 AND status = 1 LIMIT 10\n'
        "ES-DSL: {'bool': {'must': [{'term': {'field': 'tenant_id', 'value': 5}}, {'term': {'field': 'status', 'value': 1}}, {'range': {'field': 'created_time', 'gte': 0, 'lte': 9}}]}}\n"
        'rewrite: depth 2 -> 2, width 3 -> 3\n'
        'plan:\n'
        '  SeqScanFilter status = 1\n'
        '    CompositeIndexSearch tenant_id_created_time [tenant_id=5] range created_time in [0, 9]\n'
        'fan-out: 1 shard(s) [0..0] (tenant_id = 5, created_time <= 9 -> offset 1 of 16)\n'
        'pushdown: per-shard LIMIT 10',
    ),
    (
        'SELECT * FROM t WHERE tenant_id = 5 AND created_time <= 50.0 AND (status = 1 OR status = 2) ORDER BY created_time DESC LIMIT 20',
        'SQL: SELECT * FROM t WHERE tenant_id = 5 AND created_time <= 50.0 AND (status = 1 OR status = 2) ORDER BY created_time DESC LIMIT 20\n'
        "ES-DSL: {'bool': {'should': [{'bool': {'must': [{'term': {'field': 'tenant_id', 'value': 5}}, {'term': {'field': 'status', 'value': 1}}, {'range': {'field': 'created_time', 'lte': 50.0}}]}}, {'bool': {'must': [{'term': {'field': 'tenant_id', 'value': 5}}, {'term': {'field': 'status', 'value': 2}}, {'range': {'field': 'created_time', 'lte': 50.0}}]}}]}}\n"
        'rewrite: depth 3 -> 3, width 4 -> 6\n'
        'plan:\n'
        '  Union\n'
        '    SeqScanFilter status = 1\n'
        '      CompositeIndexSearch tenant_id_created_time [tenant_id=5] range created_time in [None, 50.0]\n'
        '    SeqScanFilter status = 2\n'
        '      CompositeIndexSearch tenant_id_created_time [tenant_id=5] range created_time in [None, 50.0]\n'
        'fan-out: 4 shard(s) [0..3] (tenant_id = 5, created_time <= 50.0 -> offset 4 of 16)\n'
        'pushdown: per-shard LIMIT 20',
    ),
    (
        "SELECT status, COUNT(*), SUM(amount) FROM t WHERE tenant_id = 7 AND auction_title LIKE '%silk%' GROUP BY status HAVING COUNT(*) > 2",
        "SQL: SELECT status, COUNT(*), SUM(amount) FROM t WHERE tenant_id = 7 AND auction_title LIKE '%silk%' GROUP BY status HAVING COUNT(*) > 2\n"
        "ES-DSL: {'bool': {'must': [{'term': {'field': 'tenant_id', 'value': 7}}, {'wildcard': {'field': 'auction_title', 'value': '*silk*'}}]}}\n"
        'rewrite: depth 2 -> 2, width 2 -> 2\n'
        'plan:\n'
        "  SeqScanFilter auction_title like '%silk%'\n"
        '    CompositeIndexSearch tenant_id_created_time [tenant_id=7]\n'
        'fan-out: 1 shard(s) [18..18] (tenant_id = 7 -> offset 1 of 1)',
    ),
    (
        "SELECT transaction_id FROM t WHERE tenant_id = 5 AND MATCH(auction_title, 'cotton shirt') AND ATTR(color) = 'red'",
        "SQL: SELECT transaction_id FROM t WHERE tenant_id = 5 AND MATCH(auction_title, 'cotton shirt') AND ATTR(color) = 'red'\n"
        "ES-DSL: {'bool': {'must': [{'term': {'field': 'tenant_id', 'value': 5}}, {'match': {'field': 'auction_title', 'query': 'cotton shirt'}}, {'sub_attr': {'key': 'color', 'value': 'red'}}]}}\n"
        'rewrite: depth 2 -> 2, width 3 -> 3\n'
        'plan:\n'
        '  Intersect\n'
        '    CompositeIndexSearch tenant_id_created_time [tenant_id=5]\n'
        "    TextMatch auction_title ~ 'cotton shirt'\n"
        '    SubAttrSearch color:red\n'
        'fan-out: 16 shard(s) [0..15] (tenant_id = 5 -> offset 16 of 16)',
    ),
    (
        'SELECT * FROM t WHERE NOT (status = 1 AND quantity >= 3) OR group = 666',
        'SQL: SELECT * FROM t WHERE NOT (status = 1 AND quantity >= 3) OR group = 666\n'
        "ES-DSL: {'bool': {'should': [{'bool': {'must_not': [{'term': {'field': 'status', 'value': 1}}]}}, {'range': {'field': 'quantity', 'lt': 3}}, {'term': {'field': 'group', 'value': 666}}]}}\n"
        'rewrite: depth 4 -> 2, width 3 -> 3\n'
        'plan:\n'
        '  Union\n'
        '    SeqScanFilter status != 1\n'
        '      MatchAll\n'
        '    SeqScanFilter quantity < 3\n'
        '      MatchAll\n'
        '    IndexSearch group = 666\n'
        'fan-out: 32 shard(s) [0..31] (cross-tenant: a disjunct names no tenant)',
    ),
)


# -- WHERE trees in routing_bounds' vocabulary ---------------------------------

_TENANTS = ("5", "'w'")  # the two tenants with committed rules
_TIMES = st.sampled_from(("0", "5.0", "10", "15.5", "20", "50", "100", "150"))
_TENANT = st.one_of(
    st.sampled_from(_TENANTS).map(lambda t: f"tenant_id = {t}"),
    st.just(f"tenant_id IN ({', '.join(_TENANTS)})"),
)
_TIME = st.one_of(
    st.builds("created_time {} {}".format, st.sampled_from(("=", "<", "<=", ">", ">=")), _TIMES),
    st.lists(_TIMES, min_size=2, max_size=2).map(
        lambda ends: "created_time BETWEEN {} AND {}".format(*sorted(ends, key=float))
    ),
)
_ID = st.sampled_from(("7", "'x7'", "50")).map(lambda v: f"transaction_id = {v}")
_CONJUNCTION = st.tuples(
    # A disjunct without a tenant makes the statement cross-tenant.
    st.integers(0, 3).flatmap(lambda n: _TENANT.map(lambda t: [t]) if n else st.just([])),
    st.lists(_TIME, max_size=2),
    st.lists(_ID, max_size=1),
    st.lists(st.just("status = 1"), max_size=1),  # the non-routing conjunct
).map(lambda parts: " AND ".join(sum(parts, [])))
_WHERE = st.lists(_CONJUNCTION.filter(bool), min_size=1, max_size=3).map(
    lambda disjuncts: " OR ".join(f"({d})" for d in disjuncts)
)
_FANOUT = re.compile(r"^fan-out: (\d+) shard\(s\) (\[[^\]]*\])", re.MULTILINE)


def _explained_shards(text: str, num_shards: int) -> list[int]:
    """The shards EXPLAIN's fan-out line lists, in order: ``[first..last]``
    is the consecutive run from *first*, wrapping past the last shard."""
    count, listed = _FANOUT.search(text).groups()
    if ".." not in listed:
        return ast.literal_eval(listed)
    first, last = (int(end) for end in listed[1:-1].split(".."))
    shards = [(first + i) % num_shards for i in range(int(count))]
    assert shards[-1] == last
    return shards


class TestExplain:
    def test_explain_names_the_bound_that_pruned(self, db):
        db.policy.rules.update(10.0, 4, 5)
        db.policy.rules.update(100.0, 16, 5)
        base = db.policy.base_shard(5)
        text = db.explain("SELECT * FROM t WHERE tenant_id = 5 AND created_time <= 50.0")
        assert (
            f"fan-out: 4 shard(s) [{base}..{(base + 3) % 32}] "
            "(tenant_id = 5, created_time <= 50.0 -> offset 4 of 16)"
        ) in text
        text = db.explain("SELECT * FROM t WHERE tenant_id = 5 AND transaction_id = 'x7'")
        shards = list(db.policy.candidate_shards(5, "x7"))
        assert f"fan-out: {len(shards)} shard(s) {shards} " in text
        assert "(tenant_id = 5, transaction_id = 'x7' -> 3 of 16 shard(s))" in text
        text = db.explain("SELECT * FROM t WHERE tenant_id = 5 OR status = 1")
        assert "fan-out: 32 shard(s) [0..31] (cross-tenant: a disjunct names no tenant)" in text

    def test_explain_shows_plan_and_fanout(self, db):
        text = db.explain(
            "SELECT * FROM t WHERE tenant_id = 5 AND created_time BETWEEN 0 AND 9 "
            "AND status = 1 LIMIT 10"
        )
        assert "CompositeIndexSearch" in text
        assert "fan-out: 1 shard(s)" in text
        assert "pushdown: per-shard LIMIT 10" in text
        assert "ES-DSL" in text

    def test_explain_counts_the_fanout_as_execution_does(self, db):
        db.policy.rules.update(10.0, 16, 5)
        metrics, policy = db.telemetry.metrics, db.policy.name
        sql = (
            "SELECT * FROM t WHERE (tenant_id = 5 AND created_time <= 50.0) "
            "OR (tenant_id = 5 AND transaction_id = 'x7')"
        )
        added = []
        for run in (db.explain, db.execute_sql):
            before = metrics.value("routing_query_fanout_total", policy=policy)
            run(sql)
            added.append(metrics.value("routing_query_fanout_total", policy=policy) - before)
        assert added[0] == added[1] > 0

    def test_explain_text_is_pinned(self, db):
        # The rewrite's ES-DSL tree and depth/width are derived on demand
        # for EXPLAIN alone; the text it prints stays as it was.
        db.policy.rules.update(10.0, 4, 5)
        db.policy.rules.update(100.0, 16, 5)
        for sql, text in _PINNED_EXPLAIN:
            assert db.explain(sql) == text

    @settings(max_examples=60, deadline=None)
    @given(where=_WHERE)
    def test_explain_lists_the_shards_execution_visits(self, where):
        db = ESDB(EsdbConfig(topology=SMALL, auto_refresh_every=None, cache=False))
        db.policy.rules.update(10.0, 4, 5)
        db.policy.rules.update(100.0, 16, 5)
        db.policy.rules.update(20.0, 8, "w")
        sql = f"SELECT * FROM t WHERE {where}"
        explained = _explained_shards(db.explain(sql), SMALL.num_shards)
        executed = [
            int(span.name[len("query.shard["):-1])
            for span in db.explain_analyze(sql).children
            if span.name.startswith("query.shard[")
        ]
        assert explained == executed

    def test_explain_does_not_execute(self, db):
        fetched_before = sum(e.stats.docs_fetched for e in db.engines.values())
        db.explain("SELECT * FROM t WHERE tenant_id = 5")
        assert sum(e.stats.docs_fetched for e in db.engines.values()) == fetched_before


class TestIntrospectionIsNotAQuery:
    def test_snapshot_and_tenant_fanout_leave_the_fanout_counter(self, db):
        from repro.obsv import snapshot

        for i in range(30):
            db.write(make_log(i, tenant=i % 3, created=float(i)))
        db.policy.rules.update(10.0, 4, 1)
        db.refresh()
        metrics, policy = db.telemetry.metrics, db.policy.name
        before = metrics.value("routing_query_fanout_total", policy=policy)
        spans = {row["tenant"]: row["span"] for row in snapshot(db)["cluster"]["tenants"]}
        assert spans == {"0": 1, "1": 4, "2": 1}
        assert [db.tenant_fanout(t) for t in range(3)] == [1, 4, 1]
        assert metrics.value("routing_query_fanout_total", policy=policy) == before == 0
        # The span is what an unbounded statement for the tenant visits.
        assert db.execute_sql("SELECT * FROM t WHERE tenant_id = 1").subqueries == 4


class TestFacadeReplication:
    def _replicated_db(self):
        return ESDB(
            EsdbConfig(
                topology=ClusterTopology(num_nodes=3, num_shards=6),
                auto_refresh_every=None,
                replication="physical",
            )
        )

    def test_replicate_syncs_all_shards(self):
        db = self._replicated_db()
        for i in range(60):
            db.write(make_log(i, tenant=i % 5, created=float(i)))
        synced = db.replicate()
        assert synced == 6  # one in-sync replica per shard

    def test_fail_primary_preserves_all_data(self):
        db = self._replicated_db()
        for i in range(60):
            db.write(make_log(i, tenant=7, created=float(i)))
        db.replicate()
        # A few more writes reach only the translog channel.
        for i in range(60, 65):
            db.write(make_log(i, tenant=7, created=float(i)))
        shards = list(db.policy.query_shards(7))
        for shard_id in shards:
            if shard_id in db.replica_sets:
                db.fail_primary(shard_id)
        db.refresh()
        result = db.execute_sql("SELECT COUNT(*) FROM t WHERE tenant_id = 7")
        assert result.scalar() == 65

    def test_updates_and_deletes_survive_failover(self):
        db = self._replicated_db()
        shard = db.write(make_log(1, tenant="t", created=1.0, status=0))
        db.write(make_log(2, tenant="t", created=2.0))
        db.update(1, {"status": 9}, tenant_id="t")
        db.delete(2, tenant_id="t")
        db.replicate()
        db.fail_primary(shard)
        db.refresh()
        result = db.execute_sql("SELECT transaction_id, status FROM t WHERE tenant_id = 't'")
        assert [dict(r) for r in result.rows] == [{"transaction_id": 1, "status": 9}]

    def test_replicate_requires_enabled_config(self, db):
        from repro.errors import EsdbError

        with pytest.raises(EsdbError):
            db.replicate()

    def test_unsupported_mode_rejected(self):
        from repro.errors import EsdbError

        with pytest.raises(EsdbError):
            ESDB(EsdbConfig(topology=SMALL, replication="carrier-pigeon"))


class TestAdaptiveSubattributeSuggestions:
    def test_suggestions_track_query_frequency(self, db):
        db.write(make_log(1, tenant=1, created=0.0,
                          attributes="hot_attr:v;cold_attr:v"))
        db.refresh()
        for _ in range(5):
            db.execute_sql("SELECT * FROM t WHERE tenant_id = 1 AND ATTR(hot_attr) = 'v'")
        db.execute_sql("SELECT * FROM t WHERE tenant_id = 1 AND ATTR(cold_attr) = 'v'")
        suggested = db.suggest_subattribute_indexes(k=1)
        assert suggested == frozenset({"hot_attr"})

    def test_write_frequency_breaks_ties(self, db):
        for i in range(10):
            db.write(make_log(i, tenant=1, created=0.0, attributes="written_often:v"))
        db.write(make_log(99, tenant=1, created=0.0, attributes="written_once:v"))
        suggested = db.suggest_subattribute_indexes(k=1)
        assert suggested == frozenset({"written_often"})


class TestOffIsAbsent:
    """A recording subsystem that is off is never built, and the consumer
    tuple holds only the ones that are on, in the order they are fed."""

    OPTIONAL = (Observer, SloEngine, HeavyHitterProfiler, TimeSeriesStore, TenantGovernor)

    @pytest.fixture()
    def built(self, monkeypatch):
        """The optional subsystem classes constructed while it is in use."""
        built = []
        for cls in self.OPTIONAL:
            def init(self, *args, original=cls.__init__, **kwargs):
                built.append(type(self))
                original(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", init)
        return built

    def test_all_off_builds_none_of_them(self, built):
        db = ESDB(EsdbConfig(obsv=ObsvConfig.off(), timeseries_enabled=False))
        assert built == []
        assert db.consumers == (db._subattr_frequencies,)
        db.write(make_log(1))
        db.refresh()
        assert db.execute_sql("SELECT * FROM transaction_logs WHERE tenant_id = 't1'").rows
        db.rebalance()
        assert built == []

    def test_all_on_builds_each_once_and_feeds_them_in_order(self, built):
        db = ESDB(EsdbConfig(slo=True, tenancy=TenancyConfig(enabled=True)))
        assert sorted(cls.__name__ for cls in built) == sorted(
            cls.__name__ for cls in self.OPTIONAL
        )
        assert [type(consumer) for consumer in db.consumers] == [
            Observer, FrequencyTracker, TenantGovernor, SloEngine, TimeSeriesStore,
        ]
