"""End-to-end tests for the ESDB facade."""

from __future__ import annotations

import pytest

from repro import ESDB, EsdbConfig, HashRouting
from repro.balancer import BalancerConfig
from repro.cluster import ClusterTopology
from repro.errors import EsdbError, QueryError
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
        db.update(1, {"status": 4})
        db.refresh()
        result = db.execute_sql("SELECT status FROM t WHERE tenant_id = 't'")
        assert result.rows[0]["status"] == 4
        db.delete(1)
        db.refresh()
        assert db.doc_count() == 0

    def test_unknown_doc_id_raises(self, db):
        with pytest.raises(QueryError):
            db.update(999, {})

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
        assert shards <= db.policy.query_shards("whale").as_set()
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
        db.update(5, {"status": 8})
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


class TestExplain:
    def test_explain_shows_plan_and_fanout(self, db):
        text = db.explain(
            "SELECT * FROM t WHERE tenant_id = 5 AND created_time BETWEEN 0 AND 9 "
            "AND status = 1 LIMIT 10"
        )
        assert "CompositeIndexSearch" in text
        assert "fan-out: 1 shard(s)" in text
        assert "pushdown: per-shard LIMIT 10" in text
        assert "ES-DSL" in text

    def test_explain_does_not_execute(self, db):
        fetched_before = sum(e.stats.docs_fetched for e in db.engines.values())
        db.explain("SELECT * FROM t WHERE tenant_id = 5")
        assert sum(e.stats.docs_fetched for e in db.engines.values()) == fetched_before


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
        db.write(make_log(1, tenant="t", created=1.0, status=0))
        db.write(make_log(2, tenant="t", created=2.0))
        db.update(1, {"status": 9})
        db.delete(2)
        shard = db._doc_shard[1]
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


class TestClusterShardRelocation:
    def test_relocate_primaries_of_dead_node(self):
        from repro.cluster import Cluster, ClusterTopology

        cluster = Cluster(ClusterTopology(num_nodes=4, num_shards=16))
        victim = 2
        before = set(cluster.nodes[victim].shard_ids)
        cluster.fail_node(victim)
        moved = cluster.relocate_primaries_of(victim)
        assert set(moved) == before
        for shard_id, new_node in moved.items():
            assert new_node != victim
            assert cluster.nodes[new_node].alive
            assert shard_id in cluster.nodes[new_node].shard_ids
        assert cluster.nodes[victim].shard_ids == set()

    def test_relocate_requires_dead_node(self):
        from repro.cluster import Cluster, ClusterTopology
        from repro.errors import ClusterError

        cluster = Cluster(ClusterTopology(num_nodes=4, num_shards=8))
        with pytest.raises(ClusterError):
            cluster.relocate_primaries_of(0)

    def test_shards_without_live_replica_stay_put(self):
        from repro.cluster import Cluster, ClusterTopology

        cluster = Cluster(ClusterTopology(num_nodes=2, num_shards=4, replicas_per_shard=0))
        cluster.fail_node(1)
        assert cluster.relocate_primaries_of(1) == {}
