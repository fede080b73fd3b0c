"""Cross-module integration tests: full-stack scenarios spanning routing,
balancing, consensus, storage, replication and the query layer."""

from __future__ import annotations


from repro import ESDB, EsdbConfig, DynamicSecondaryHashRouting
from repro.balancer import BalancerConfig
from repro.client import WriteClient, WriteClientConfig
from repro.cluster import ClusterTopology
from repro.obsv import render_dashboard, snapshot
from repro.replication import PhysicalReplicator
from repro.storage import ShardEngine
from repro.workload import TransactionLogGenerator, WorkloadConfig
from tests.conftest import make_log

SMALL = ClusterTopology(num_nodes=4, num_shards=32)


class TestWriteClientAgainstFacade:
    """The routing-aware write client dispatching into a real instance."""

    def test_one_hop_batches_reach_correct_engines(self):
        db = ESDB(EsdbConfig(topology=SMALL, auto_refresh_every=None))

        def dispatch(shard_id: int, sources: list) -> None:
            for source in sources:
                db.engines[shard_id].index(source)

        client = WriteClient(db.policy, dispatch, WriteClientConfig(batch_size=16))
        generator = TransactionLogGenerator(
            WorkloadConfig(num_tenants=50, theta=1.0, seed=3)
        )
        docs = [generator.generate(created_time=i * 0.01) for i in range(500)]
        for doc in docs:
            client.submit(doc)
        client.flush()
        db.refresh()
        assert db.doc_count() == 500
        # Every document is findable through the facade's SQL path.
        sample = docs[::97]
        for doc in sample:
            result = db.execute_sql(
                f"SELECT transaction_id FROM t WHERE tenant_id = {doc['tenant_id']}"
            )
            assert any(r["transaction_id"] == doc["transaction_id"] for r in result.rows)

    def test_coalesced_lifecycle_materializes_final_state(self):
        db = ESDB(EsdbConfig(topology=SMALL, auto_refresh_every=None))

        def dispatch(shard_id: int, sources: list) -> None:
            for source in sources:
                db.engines[shard_id].index(source)

        client = WriteClient(db.policy, dispatch)
        for status in (0, 1, 2, 3):
            client.submit(make_log(42, tenant="t", created=1.0, status=status))
        client.flush()
        db.refresh()
        result = db.execute_sql("SELECT status FROM t WHERE tenant_id = 't'")
        assert result.total_hits == 1
        assert result.rows[0]["status"] == 3


class TestReplicatedShardFailover:
    """Physical replication + promote: the full §5.2 + failover story."""

    def _replicated_engine(self, engine_config):
        primary = ShardEngine(engine_config, shard_id=0)
        replicator = PhysicalReplicator(primary)
        return primary, replicator

    def test_promoted_replica_answers_queries(self, engine_config):
        primary, replicator = self._replicated_engine(engine_config)
        for i in range(20):
            primary.index(make_log(i, tenant="t", created=float(i), status=i % 2))
            replicator.sync_translog_entry(primary.translog[-1])
        primary.refresh()
        replicator.replicate()
        # Two writes after the last replication round (only in the translog).
        for i in range(20, 23):
            primary.index(make_log(i, tenant="t", created=float(i), status=1))
            replicator.sync_translog_entry(primary.translog[-1])

        # Primary dies; replica takes over.
        promoted = replicator.promote_replica()
        promoted.refresh()
        assert promoted.doc_count() == 23
        rows = promoted.term_postings("status", 1)
        docs = promoted.fetch(rows)
        assert {d["transaction_id"] for d in docs} == {i for i in range(23) if i % 2 or i >= 20}

    def test_failover_loses_nothing_across_merge(self, engine_config):
        from dataclasses import replace

        from repro.storage import TieredMergePolicy

        config = replace(engine_config, auto_refresh_every=None)
        primary = ShardEngine(config, merge_policy=TieredMergePolicy(merge_factor=2))
        replicator = PhysicalReplicator(primary)
        for batch in range(3):
            for i in range(4):
                doc_id = batch * 10 + i
                primary.index(make_log(doc_id, tenant="t", created=float(doc_id)))
                replicator.sync_translog_entry(primary.translog[-1])
            primary.refresh()
            replicator.replicate()
        assert primary.stats.merges >= 1
        promoted = replicator.promote_replica()
        promoted.refresh()
        assert promoted.doc_count() == primary.doc_count() == 12


class TestBalancingUnderNodeFailure:
    """Consensus-driven balancing keeps working after a master failover."""

    def test_rules_commit_after_participant_recovery(self):
        db = ESDB(
            EsdbConfig(
                topology=SMALL,
                auto_refresh_every=None,
                balancer=BalancerConfig(hotspot_share=0.2, target_share_per_shard=0.05),
            )
        )
        # Crash one consensus participant: every rebalance aborts.
        victim = db.consensus.participants[2]
        victim.crash()
        for i in range(100):
            db.write(make_log(i, tenant="whale", created=i * 0.01))
        assert db.rebalance() == []
        assert db.tenant_fanout("whale") == 1

        # Recover and catch up; the *next* hotspot window succeeds.
        victim.recover()
        db.consensus.catch_up(victim)
        for i in range(100, 220):
            db.write(make_log(i, tenant="whale", created=i * 0.01))
        committed = db.rebalance()
        assert any(t == "whale" for t, _, _ in committed)
        assert db.tenant_fanout("whale") > 1

    def test_cluster_master_failover_keeps_serving(self):
        db = ESDB(EsdbConfig(topology=SMALL, auto_refresh_every=None))
        for i in range(50):
            db.write(make_log(i, tenant=9, created=i * 0.01))
        old_master = db.cluster.master.node_id
        db.cluster.fail_node(old_master)
        assert db.cluster.master.node_id != old_master
        db.refresh()
        result = db.execute_sql("SELECT COUNT(*) FROM t WHERE tenant_id = 9")
        assert result.scalar() == 50


class TestRuleCompactionLifecycle:
    def test_compaction_preserves_facade_query_results(self):
        db = ESDB(
            EsdbConfig(
                topology=SMALL,
                auto_refresh_every=None,
                balancer=BalancerConfig(hotspot_share=0.2, target_share_per_shard=0.05),
            )
        )
        clock = 0.0
        for round_ in range(3):
            for i in range(100):
                clock += 0.01
                db.write(make_log(round_ * 1000 + i, tenant="whale", created=clock))
            db.rebalance()
            clock += 10.0
            db.advance_clock(clock)
        db.refresh()
        policy = db.policy
        assert isinstance(policy, DynamicSecondaryHashRouting)
        before = db.execute_sql("SELECT COUNT(*) FROM t WHERE tenant_id = 'whale'")
        policy.rules.compact()
        after = db.execute_sql("SELECT COUNT(*) FROM t WHERE tenant_id = 'whale'")
        assert before.scalar() == after.scalar() == 300


class TestRenderedDashboard:
    def test_dashboard_mentions_everything(self):
        db = ESDB(
            EsdbConfig(
                topology=SMALL,
                auto_refresh_every=None,
                balancer=BalancerConfig(hotspot_share=0.2, target_share_per_shard=0.05),
            )
        )
        for i in range(120):
            db.write(make_log(i, tenant="whale", created=i * 0.01))
        db.rebalance()
        db.refresh()
        page = render_dashboard(snapshot(db))
        assert "== esdb dashboard :: 4 nodes / " in page
        assert "-- nodes --\nnode   roles health primaries replicas docs" in page
        assert "  engines: 120 writes" in page
        rules = page.split("-- routing rules --\n", 1)[1].split("\n\n", 1)[0]
        assert "whale" in rules
