"""One end-to-end lifecycle exercising every major feature together.

A single scenario that chains, in order: replicated writes → hotspot
balancing via consensus → read-your-writes updates across the split →
dynamic index creation → aggregate analytics with HAVING →
frequency-indexing suggestions → primary failover → final consistency
checks. If any two features interact badly, this is where it shows.
"""

from __future__ import annotations

import pytest

from repro import ESDB, EsdbConfig
from repro.balancer import BalancerConfig
from repro.cluster import ClusterTopology
from repro.obsv import render_dashboard, snapshot
from tests.conftest import make_log


@pytest.fixture(scope="module")
def story():
    """Run the whole lifecycle once; individual tests assert its stages."""
    db = ESDB(
        EsdbConfig(
            topology=ClusterTopology(num_nodes=3, num_shards=12),
            auto_refresh_every=None,
            balancer=BalancerConfig(hotspot_share=0.3, target_share_per_shard=0.1),
            replication="physical",
        )
    )
    facts: dict = {"db": db}

    # Stage 1: replicated writes — a whale plus background tenants.
    clock = 0.0
    for i in range(120):
        clock += 0.01
        tenant = "whale" if i % 4 != 3 else f"small-{i % 7}"
        db.write(
            make_log(
                i,
                tenant=tenant,
                created=clock,
                status=i % 3,
                amount=float(i),
                attributes="activity:sale;color:red" if i % 2 else "activity:sale",
            )
        )
    facts["writes"] = 120

    # Stage 2: balancing — the whale must split.
    facts["committed"] = db.rebalance()
    facts["whale_fanout"] = db.tenant_fanout("whale")

    # Stage 3: read-your-writes across the split.
    db.update(0, {"status": 9}, tenant_id="whale")
    clock = max(t for _, _, t in facts["committed"]) + 1.0
    for i in range(200, 260):
        clock += 0.01
        db.write(make_log(i, tenant="whale", created=clock, amount=float(i)))
    facts["post_split_writes"] = 60

    # Stage 4: a composite index for the analytics workload, built live.
    db.add_index(("group", "amount"))

    # Stage 5: replicate, then lose every primary of the whale's range.
    db.replicate()
    whale_shards = list(db.policy.query_shards("whale"))
    for shard_id in whale_shards:
        if shard_id in db.replica_sets:
            db.fail_primary(shard_id)
    facts["failed_shards"] = whale_shards
    db.refresh()
    return facts


class TestLifecycle:
    def test_whale_was_split(self, story):
        assert any(t == "whale" for t, _, _ in story["committed"])
        assert story["whale_fanout"] > 1

    def test_all_whale_records_survive_failover(self, story):
        db = story["db"]
        result = db.execute_sql("SELECT COUNT(*) FROM t WHERE tenant_id = 'whale'")
        expected = sum(1 for i in range(120) if i % 4 != 3) + story["post_split_writes"]
        assert result.scalar() == expected

    def test_read_your_writes_update_survived(self, story):
        db = story["db"]
        result = db.execute_sql(
            "SELECT status FROM t WHERE tenant_id = 'whale' AND transaction_id = 0"
        )
        assert result.rows[0]["status"] == 9

    def test_added_index_is_live(self, story):
        assert ("group", "amount") in story["db"].coordinator.optimizer.catalog.composite_indexes

    def test_aggregate_with_having_after_failover(self, story):
        db = story["db"]
        result = db.execute_sql(
            "SELECT status, COUNT(*), AVG(amount) FROM t "
            "WHERE tenant_id = 'whale' GROUP BY status HAVING COUNT(*) > 5"
        )
        assert result.rows
        assert all(r["count(*)"] > 5 for r in result.rows)

    def test_frequency_suggestions_reflect_writes(self, story):
        db = story["db"]
        suggested = db.suggest_subattribute_indexes(k=1)
        assert suggested == frozenset({"activity"})

    def test_rendered_dashboard_coherent(self, story):
        db = story["db"]
        page = render_dashboard(snapshot(db))
        rules = page.split("-- routing rules --\n", 1)[1].split("\n\n", 1)[0]
        assert "whale" in rules
