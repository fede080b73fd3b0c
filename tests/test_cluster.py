"""Tests for cluster topology, shard allocation, master election."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterTopology, NodeRole
from repro.errors import ClusterError, ConfigurationError


class TestTopologyValidation:
    def test_paper_defaults(self):
        t = ClusterTopology()
        assert t.num_nodes == 8
        assert t.num_shards == 512
        assert t.replicas_per_shard == 1

    def test_rejects_replica_colocating_configs(self):
        with pytest.raises(ConfigurationError):
            ClusterTopology(num_nodes=1, replicas_per_shard=1)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ConfigurationError):
            ClusterTopology(num_nodes=0)
        with pytest.raises(ConfigurationError):
            ClusterTopology(num_shards=0)


class TestAllocation:
    def test_primaries_balanced_across_nodes(self):
        cluster = Cluster(ClusterTopology(num_nodes=8, num_shards=512))
        assert {len(node.shard_ids) for node in cluster.nodes} == {64}

    def test_replica_never_on_primary_node(self):
        cluster = Cluster(ClusterTopology(num_nodes=8, num_shards=512))
        for shard in cluster.shards:
            for replica in cluster.replicas[shard.shard_id]:
                assert replica.node_id != shard.node_id

    def test_zero_replicas_supported(self):
        cluster = Cluster(ClusterTopology(num_nodes=2, num_shards=4, replicas_per_shard=0))
        assert cluster.replicas.get(0, []) == []

    def test_seed_changes_placement(self):
        a = Cluster(ClusterTopology(num_nodes=8, num_shards=16, seed=1))
        b = Cluster(ClusterTopology(num_nodes=8, num_shards=16, seed=2))
        placement_a = [s.node_id for s in a.shards]
        placement_b = [s.node_id for s in b.shards]
        assert placement_a != placement_b

    def test_unknown_shard_rejected(self):
        cluster = Cluster(ClusterTopology(num_nodes=2, num_shards=4, replicas_per_shard=0))
        with pytest.raises(ClusterError):
            cluster.shard(99)


class TestMasterElection:
    def test_one_master_elected(self):
        cluster = Cluster(ClusterTopology(num_nodes=4, num_shards=8))
        masters = [n for n in cluster.nodes if n.is_master]
        assert masters == [cluster.master]

    def test_master_failover(self):
        cluster = Cluster(ClusterTopology(num_nodes=4, num_shards=8))
        old_master = cluster.master.node_id
        cluster.fail_node(old_master)
        assert cluster.master.node_id != old_master
        assert cluster.master.alive

    def test_non_master_failure_keeps_master(self):
        cluster = Cluster(ClusterTopology(num_nodes=4, num_shards=8))
        master_id = cluster.master.node_id
        victim = next(n.node_id for n in cluster.nodes if n.node_id != master_id)
        cluster.fail_node(victim)
        assert cluster.master.node_id == master_id

    def test_all_nodes_dead_raises(self):
        cluster = Cluster(ClusterTopology(num_nodes=2, num_shards=4, replicas_per_shard=0))
        cluster.fail_node(1)
        with pytest.raises(ClusterError):
            cluster.fail_node(0)

    def test_restart_allows_reelection(self):
        cluster = Cluster(ClusterTopology(num_nodes=2, num_shards=4, replicas_per_shard=0))
        cluster.fail_node(0)
        cluster.restart_node(0)
        assert cluster.elect_master().node_id == 0


class TestNode:
    def test_roles(self):
        cluster = Cluster(ClusterTopology(num_nodes=2, num_shards=4, replicas_per_shard=0))
        node = cluster.nodes[0]
        assert node.roles & NodeRole.WORKER
        assert node.roles & NodeRole.COORDINATOR
