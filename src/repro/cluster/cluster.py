"""Cluster topology: shard allocation and master election.

Allocation mirrors the paper's setup: shards and replicas are spread across
worker nodes round-robin from a seeded shuffle ("randomly allocated"), with
the invariant that a shard's replica is never placed on the same node as its
primary. The default topology matches the evaluation cluster: 8 worker
nodes, 512 shards, one replica per shard.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cluster.node import Node
from repro.cluster.shard import Replica, Shard
from repro.errors import ClusterError, ConfigurationError, ShardAllocationError


@dataclass(frozen=True)
class ClusterTopology:
    """Static description of a cluster layout.

    Attributes:
        num_nodes: worker node count (paper: 8).
        num_shards: shard count (paper: 512).
        replicas_per_shard: replica copies per shard (paper: 1).
        node_capacity: per-node write service rate in ops/sec (simulator).
    """

    num_nodes: int = 8
    num_shards: int = 512
    replicas_per_shard: int = 1
    node_capacity: float = 20_000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if self.replicas_per_shard < 0:
            raise ConfigurationError("replicas_per_shard must be >= 0")
        if self.replicas_per_shard >= self.num_nodes and self.replicas_per_shard > 0:
            raise ConfigurationError(
                "need more nodes than replicas to avoid co-locating copies"
            )


class Cluster:
    """A shared-nothing ESDB cluster: nodes, shards, replicas, master."""

    def __init__(self, topology: ClusterTopology | None = None) -> None:
        self.topology = topology or ClusterTopology()
        self.nodes: list[Node] = [
            Node(node_id=i, capacity=self.topology.node_capacity)
            for i in range(self.topology.num_nodes)
        ]
        self.shards: list[Shard] = []
        self.replicas: dict[int, list[Replica]] = {}
        self._allocate(self.topology.seed)
        self._master_id: int | None = None
        self.elect_master()

    # -- allocation ----------------------------------------------------------
    def _allocate(self, seed: int) -> None:
        """Place primaries round-robin over a seeded node shuffle, then place
        each replica on the next distinct live node."""
        rng = random.Random(seed)
        order = list(range(self.topology.num_nodes))
        rng.shuffle(order)
        for shard_id in range(self.topology.num_shards):
            primary_node = order[shard_id % len(order)]
            shard = Shard(shard_id=shard_id, node_id=primary_node)
            self.shards.append(shard)
            self.nodes[primary_node].shard_ids.add(shard_id)
            copies = []
            for r in range(1, self.topology.replicas_per_shard + 1):
                replica_node = order[(shard_id + r) % len(order)]
                if replica_node == primary_node:
                    raise ShardAllocationError(
                        f"replica of shard {shard_id} would co-locate with primary"
                    )
                copies.append(Replica(shard_id=shard_id, node_id=replica_node))
                self.nodes[replica_node].replica_shard_ids.add(shard_id)
            self.replicas[shard_id] = copies

    # -- lookups ---------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.topology.num_shards

    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    def shard(self, shard_id: int) -> Shard:
        if not 0 <= shard_id < len(self.shards):
            raise ClusterError(f"unknown shard {shard_id}")
        return self.shards[shard_id]

    # -- master election ---------------------------------------------------------
    @property
    def master(self) -> Node:
        if self._master_id is None:
            raise ClusterError("no master elected")
        return self.nodes[self._master_id]

    def elect_master(self) -> Node:
        """Elect the lowest-id live node as master (deterministic election)."""
        for node in self.nodes:
            node.demote_master()
        for node in self.nodes:
            if node.alive:
                node.promote_master()
                self._master_id = node.node_id
                return node
        raise ClusterError("no live node available for master election")

    def fail_node(self, node_id: int) -> None:
        """Fail a node; re-elect the master if it was the master."""
        node = self.nodes[node_id]
        node.fail()
        if self._master_id == node_id:
            self.elect_master()

    def restart_node(self, node_id: int) -> None:
        self.nodes[node_id].restart()
