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

    def replica_nodes_of_shard(self, shard_id: int) -> list[Node]:
        self.shard(shard_id)
        return [self.nodes[r.node_id] for r in self.replicas.get(shard_id, [])]

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

    def relocate_primaries_of(self, node_id: int) -> dict[int, int]:
        """Promote replicas of a dead node's primaries: each shard whose
        primary lived on *node_id* moves to one of its replica nodes (the
        master's shard-allocation duty, §3.2). Returns
        ``{shard_id: new_node_id}``; shards without a live replica are left
        in place (data loss would need operator action)."""
        moved: dict[int, int] = {}
        dead = self.nodes[node_id]
        if dead.alive:
            raise ClusterError(f"node {node_id} is alive; fail it first")
        for shard_id in sorted(dead.shard_ids):
            candidates = [
                replica
                for replica in self.replicas.get(shard_id, [])
                if self.nodes[replica.node_id].alive
            ]
            if not candidates:
                continue
            target = candidates[0]
            shard = self.shards[shard_id]
            new_node = target.node_id
            shard.node_id = new_node
            self.nodes[new_node].shard_ids.add(shard_id)
            self.nodes[new_node].replica_shard_ids.discard(shard_id)
            # The dead node keeps the shard's replica slot (stale copy)
            # until an operator reseeds it.
            target.node_id = node_id
            dead.replica_shard_ids.add(shard_id)
            moved[shard_id] = new_node
        for shard_id in moved:
            dead.shard_ids.discard(shard_id)
        return moved

    def restart_node(self, node_id: int) -> None:
        self.nodes[node_id].restart()

    # -- introspection --------------------------------------------------------
    def shard_counts_per_node(self) -> dict[int, int]:
        """Return {node_id: primary shard count} (allocation balance check)."""
        return {n.node_id: len(n.shard_ids) for n in self.nodes}
