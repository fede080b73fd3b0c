"""Cluster nodes.

Every ESDB node plays the coordinator role on the control layer and the
worker role on the execution layer; one node per cluster is additionally
elected master (§3). Nodes carry a service capacity (writes/sec) used by the
performance simulator and expose simple health toggles for fault-injection
tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


class NodeRole(enum.Flag):
    """Roles a node can play simultaneously."""

    WORKER = enum.auto()
    COORDINATOR = enum.auto()
    MASTER = enum.auto()


@dataclass
class Node:
    """One physical/virtual machine in the cluster.

    Attributes:
        node_id: stable integer identifier.
        capacity: write service rate in operations/second (simulator input).
        roles: the roles this node currently plays.
    """

    node_id: int
    capacity: float = 20_000.0
    roles: NodeRole = NodeRole.WORKER | NodeRole.COORDINATOR
    alive: bool = True
    shard_ids: set = field(default_factory=set)
    replica_shard_ids: set = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError("node capacity must be positive")

    @property
    def name(self) -> str:
        return f"node-{self.node_id}"

    @property
    def is_master(self) -> bool:
        return bool(self.roles & NodeRole.MASTER)

    def promote_master(self) -> None:
        self.roles |= NodeRole.MASTER

    def demote_master(self) -> None:
        self.roles &= ~NodeRole.MASTER

    def fail(self) -> None:
        """Mark the node dead (used by allocation and election tests)."""
        self.alive = False

    def restart(self) -> None:
        self.alive = True
