"""Simulation parameters and cost models.

The cost model captures the two write-path costs the paper measures:

* every write costs one service unit on its primary's node;
* the replica node spends ``replica_write_cost`` units per write — 1.0 under
  logical replication (the replica re-executes indexing), and a small
  fraction under physical replication (it only appends the write to its
  translog and later copies sealed segment bytes, §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Simulation step (seconds): the scenarios' default tick.
TICK_SECONDS = 1.0
#: Fixed per-write completion latency (seconds) added on top of queueing
#: delay: refresh interval + network; the paper's balanced-policy delays
#: bottom out around 0.2 s.
BASE_WRITE_LATENCY = 0.2
#: Hard cap on a client queue's backlog, in seconds of arrivals, so saturated
#: scenarios don't accumulate unbounded state.
MAX_QUEUE_SECONDS = 600.0


@dataclass(frozen=True)
class ReplicationCostModel:
    """Per-write CPU cost split between primary and replica nodes.

    Attributes:
        primary_write_cost: service units a primary spends per write.
        replica_write_cost: service units the replica's node spends per
            write. Logical replication re-executes the write (≈1.0);
            physical replication only syncs the translog and copies segment
            bytes (the paper's measurements imply roughly a quarter of the
            indexing cost).
    """

    primary_write_cost: float = 1.0
    replica_write_cost: float = 1.0

    def __post_init__(self) -> None:
        if self.primary_write_cost <= 0 or self.replica_write_cost < 0:
            raise ConfigurationError("invalid replication costs")

    @staticmethod
    def logical() -> "ReplicationCostModel":
        """Elasticsearch's logical replication: replicas re-execute writes."""
        return ReplicationCostModel(primary_write_cost=1.0, replica_write_cost=1.0)

    @staticmethod
    def physical() -> "ReplicationCostModel":
        """ESDB's physical replication: replicas receive segment files."""
        return ReplicationCostModel(primary_write_cost=1.0, replica_write_cost=0.25)


@dataclass(frozen=True)
class SimulationConfig:
    """Write-simulation parameters (defaults = the paper's testbed scale).

    Attributes:
        num_nodes: worker nodes (paper: 8).
        num_shards: shards (paper: 512).
        node_capacity: service units per node per second. With logical
            replication each write costs 2 units total, so 8 nodes at 42K
            units/s put the balanced-policy ceiling at 168K TPS — just above
            the paper's 160K operating point (Fig 11), with the rate sweep
            of Fig 10 crossing it.
        sample_per_tick: how many representative writes are routed per tick;
            arrival mass is scaled from the sample (fluid-flow approximation).
        balance_window: monitor reporting period for the dynamic policy.
        consensus_interval: the effective-time lag T of rule commits.
    """

    num_nodes: int = 8
    num_shards: int = 512
    node_capacity: float = 42_000.0
    sample_per_tick: int = 2_000
    balance_window: float = 10.0
    consensus_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.num_shards < 1:
            raise ConfigurationError("need at least one node and one shard")
        if self.node_capacity <= 0:
            raise ConfigurationError("node_capacity must be positive")
        if self.sample_per_tick < 1:
            raise ConfigurationError("sample_per_tick must be >= 1")
