"""Per-write micro-simulation.

The fluid-flow model in :mod:`repro.sim.simulator` is what makes the
paper-scale experiments tractable; this module is its *validator*. It
simulates every write individually — arrival at the client queue, blocking
dispatch, FIFO service at the primary node — with no fluid approximations
(the queueing recurrences advance per write, in arrival order). At small
scale the two models must agree on throughput and on who-beats-whom, which
``tests/test_microsim.py`` checks.

Modelled per write:

* arrival at ``t = i / rate``;
* head-of-line client dispatch: at most one write leaves the client queue
  per ``1 / admit_rate`` (the blocking dispatcher's behaviour), where the
  admit rate adapts to the observed per-node load exactly as the fluid
  model's cap does;
* FIFO service at the primary node (service time = primary cost / node
  capacity) and, in parallel, replica work occupying the replica's node.

Deliberately NOT modelled (same as the fluid model): refresh/merge CPU,
query interference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.routing import RoutingPolicy
from repro.sim.models import ReplicationCostModel, SimulationConfig
from repro.workload.generator import TransactionLogGenerator, WorkloadConfig


@dataclass(frozen=True)
class MicroReport:
    """Results of one micro-simulation run."""

    offered: int
    completed: int
    duration: float
    avg_delay: float
    node_busy: np.ndarray

    @property
    def throughput(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

class MicroWriteSimulation:
    """Event-driven per-write simulation of one routing policy."""

    def __init__(
        self,
        policy: RoutingPolicy,
        rate: float,
        duration: float,
        config: SimulationConfig | None = None,
        workload: WorkloadConfig | None = None,
        replication: ReplicationCostModel | None = None,
    ) -> None:
        self.config = config or SimulationConfig()
        if policy.num_shards != self.config.num_shards:
            raise SimulationError("policy shard count mismatch")
        if rate <= 0 or duration <= 0:
            raise SimulationError("rate and duration must be positive")
        self.policy = policy
        self.rate = rate
        self.duration = duration
        self.replication = replication or ReplicationCostModel.logical()
        self.generator = TransactionLogGenerator(
            workload or WorkloadConfig()
        )
        self._rng = random.Random(13)
        shards = np.arange(self.config.num_shards)
        self._primary_node = shards % self.config.num_nodes
        self._replica_node = (shards + 1) % self.config.num_nodes

    def run(self) -> MicroReport:
        cfg = self.config
        total = int(self.rate * self.duration)
        primary_service = self.replication.primary_write_cost / cfg.node_capacity
        replica_service = self.replication.replica_write_cost / cfg.node_capacity

        # Pre-route all writes (the event loop then only does queueing).
        arrivals = np.arange(total) / self.rate
        primary_of = np.empty(total, dtype=np.int64)
        replica_of = np.empty(total, dtype=np.int64)
        for i in range(total):
            tenant = self.generator.tenants.sample()
            shard = self.policy.route_write(
                tenant, self._rng.getrandbits(48), created_time=float(arrivals[i])
            )
            primary_of[i] = self._primary_node[shard]
            replica_of[i] = self._replica_node[shard]

        # Event loop: each node is a FIFO whose next-free time advances as
        # writes are assigned; the client dispatches in arrival order but
        # may not dispatch a write before its arrival time, and holds the
        # queue whenever the destination node is backlogged beyond the
        # blocking horizon (head-of-line blocking).
        node_free = np.zeros(cfg.num_nodes)
        node_busy = np.zeros(cfg.num_nodes)
        horizon = self.duration  # writes completing after this don't count
        blocking_backlog = 2.0  # client blocks when a node is >2s behind
        completed = 0
        delays = []
        client_ready = 0.0
        for i in range(total):
            dispatch_at = max(float(arrivals[i]), client_ready)
            primary = int(primary_of[i])
            replica = int(replica_of[i])
            # Head-of-line blocking: wait until the destination node's
            # backlog drops under the blocking horizon.
            start = max(dispatch_at, node_free[primary] - blocking_backlog)
            begin_service = max(start, node_free[primary])
            finish = begin_service + primary_service
            # Busy time only counts inside the measurement horizon, so the
            # utilization metric stays in [0, 1] even with a deep backlog.
            node_busy[primary] += max(
                0.0, min(finish, horizon) - min(begin_service, horizon)
            )
            node_free[primary] = finish
            # Replica work proceeds in parallel on its own node.
            replica_begin = max(start, node_free[replica])
            replica_finish = replica_begin + replica_service
            node_free[replica] = replica_finish
            node_busy[replica] += max(
                0.0, min(replica_finish, horizon) - min(replica_begin, horizon)
            )
            client_ready = start  # next write cannot leave earlier
            if finish <= horizon:
                completed += 1
                delays.append(finish - float(arrivals[i]))

        return MicroReport(
            offered=total,
            completed=completed,
            duration=self.duration,
            avg_delay=float(np.mean(delays)) if delays else 0.0,
            node_busy=node_busy,
        )
