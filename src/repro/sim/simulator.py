"""The fluid-flow write simulation.

Each tick:

1. the scenario supplies an arrival rate; a seeded sample of writes is drawn
   from the workload generator and routed through the *real* policy object,
   giving the per-shard arrival distribution (sample counts scaled to rate);
2. shard mass maps to per-node work: primary cost on the primary's node and
   replica cost on the replica's node (cost model);
3. **head-of-line blocking** (§3.1): write clients buffer workloads in a
   queue and dispatch batches to workers; when any worker is overloaded the
   queue blocks. The simulator therefore admits writes only as fast as the
   *most loaded* node can absorb its share — the mechanism behind Figure
   13a, where with hashing the hotspot's node pair runs at full capacity
   while every other node idles. Un-dispatched writes queue at the client
   and their wait is the paper's *write delay*;
4. for the dynamic policy, per-tenant counts feed the monitor; every balance
   window the balancer proposes rules which commit through the consensus
   master and take effect ``T`` seconds later — the routing change happens
   exactly at the committed effective time because router and simulator
   share one rule list.

The model deliberately omits per-write event scheduling: at 160K writes/s x
15 min the paper's workloads are beyond per-event simulation in Python, and
the phenomena under study (saturation points, backlog growth, imbalance)
are flow-level. See DESIGN.md for the substitution argument.
"""

from __future__ import annotations

import random

import numpy as np

from repro.balancer import LoadBalancer, WorkloadMonitor
from repro.consensus import ConsensusConfig, ConsensusMaster, Participant, RuleProposal
from repro.errors import ConsensusAborted, SimulationError
from repro.routing import DynamicSecondaryHashRouting, RoutingPolicy
from repro.sim.metrics import MetricsCollector, SimulationReport
from repro.sim.models import (
    BASE_WRITE_LATENCY,
    MAX_QUEUE_SECONDS,
    TICK_SECONDS,
    ReplicationCostModel,
    SimulationConfig,
)
from repro.workload.generator import TransactionLogGenerator, WorkloadConfig
from repro.workload.scenarios import Scenario


#: A tenant whose share of a tick's sample reaches this is a hotspot in
#: isolation mode.
ISOLATION_THRESHOLD = 0.02


class WriteSimulation:
    """Simulates one routing policy under one workload scenario."""

    def __init__(
        self,
        policy: RoutingPolicy,
        scenario: Scenario,
        config: SimulationConfig | None = None,
        workload: WorkloadConfig | None = None,
        replication: ReplicationCostModel | None = None,
        hotspot_isolation: bool = False,
    ) -> None:
        self.config = config or SimulationConfig()
        if policy.num_shards != self.config.num_shards:
            raise SimulationError(
                f"policy covers {policy.num_shards} shards, config expects "
                f"{self.config.num_shards}"
            )
        self.policy = policy
        self.scenario = scenario
        self.replication = replication or ReplicationCostModel.logical()
        self.hotspot_isolation = hotspot_isolation
        self._hot_backlog = 0.0  # hotspot-queue writes (isolation mode)
        #: (time, ordinary_wait, hotspot_wait) per tick in isolation mode.
        self.isolation_delays: list[tuple[float, float, float]] = []
        self.generator = TransactionLogGenerator(
            workload or WorkloadConfig()
        )
        self.metrics = MetricsCollector(self.config.num_nodes, self.config.num_shards)
        # Shard placement: primary on shard % nodes, replica on the next node
        # (never co-located), matching repro.cluster's allocation invariant.
        shards = np.arange(self.config.num_shards)
        self._primary_node = shards % self.config.num_nodes
        self._replica_node = (shards + 1) % self.config.num_nodes
        self._rng = random.Random(7)
        self._client_backlog = 0.0  # writes waiting in the client queue
        self._work_ewma: np.ndarray | None = None  # smoothed node-load estimate

        # Dynamic-policy machinery (inert for static policies).
        self._is_dynamic = isinstance(policy, DynamicSecondaryHashRouting)
        self.monitor = WorkloadMonitor(window_seconds=self.config.balance_window)
        self.balancer = LoadBalancer(self.monitor, self.config.num_shards)
        participants = [Participant(f"node-{i}") for i in range(self.config.num_nodes)]
        self.consensus = ConsensusMaster(
            participants,
            ConsensusConfig(effective_interval=self.config.consensus_interval),
        )
        self._next_balance_time = self.config.balance_window
        self.rule_commits: list[tuple[float, object, int]] = []
        #: Realized arrival statistics (set after ``run`` for scenarios
        #: that carry an :class:`~repro.workload.arrivals.ArrivalStats`).
        self.arrival_stats = None

    # -- main loop -----------------------------------------------------------
    def run(self) -> SimulationReport:
        """Run the scenario to completion; returns the steady-state report."""
        for tick in self.scenario.ticks():
            self.scenario.apply(self.generator, tick)
            self._step(tick.time, tick.rate)
        # Arrival-driven scenarios accumulate realized-stream statistics
        # (interarrival quantiles, burstiness) as their ticks are drawn;
        # surface them for reports and the dashboard.
        self.arrival_stats = getattr(self.scenario, "stats", None)
        return self.metrics.report(warmup=self._warmup_seconds())

    def _warmup_seconds(self) -> float:
        return min(self.scenario.duration * 0.2, 30.0)

    def _step(self, now: float, rate: float) -> None:
        cfg = self.config
        sample_size = min(cfg.sample_per_tick, max(int(rate * TICK_SECONDS), 1))

        # Route a representative sample through the real policy to get the
        # current per-shard distribution of the write stream. When hotspot
        # isolation is on, per-tenant sample counts split the stream into a
        # hotspot substream and an ordinary substream (§3.1).
        shard_fraction = np.zeros(cfg.num_shards)
        samples: list[tuple[object, int]] = []
        tenant_counts: dict[object, int] = {}
        for _ in range(sample_size):
            tenant = self.generator.tenants.sample()
            record_id = self._rng.getrandbits(48)
            shard = self.policy.route_write(tenant, record_id, created_time=now)
            shard_fraction[shard] += 1.0
            samples.append((tenant, shard))
            tenant_counts[tenant] = tenant_counts.get(tenant, 0) + 1
            if self._is_dynamic:
                self.monitor.record_write(tenant, shard, now)
        shard_fraction /= sample_size

        hot_shard_fraction = None
        if self.hotspot_isolation:
            hot_tenants = {
                tenant
                for tenant, count in tenant_counts.items()
                if count / sample_size >= ISOLATION_THRESHOLD
            }
            hot_shard_fraction = np.zeros(cfg.num_shards)
            for tenant, shard in samples:
                if tenant in hot_tenants:
                    hot_shard_fraction[shard] += 1.0
            hot_shard_fraction /= sample_size

        # Per-write work each node receives (service units per admitted write).
        node_work_per_write = np.zeros(cfg.num_nodes)
        np.add.at(
            node_work_per_write,
            self._primary_node,
            shard_fraction * self.replication.primary_write_cost,
        )
        np.add.at(
            node_work_per_write,
            self._replica_node,
            shard_fraction * self.replication.replica_write_cost,
        )

        # Smooth the load estimate across ticks: real dispatchers average
        # queue-depth signals over many batches, so per-tick multinomial
        # sampling noise should not drive the admission decision.
        if self._work_ewma is None or self._work_ewma.shape != node_work_per_write.shape:
            self._work_ewma = node_work_per_write.copy()
        else:
            alpha = 0.2
            self._work_ewma = alpha * node_work_per_write + (1 - alpha) * self._work_ewma
        smoothed_work = self._work_ewma

        offered = rate * TICK_SECONDS

        if self.hotspot_isolation and hot_shard_fraction is not None:
            admitted, node_served, client_wait = self._dispatch_isolated(
                now, offered, rate, shard_fraction, hot_shard_fraction
            )
        else:
            dispatchable = self._client_backlog + offered
            admitted, node_served = self._dispatch_blocking(dispatchable, smoothed_work)
            self._client_backlog = dispatchable - admitted
            max_backlog = rate * MAX_QUEUE_SECONDS
            self._client_backlog = min(self._client_backlog, max_backlog)
            admit_rate = max(admitted / TICK_SECONDS, 1e-9)
            client_wait = self._client_backlog / admit_rate
        # Admission never overloads a node, so nodes hold no backlog: the
        # whole queueing delay is the client's.
        avg_delay = max_delay = BASE_WRITE_LATENCY + client_wait

        node_cpu = node_served / (cfg.node_capacity * TICK_SECONDS)
        primary_per_write = np.zeros(cfg.num_nodes)
        np.add.at(
            primary_per_write,
            self._primary_node,
            shard_fraction * self.replication.primary_write_cost,
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            primary_share = np.where(
                node_work_per_write > 0, primary_per_write / node_work_per_write, 0.0
            )
        node_throughput = (
            node_served * primary_share / self.replication.primary_write_cost
        ) / TICK_SECONDS

        completed = float(node_throughput.sum() * TICK_SECONDS)
        self.metrics.record_tick(
            time=now,
            offered=offered,
            completed=completed,
            avg_delay=avg_delay,
            max_delay=max_delay,
            node_throughput=node_throughput,
            node_cpu=node_cpu,
            shard_throughput=shard_fraction * admitted,
        )

        if self._is_dynamic and now >= self._next_balance_time:
            self._rebalance(now)
            self._next_balance_time = now + self.config.balance_window

    def _node_work(self, shard_mass: np.ndarray) -> np.ndarray:
        """Map per-shard write mass to per-node service work."""
        work = np.zeros(self.config.num_nodes)
        np.add.at(
            work, self._primary_node, shard_mass * self.replication.primary_write_cost
        )
        np.add.at(
            work, self._replica_node, shard_mass * self.replication.replica_write_cost
        )
        return work

    def _dispatch_isolated(
        self,
        now: float,
        offered: float,
        rate: float,
        shard_fraction: np.ndarray,
        hot_shard_fraction: np.ndarray,
    ) -> tuple[float, np.ndarray, float]:
        """Hotspot isolation (§3.1): ordinary writes dispatch through their
        own queue, gated only by the *ordinary* stream's most loaded node;
        hotspot writes queue separately and consume whatever per-node
        headroom the ordinary stream leaves. A blocked hotspot therefore
        never stalls ordinary tenants. Returns (admitted, node_served,
        blended client wait) and records per-class waits in
        :attr:`isolation_delays`.
        """
        cfg = self.config
        capacity = cfg.node_capacity * TICK_SECONDS
        hot_share = float(hot_shard_fraction.sum())
        normal_share = max(1.0 - hot_share, 0.0)
        normal_fraction = shard_fraction - hot_shard_fraction

        # Per-write node work of each substream (unit: one write of that class).
        normal_work = (
            self._node_work(normal_fraction / normal_share)
            if normal_share > 1e-9
            else np.zeros(cfg.num_nodes)
        )
        hot_work = (
            self._node_work(hot_shard_fraction / hot_share)
            if hot_share > 1e-9
            else np.zeros(cfg.num_nodes)
        )

        normal_dispatchable = self._client_backlog + offered * normal_share
        positive = normal_work[normal_work > 0]
        normal_cap = capacity / positive.max() if positive.size else 0.0
        admitted_normal = min(normal_dispatchable, normal_cap)
        self._client_backlog = min(
            normal_dispatchable - admitted_normal, rate * MAX_QUEUE_SECONDS
        )

        headroom = capacity - normal_work * admitted_normal
        hot_dispatchable = self._hot_backlog + offered * hot_share
        hot_caps = [
            headroom[i] / hot_work[i]
            for i in range(cfg.num_nodes)
            if hot_work[i] > 0
        ]
        hot_cap = max(min(hot_caps), 0.0) if hot_caps else 0.0
        admitted_hot = min(hot_dispatchable, hot_cap)
        self._hot_backlog = min(
            hot_dispatchable - admitted_hot, rate * MAX_QUEUE_SECONDS
        )

        ordinary_wait = min(
            self._client_backlog / max(admitted_normal / TICK_SECONDS, 1e-9),
            MAX_QUEUE_SECONDS,
        )
        hotspot_wait = min(
            self._hot_backlog / max(admitted_hot / TICK_SECONDS, 1e-9),
            MAX_QUEUE_SECONDS,
        )
        self.isolation_delays.append((now, ordinary_wait, hotspot_wait))

        admitted = admitted_normal + admitted_hot
        node_served = normal_work * admitted_normal + hot_work * admitted_hot
        blended_wait = (
            ordinary_wait * normal_share + hotspot_wait * hot_share
            if (normal_share + hot_share) > 0
            else 0.0
        )
        return admitted, node_served, blended_wait

    def _dispatch_blocking(
        self, dispatchable: float, work_per_write: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Admit writes only as fast as the most loaded node can absorb its
        share — the client queue blocks on the hotspot (§3.1)."""
        positive = work_per_write[work_per_write > 0]
        if positive.size == 0:
            return 0.0, np.zeros_like(work_per_write)
        capacity = self.config.node_capacity * TICK_SECONDS
        admit_cap = capacity / positive.max()
        admitted = min(dispatchable, admit_cap)
        node_served = work_per_write * admitted  # all ≤ capacity by design
        return admitted, node_served

    # -- balancing -----------------------------------------------------------
    def _rebalance(self, now: float) -> None:
        """Run one balance round: monitor window → proposals → consensus."""
        self.monitor.roll_window(now)
        proposals = self.balancer.rebalance()
        rules = self.policy.rules  # type: ignore[attr-defined]
        for proposal in proposals:
            try:
                outcome = self.consensus.propose(
                    RuleProposal("sim", proposal.tenant_id, proposal.offset), now
                )
            except ConsensusAborted:
                self.balancer.retract(proposal)
                continue
            rules.update(outcome.effective_time, proposal.offset, proposal.tenant_id)
            self.rule_commits.append(
                (outcome.effective_time, proposal.tenant_id, proposal.offset)
            )


def run_policy_comparison(
    policies: dict[str, RoutingPolicy],
    scenario_factory,
    config: SimulationConfig | None = None,
    workload: WorkloadConfig | None = None,
    replication: ReplicationCostModel | None = None,
) -> dict[str, SimulationReport]:
    """Run the same scenario under several policies; returns name → report.

    *scenario_factory* is called once per policy so each run gets a fresh
    scenario iterator (and identical workload seeds give identical arrivals).
    """
    reports = {}
    for name, policy in policies.items():
        simulation = WriteSimulation(
            policy,
            scenario_factory(),
            config=config,
            workload=workload,
            replication=replication,
        )
        reports[name] = simulation.run()
    return reports
