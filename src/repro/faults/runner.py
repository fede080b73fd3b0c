"""The chaos harness: interleave a seeded workload with a fault plan,
then prove the system healed.

:class:`ChaosRunner` owns a complete, physically replicated ESDB instance
plus a routing-aware :class:`~repro.client.WriteClient`, drives a
deterministic transaction-log workload through it step by step, fires the
plan's fault events at their scheduled steps, and records every write
whose dispatch was *acknowledged*. After the run it performs full
recovery (heal everything, consensus catch-up, dead-letter redrive, one
final replication round) and checks the safety invariants:

1. **No acknowledged write lost** — every acked document is readable from
   its shard with exactly the acknowledged source.
2. **Rule convergence** — every consensus participant's rule list equals
   the master's after catch-up.
3. **Nothing left blocked** — no participant still holds a dangling
   prepare or a stale ``blocked_after`` watermark.
4. **Failover completed** — every surviving replica set's primary is the
   shard's serving engine, and the dead-letter queue drained.

Same plan + same config ⇒ bit-identical :meth:`ChaosReport.fingerprint`,
so a failing seed is a complete, replayable bug report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    ConfigurationError,
    ConsensusAborted,
    EsdbError,
    FaultInjectionError,
    ReplicationError,
    TenantThrottledError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos run.

    Attributes:
        steps: workload steps (one submitted write per step).
        num_nodes / num_shards / replicas_per_shard: topology under test.
        num_tenants: tenant universe of the Zipf workload.
        flush_every: client flush cadence (steps).
        replicate_every: replication-round cadence (steps).
        propose_every: consensus rule-proposal cadence (0 = never) — keeps
            rounds in flight so node faults actually exercise the protocol.
        time_step: logical seconds per workload step.
        flood_tenant / flood_factor: the noisy-neighbor workload — when
            set, every step submits ``flood_factor`` extra writes pinned to
            ``flood_tenant`` on top of the ordinary Zipf write.
        tenancy: a :class:`~repro.tenancy.TenancyConfig` to govern the
            instance under chaos (None, the default, runs ungoverned and
            keeps historical fingerprints bit-identical).
        tracing: a :class:`~repro.telemetry.TraceConfig` for the instance
            under chaos (None uses the instance default). Fingerprints
            must be bit-identical whether tracing is on or off — trace-id
            allocation never touches the workload's RNG or clocks.
        slo: a :class:`~repro.slo.SloConfig` for the instance under chaos
            (None uses the instance default, i.e. disabled). Like tracing,
            SLO tracking observes the workload without touching its RNG or
            clocks, so fingerprints must be bit-identical on or off.
        trace_path: a recorded workload trace (v1 or v2, see
            :mod:`repro.workload.trace`) to drive the run instead of the
            built-in Zipf generator — one workload step per trace record,
            the logical clock following the recorded arrival timestamps.
            ``steps`` and ``time_step`` are ignored on trace runs (the
            trace supplies both count and clock); None (the default) keeps
            historical fingerprints bit-identical.
    """

    steps: int = 400
    num_nodes: int = 3
    num_shards: int = 8
    replicas_per_shard: int = 2
    num_tenants: int = 200
    flush_every: int = 16
    replicate_every: int = 64
    propose_every: int = 50
    time_step: float = 0.05
    flood_tenant: object | None = None
    flood_factor: int = 0
    tenancy: object | None = None
    tracing: object | None = None
    slo: object | None = None
    trace_path: str | None = None

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigurationError("steps must be >= 1")
        if self.num_nodes < 1 or self.num_shards < 1 or self.num_tenants < 1:
            raise ConfigurationError(
                "num_nodes/num_shards/num_tenants must be >= 1"
            )
        if self.replicas_per_shard < 0:
            raise ConfigurationError("replicas_per_shard must be >= 0")
        if self.flush_every < 1 or self.replicate_every < 1:
            raise ConfigurationError("flush_every/replicate_every must be >= 1")
        if self.propose_every < 0:
            raise ConfigurationError("propose_every must be >= 0")
        if self.time_step <= 0:
            raise ConfigurationError("time_step must be positive")
        if self.flood_factor < 0:
            raise ConfigurationError("flood_factor must be >= 0")
        if self.flood_factor and self.flood_tenant is None:
            raise ConfigurationError("flood_factor needs a flood_tenant")


@dataclass
class ChaosReport:
    """Outcome of one chaos run — everything in it is deterministic for a
    given (plan, config): no wall-clock values, no unseeded randomness."""

    seed: int
    steps: int
    writes_submitted: int = 0
    writes_acked: int = 0
    writes_coalesced: int = 0
    dead_letters_redriven: int = 0
    faults_injected: int = 0
    faults_recovered: int = 0
    consensus_commits: int = 0
    consensus_aborts: int = 0
    replicate_errors: int = 0
    shard_docs: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    governed: bool = False
    writes_throttled: int = 0
    throttled_by_tenant: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def fingerprint(self) -> str:
        """A stable digest of the run for same-seed reproducibility checks.

        The tenancy segment only appears on governed runs, so every
        historical ungoverned fingerprint stays bit-identical."""
        docs = ",".join(f"{sid}:{count}" for sid, count in sorted(self.shard_docs.items()))
        base = (
            f"seed={self.seed} steps={self.steps} acked={self.writes_acked} "
            f"coalesced={self.writes_coalesced} redriven={self.dead_letters_redriven} "
            f"faults={self.faults_injected}/{self.faults_recovered} "
            f"consensus={self.consensus_commits}/{self.consensus_aborts} "
            f"docs=[{docs}] violations={len(self.violations)}"
        )
        if self.governed:
            throttled = ",".join(
                f"{tenant}:{count}"
                for tenant, count in sorted(
                    self.throttled_by_tenant.items(), key=lambda kv: str(kv[0])
                )
            )
            base += f" throttled={self.writes_throttled}[{throttled}]"
        return base

    def render(self) -> str:
        lines = [
            f"chaos run: seed={self.seed} steps={self.steps} -> "
            f"{'OK' if self.ok else 'INVARIANT VIOLATIONS'}",
            f"  writes: {self.writes_submitted} submitted, {self.writes_acked} acked, "
            f"{self.writes_coalesced} coalesced, {self.dead_letters_redriven} redriven",
            f"  faults: {self.faults_injected} injected, {self.faults_recovered} recovered",
            f"  consensus: {self.consensus_commits} committed, "
            f"{self.consensus_aborts} aborted rounds",
            f"  replication: {self.replicate_errors} failed round(s)",
            "  docs/shard: "
            + ", ".join(f"{sid}={count}" for sid, count in sorted(self.shard_docs.items())),
        ]
        if self.governed:
            by_tenant = ", ".join(
                f"{tenant}={count}"
                for tenant, count in sorted(
                    self.throttled_by_tenant.items(), key=lambda kv: str(kv[0])
                )
            )
            lines.append(
                f"  tenancy: {self.writes_throttled} write(s) throttled"
                + (f" ({by_tenant})" if by_tenant else "")
            )
        for violation in self.violations:
            lines.append(f"  !! {violation}")
        return "\n".join(lines)


class ChaosRunner:
    """Drives one fault plan against a fresh, fully wired instance."""

    def __init__(self, plan: FaultPlan, config: ChaosConfig | None = None,
                 telemetry=None) -> None:
        from repro.client import WriteClient, WriteClientConfig
        from repro.cluster import ClusterTopology
        from repro.esdb import ESDB, EsdbConfig
        from repro.workload.generator import TransactionLogGenerator, WorkloadConfig

        self.plan = plan
        self.config = config or ChaosConfig()
        if self.config.replicas_per_shard < 1:
            raise ConfigurationError("chaos runs need at least one replica per shard")
        esdb_kwargs = {}
        if self.config.tenancy is not None:
            esdb_kwargs["tenancy"] = self.config.tenancy
        if self.config.tracing is not None:
            esdb_kwargs["tracing"] = self.config.tracing
        if self.config.slo is not None:
            esdb_kwargs["slo"] = self.config.slo
        self.db = ESDB(
            EsdbConfig(
                topology=ClusterTopology(
                    num_nodes=self.config.num_nodes,
                    num_shards=self.config.num_shards,
                    replicas_per_shard=self.config.replicas_per_shard,
                    seed=plan.seed,
                ),
                replication="physical",
                consensus_interval=1.0,
                auto_refresh_every=64,
                **esdb_kwargs,
            ),
            telemetry=telemetry,
        )
        self.injector = FaultInjector(self.db)
        self.db.faults = self.injector
        self.client = WriteClient(
            self.db.policy,
            self._dispatch,
            WriteClientConfig(
                batch_size=32,
                coalesce_window=1 << 30,  # the runner controls flush cadence
                dispatch_retries=2,
                backoff_base_seconds=0.0,  # logical time only: never sleep
            ),
            telemetry=self.db.telemetry,
        )
        self.generator = TransactionLogGenerator(
            WorkloadConfig(num_tenants=self.config.num_tenants, seed=plan.seed)
        )
        # A recorded trace replaces the generator: load it eagerly so a
        # malformed file fails construction, not step 137 of the run.
        self._trace_events: list[tuple[float, dict]] | None = None
        self._end_time = self.config.steps * self.config.time_step
        if self.config.trace_path is not None:
            from repro.workload.trace import read_trace_events

            info, events = read_trace_events(self.config.trace_path)
            self._trace_events = list(events)
            if not self._trace_events:
                raise ConfigurationError(
                    f"trace {self.config.trace_path} has no documents"
                )
            self._end_time = info.duration
        schema = self.db.config.schema
        self._id_field = schema.id_field
        self._tenant_field = schema.tenant_field
        self.acked: dict[object, dict] = {}
        self.report = ChaosReport(
            seed=plan.seed,
            steps=(
                len(self._trace_events)
                if self._trace_events is not None
                else self.config.steps
            ),
            governed=self.db.governor is not None,
        )

    # -- dispatch (the acknowledgement boundary) ---------------------------
    def _dispatch(self, shard_id: int, sources: list) -> None:
        if self.injector.dispatch_blackholed(shard_id):
            raise FaultInjectionError(f"dispatch to shard {shard_id} blackholed")
        result = self.db.bulk_write(sources)
        for item, source in zip(result.items, sources):
            if item.ok:
                # The write reached a primary and its translog: acknowledged.
                self.acked[source[self._id_field]] = dict(source)
            elif isinstance(item.error, TenantThrottledError):
                # A per-write admission-control rejection, not a shard
                # fault: the rest of the batch still lands, and the shed
                # write is deliberately NOT acknowledged (the no-acked-
                # write-lost invariant must not expect it back).
                self.report.writes_throttled += 1
                tenant = source[self._tenant_field]
                self.report.throttled_by_tenant[tenant] = (
                    self.report.throttled_by_tenant.get(tenant, 0) + 1
                )
            else:
                # A shard fault mid-batch: surface it to the client so
                # its retry/dead-letter machinery sees the dispatch fail.
                raise item.error

    # -- the run ------------------------------------------------------------
    def run(self) -> ChaosReport:
        """Workload + faults, then full recovery and invariant checks."""
        config = self.config
        for step, (now, doc) in enumerate(self._steps()):
            self.db.advance_clock(now)
            for event in self.plan.events_at(step):
                self._apply(event, now)
            self.client.submit(doc)
            self.report.writes_submitted += 1
            for _ in range(config.flood_factor):
                flood_doc = self.generator.generate(
                    created_time=now, tenant_id=config.flood_tenant
                )
                self.client.submit(flood_doc)
                self.report.writes_submitted += 1
            if (step + 1) % config.flush_every == 0:
                self.client.flush()
            if (step + 1) % config.replicate_every == 0:
                self._replicate(now)
            if config.propose_every and (step + 1) % config.propose_every == 0:
                self._propose(step, now)
        self.recover()
        self.report.writes_acked = len(self.acked)
        self.report.writes_coalesced = self.client.stats["coalesced"]
        self.report.shard_docs = {
            sid: engine.total_docs_including_buffer()
            for sid, engine in sorted(self.db.engines.items())
        }
        self.report.violations = self.check_invariants()
        return self.report

    def _steps(self):
        """Yield ``(now, document)`` per workload step — from the recorded
        trace when configured, else the built-in Zipf generator on the
        fixed ``time_step`` grid."""
        if self._trace_events is not None:
            for now, doc in self._trace_events:
                yield now, dict(doc)
            return
        for step in range(self.config.steps):
            now = step * self.config.time_step
            yield now, self.generator.generate(created_time=now)

    def _apply(self, event, now: float) -> None:
        if event.recover:
            self.report.faults_recovered += self.injector.recover(
                event.kind, event.target, at=now
            )
            return
        try:
            self.injector.inject(event.kind, event.target, at=now, **dict(event.params))
            self.report.faults_injected += 1
        except FaultInjectionError as exc:
            # e.g. crash_primary on a shard whose set already dissolved —
            # the plan is seed-generated and may race its own faults.
            self.injector.log.append((now, "skip", event.kind, event.target, str(exc)))

    def _replicate(self, now: float) -> None:
        try:
            self.db.replicate(now)
        except (ReplicationError, EsdbError):
            self.report.replicate_errors += 1

    def _propose(self, step: int, now: float) -> None:
        from repro.consensus import RuleProposal

        try:
            self.db.consensus.propose(
                RuleProposal("chaos", f"chaos-tenant-{step}", 2), now
            )
            self.report.consensus_commits += 1
        except ConsensusAborted:
            self.report.consensus_aborts += 1

    # -- recovery -----------------------------------------------------------
    def recover(self) -> None:
        """Heal every fault and drain every retry path."""
        now = self._end_time
        self.db.advance_clock(now)
        self.client.flush()  # may dead-letter against still-active blackholes
        self.report.faults_recovered += self.injector.recover(at=now)
        self.db.consensus.catch_up_all()
        self.report.dead_letters_redriven = self.client.redrive_dead_letters()
        self.client.flush()
        self._replicate(now)
        self.db.refresh()

    # -- invariants ----------------------------------------------------------
    def check_invariants(self) -> list[str]:
        violations: list[str] = []
        db = self.db
        lost = 0
        mismatched = 0
        for doc_id, source in self.acked.items():
            shard_id = db._doc_shard.get(doc_id)
            if shard_id is None or not db.engines[shard_id].contains(doc_id):
                lost += 1
                continue
            if db.engines[shard_id].get(doc_id).source != source:
                mismatched += 1
        if lost:
            violations.append(f"{lost} acknowledged write(s) lost after recovery")
        if mismatched:
            violations.append(
                f"{mismatched} acknowledged write(s) readable with stale source"
            )
        master_rules = db.consensus.rules.snapshot()
        for participant in db.consensus.participants:
            if not participant.reachable:
                violations.append(f"{participant.name} left crashed/partitioned")
                continue
            if participant.rules.snapshot() != master_rules:
                violations.append(
                    f"{participant.name} rule list diverges from the master"
                )
            if participant.blocked_after is not None or participant.pending_round():
                violations.append(
                    f"{participant.name} still blocked after recovery "
                    f"(blocked_after={participant.blocked_after}, "
                    f"pending={participant.pending_round()})"
                )
        for shard_id, replica_set in db.replica_sets.items():
            if replica_set.primary is not db.engines[shard_id]:
                violations.append(
                    f"shard {shard_id}: replica set primary is not the serving engine"
                )
        if self.client.dead_letter_count():
            violations.append(
                f"{self.client.dead_letter_count()} write(s) stuck in the "
                "dead-letter queue after redrive"
            )
        # Noisy-neighbor isolation: with governance on and a flooding
        # tenant configured, only the flood tenant may ever be shed, and
        # the flood must actually have been throttled (the governor did
        # its job). Victims losing writes to someone else's flood is the
        # exact failure mode this subsystem exists to prevent.
        if db.governor is not None and self.config.flood_tenant is not None:
            flood = self.config.flood_tenant
            victims = {
                tenant: count
                for tenant, count in self.report.throttled_by_tenant.items()
                if tenant != flood
            }
            if victims:
                detail = ", ".join(
                    f"{tenant}={count}"
                    for tenant, count in sorted(
                        victims.items(), key=lambda kv: str(kv[0])
                    )
                )
                violations.append(
                    f"victim tenant write(s) shed under governance: {detail}"
                )
            if self.config.flood_factor and not self.report.throttled_by_tenant.get(
                flood
            ):
                violations.append(
                    f"flood tenant {flood!r} was never throttled despite flooding"
                )
        return violations
