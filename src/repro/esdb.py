"""The ESDB facade: a complete, queryable multi-tenant database instance.

Composes every subsystem into the end-to-end path a user of the real
system would see:

* a :class:`~repro.cluster.Cluster` topology with one
  :class:`~repro.storage.engine.ShardEngine` per primary shard;
* a routing policy (dynamic secondary hashing by default) shared by the
  write path and the query fan-out;
* the workload monitor + load balancer + consensus loop that commits new
  secondary hashing rules as hotspots emerge;
* SQL execution through the query :class:`~repro.query.coordinator.Coordinator`:
  parse → Xdriver4ES → per-shard RBO plan → execute → coordinator
  aggregation, behind the statement caches;
* the recording subsystems that are on, each handed every write batch,
  query and balance round (:mod:`repro.consumers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.balancer import BalancerConfig, LoadBalancer, WorkloadMonitor
from repro.cache import FILTER_CACHE_BYTES, CoordinatorResultCache, ShardRequestCache
from repro.cluster import Cluster, ClusterTopology
from repro.indexing import FrequencyTracker
from repro.obsv import Observer, ObsvConfig
from repro.obsv import runtime as obsv_runtime
from repro.consensus import ConsensusConfig, ConsensusMaster, Participant, RuleProposal
from repro.consumers import BalanceRound, Query, WriteBatch
from repro.errors import (
    ConsensusAborted,
    EsdbError,
    InvalidDocumentError,
    TenantThrottledError,
)
from repro.exec import BulkItemResult, BulkResult
from repro.exec.bulk import apply_shard_batch
from repro.query.aggregator import QueryResult
from repro.query.coordinator import Coordinator
from repro.routing import DynamicSecondaryHashRouting, RoutingPolicy
from repro.slo import SloEngine
from repro.storage import EngineConfig, Schema, ShardEngine
from repro.telemetry import (
    NULL_TELEMETRY,
    EventLog,
    Span,
    Telemetry,
    TraceConfig,
    TraceContext,
    TraceIdGenerator,
    Tracer,
    current_context,
)
from repro.tenancy import TenancyConfig, TenantGovernor
from repro.telemetry.runtime import default_telemetry
from repro.telemetry.timeseries import TimeSeriesStore, install_esdb_derivations

if TYPE_CHECKING:
    from repro.replication import ReplicaSet

class _BoundSeries(dict):
    """Metric series by key, each resolved through *resolve* at its first
    use and kept: the series is registered when something first records
    into it, as a lookup per use would, and every later use is one dict
    probe."""

    __slots__ = ("_resolve",)

    def __init__(self, resolve) -> None:
        super().__init__()
        self._resolve = resolve

    def __missing__(self, key):
        metric = self[key] = self._resolve(key)
        return metric


@dataclass(frozen=True)
class EsdbConfig:
    """Configuration of one ESDB instance.

    Attributes:
        topology: cluster layout (nodes / shards / replicas).
        schema: document schema (defaults to the transaction-log template).
        composite_columns: composite indexes built on every shard.
        scan_columns: the sequential-scan list.
        indexed_subattributes: frequency-based indexing selection (None =
            index everything).
        optimizer_enabled: toggle for the Figure-17 comparison.
        balancer: hotspot thresholds for the load balancer.
        consensus_interval: effective-time lag T for rule commits.
        replication: None (no replica copies, the default for tests) or
            "physical" — maintain a :class:`~repro.replication.ReplicaSet`
            per shard (§5.2) with ``topology.replicas_per_shard`` copies,
            enabling :meth:`ESDB.replicate` and :meth:`ESDB.fail_primary`.
        telemetry_enabled: collect metrics and traces for this instance
            (default). With False the instance runs on the no-op telemetry
            singletons — near-zero overhead, and the dashboard
            (:func:`repro.obsv.render_dashboard`) shows the engines' own
            totals but no registry counters.
        cache: the three query-cache levels (:mod:`repro.cache`) — segment
            filter, shard request and coordinator result cache — all on
            (default) or all off, within the budgets
            :mod:`repro.cache` fixes.
        obsv: slow logs and skew analytics (:mod:`repro.obsv`);
            ``ObsvConfig.off()`` builds no observer.
        timeseries_enabled: performance history
            (:mod:`repro.telemetry.timeseries`), sampled every logical
            second into 240-sample rings — the dashboard sparklines and
            ``cat_timeseries``; False builds no store.
        tenancy: per-tenant admission control (:mod:`repro.tenancy`);
            off by default, when no governor is built.
        tracing: a deterministic trace id per top-level operation
            (:mod:`repro.telemetry.context`), seeded by the topology;
            ``TraceConfig.off()`` restores the pre-trace span trees.
        slo: service-level objectives and heavy-hitter attribution
            (:mod:`repro.slo`); off by default, when neither the
            :class:`~repro.slo.SloEngine` nor its
            :class:`~repro.slo.HeavyHitterProfiler` is built.

    The subsystems that are on become the instance's ``consumers``: every
    write batch, query and balance round is handed to each of them, in
    order, and a subsystem that is off is not in the tuple. The governor
    is also the admission hook at the top of the write and query paths.
    """

    topology: ClusterTopology = field(default_factory=ClusterTopology)
    schema: Schema = field(default_factory=Schema.transaction_logs)
    composite_columns: tuple = (("tenant_id", "created_time"),)
    scan_columns: frozenset = frozenset({"status", "quantity"})
    indexed_subattributes: frozenset | None = None
    optimizer_enabled: bool = True
    balancer: BalancerConfig = field(default_factory=BalancerConfig)
    consensus_interval: float = 5.0
    auto_refresh_every: int | None = 1024
    replication: str | None = None
    telemetry_enabled: bool = True
    cache: bool = True
    obsv: ObsvConfig = field(default_factory=ObsvConfig)
    timeseries_enabled: bool = True
    tenancy: TenancyConfig = field(default_factory=TenancyConfig)
    tracing: TraceConfig = field(default_factory=TraceConfig)
    slo: bool = False


class ESDB:
    """A single-process, fully functional ESDB instance."""

    def __init__(
        self,
        config: EsdbConfig | None = None,
        policy: RoutingPolicy | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config or EsdbConfig()
        if telemetry is None:
            telemetry = default_telemetry()
        if telemetry is None:
            telemetry = Telemetry() if self.config.telemetry_enabled else NULL_TELEMETRY
        self.telemetry = telemetry
        self.trace_ids: TraceIdGenerator | None = None
        if self.config.tracing.enabled:
            self.trace_ids = TraceIdGenerator(self.config.topology.seed)
        #: Structured operational event log (always present; emission sites
        #: stamp the active trace id when tracing is on).
        self.events = EventLog()
        self.cluster = Cluster(self.config.topology)
        self.policy = policy or DynamicSecondaryHashRouting(self.cluster.num_shards)
        if self.policy.num_shards != self.cluster.num_shards:
            raise EsdbError(
                "routing policy shard count does not match cluster topology"
            )
        self.policy.instrument(self.telemetry)
        metrics = self.telemetry.metrics
        self._counters = _BoundSeries(metrics.counter)
        self._histograms = _BoundSeries(metrics.histogram)
        self._shard_writes = _BoundSeries(
            lambda shard: metrics.counter("esdb_writes_total", shard=shard)
        )
        engine_config = EngineConfig(
            schema=self.config.schema,
            composite_columns=self.config.composite_columns,
            scan_columns=self.config.scan_columns,
            indexed_subattributes=self.config.indexed_subattributes,
            auto_refresh_every=self.config.auto_refresh_every,
            filter_cache_bytes=FILTER_CACHE_BYTES if self.config.cache else None,
        )
        self.engines: dict[int, ShardEngine] = {
            shard.shard_id: ShardEngine(
                engine_config, shard_id=shard.shard_id, telemetry=self.telemetry
            )
            for shard in self.cluster.shards
        }
        #: The read path (repro.query.coordinator), statement caches included.
        self.coordinator = Coordinator(self.config, self.engines, self.policy, self.telemetry)
        self.monitor = WorkloadMonitor()
        self.balancer = LoadBalancer(
            self.monitor, self.cluster.num_shards, self.config.balancer
        )
        participants = [Participant(n.name) for n in self.cluster.nodes]
        self.consensus = ConsensusMaster(
            participants,
            ConsensusConfig(effective_interval=self.config.consensus_interval),
            telemetry=self.telemetry,
        )
        # The recording consumers that are on (repro.consumers), in the
        # order each write batch, query and round reaches them: the observer
        # rolls a batch's windows before the profiler records it, and the
        # time series samples what the others recorded. The attributes are
        # read handles (snapshot, faults, tests), None when off.
        self.obsv = self.timeseries = self.governor = self.slo = self.hotkeys = None
        consumers: list = []
        if self.config.obsv.enabled:
            self.obsv = Observer(self.monitor, self.cluster.num_shards, self.config.obsv, metrics)
            obsv_runtime.register(self)
            consumers.append(self.obsv)
        self._subattr_frequencies = FrequencyTracker()
        consumers.append(self._subattr_frequencies)
        if self.config.tenancy.enabled:
            self.governor = TenantGovernor(self.config.tenancy, metrics)
            consumers.append(self.governor)
        if self.config.slo:
            self.slo = SloEngine(metrics)
            self.hotkeys = self.slo.hotkeys
            if self.config.obsv.enabled:
                # Skew alerts get upgraded with the hitters behind them.
                self.obsv.attributor = self.hotkeys.attribute
            consumers.append(self.slo)
        if self.config.timeseries_enabled:
            # Works against the no-op registry too: the null registry has
            # no metric names, so sampling rounds simply record no series.
            self.timeseries = install_esdb_derivations(TimeSeriesStore(metrics))
            consumers.append(self.timeseries)
        self.consumers = tuple(consumers)
        self._clock = 0.0
        #: Lazily created FaultInjector (see :meth:`inject_fault`).
        self.faults = None
        self.replica_sets: dict[int, ReplicaSet] = {}
        if self.config.replication is not None:
            if self.config.replication != "physical":
                raise EsdbError(
                    f"unsupported replication mode {self.config.replication!r}"
                )
            from repro.replication import ReplicaSet

            copies = max(self.config.topology.replicas_per_shard, 1)
            self.replica_sets = {
                shard_id: ReplicaSet(
                    engine, num_replicas=copies, telemetry=self.telemetry
                )
                for shard_id, engine in self.engines.items()
            }

    @property
    def request_cache(self) -> ShardRequestCache | None:
        """The coordinator's shard request cache; None with caches off."""
        return self.coordinator.request_cache

    @property
    def result_cache(self) -> CoordinatorResultCache | None:
        """The coordinator's result cache; None with caches off."""
        return self.coordinator.result_cache

    # -- time ----------------------------------------------------------------
    def advance_clock(self, now: float) -> None:
        """Move the instance's logical clock forward (monotone)."""
        self._clock = max(self._clock, now)

    @property
    def now(self) -> float:
        return self._clock

    # -- tracing -----------------------------------------------------------------
    def _new_trace(self, op: str) -> TraceContext | None:
        """A fresh deterministic trace context for one top-level *op*, or
        None with tracing disabled (span trees then match the pre-trace
        era bit-for-bit, chaos fingerprints included)."""
        if self.trace_ids is None:
            return None
        return self.trace_ids.next_context(op)

    def _emit_event(
        self,
        kind: str,
        tenant: object | None = None,
        shard: int | None = None,
        ctx: TraceContext | None = None,
        **detail,
    ) -> None:
        """Record one operational event at the instance's logical clock,
        stamped with *ctx*'s trace id (falling back to the thread's active
        context, so callees deep in a traced operation attribute right)."""
        if ctx is None:
            ctx = current_context()
        self.events.emit(
            kind,
            self._clock,
            tenant=str(tenant) if tenant is not None else None,
            shard=shard,
            trace_id=ctx.trace_id if ctx is not None else None,
            **detail,
        )

    def trace(self, trace_id: str) -> Span | None:
        """Look up a finished trace by id over the tracer's retained ring:
        alert → slow-log line (``trace=...``) → full span tree."""
        return self.telemetry.tracer.find_trace(trace_id)

    # -- write path ------------------------------------------------------------
    def write(self, source: Mapping[str, Any]) -> int:
        """Route and execute one document write; returns the shard id.

        The one-document :meth:`bulk_write`: same pipeline, but the
        document's error — :class:`~repro.errors.TenantThrottledError` from
        tenant admission control, a storage rejection — is raised instead
        of being carried on a result item.
        """
        result = self._write_batch("write", [source])
        result.raise_first()
        return result.items[0].shard_id

    def bulk_write(
        self,
        sources: Iterable[Mapping[str, Any]],
        stop_on_error: bool = False,
    ) -> BulkResult:
        """The batched bulk-write path (Elasticsearch's ``_bulk``): one
        routing pass groups the documents by routed shard, then each
        shard's batch is applied as a unit, in shard-id order.

        Never raises for a per-document failure: every submitted source
        gets a :class:`~repro.exec.BulkItemResult` in submission order and
        failed documents carry their exception. With ``stop_on_error`` the
        routing pass stops admitting documents after the first failure
        (matching a per-document loop that raises mid-way); the remaining
        items share the stopping error.
        """
        result = self._write_batch("bulk_write", list(sources), stop_on_error)
        # Bulk-only volume counters: ``cat_exec`` stays empty on an
        # instance that never bulk-wrote.
        self._counters["esdb_bulk_writes_total"].inc()
        if result.applied:
            self._counters["esdb_bulk_docs_total"].inc(result.applied)
        return result

    def _write_batch(
        self, op: str, sources: list, stop_on_error: bool = False
    ) -> BulkResult:
        """The one write pipeline behind :meth:`write` and
        :meth:`bulk_write` (*op* names the root span and labels events and
        CPU charges): admit → route → group by shard → apply → account.

        The routing pass runs in submission order on the coordinator —
        clock advancement, tenant admission (governor), the rule-list
        lookup and workload-monitor accounting per document. Each shard's
        batch is then applied by :func:`~repro.exec.bulk.apply_shard_batch`, and the rest
        happens once per call, back on the coordinator: the facade's own
        counters, then one :class:`~repro.consumers.WriteBatch` to every
        consumer.
        """
        tracer = self.telemetry.tracer
        schema = self.config.schema
        governor = self.governor
        items: list[BulkItemResult | None] = [None] * len(sources)
        tenants: list[object] = [None] * len(sources)
        refused: list[tuple[float, Exception]] = []
        groups: dict[int, list[tuple[int, object, Mapping[str, Any]]]] = {}
        ctx = self._new_trace(op)
        with tracer.trace(op, ctx, docs=len(sources)) as span:
            with tracer.span("write.route", policy=self.policy.name):
                for position, source in enumerate(sources):
                    tenant_id = doc_id = None
                    try:
                        tenant_id = source[schema.tenant_field]
                        doc_id = source[schema.id_field]
                        created_time = float(source[schema.time_field])
                        self.advance_clock(created_time)
                        if governor is not None:
                            governor.admit_document(tenant_id, self._clock, source)
                        shard_id = self.policy.route_write(
                            tenant_id, doc_id, created_time
                        )
                    except Exception as exc:
                        if not isinstance(exc, EsdbError):
                            exc = schema.unroutable(source) or exc
                        if isinstance(exc, TenantThrottledError):
                            self._emit_event(
                                "shed" if exc.budget == "queue" else "throttle",
                                tenant=tenant_id, ctx=ctx, op=op, budget=exc.budget,
                            )
                        refused.append((self._clock, exc))
                        items[position] = BulkItemResult(
                            position=position, doc_id=doc_id, ok=False, error=exc
                        )
                        if stop_on_error:
                            # Later documents never enter the routing pass:
                            # not admitted, not applied, same error.
                            for skipped in range(position + 1, len(sources)):
                                items[skipped] = BulkItemResult(
                                    position=skipped, ok=False, error=exc
                                )
                            break
                        continue
                    tenants[position] = tenant_id
                    self.monitor.record_write(tenant_id, shard_id, self._clock)
                    groups.setdefault(shard_id, []).append((position, doc_id, source))
            shard_ids = sorted(groups)
            with tracer.span("write.index", shards=len(shard_ids)):
                shards = []
                for shard_id in shard_ids:
                    target = self.replica_sets.get(shard_id, self.engines[shard_id])
                    docs = groups[shard_id]
                    shards.append((docs, *apply_shard_batch(target, shard_id, docs, items)))
        for shard_id, (_, _, subattr_names) in zip(shard_ids, shards):
            # One names tuple per document the engine applied.
            if subattr_names:
                self._shard_writes[shard_id].inc(len(subattr_names))
        applied = [item for item in items if item.ok]
        per_doc = span.duration / len(sources) if sources else 0.0
        if self.telemetry.enabled and applied:
            histogram = self._histograms["esdb_write_seconds"]
            for _ in applied:
                histogram.observe(per_doc, ctx)
        batch = WriteBatch(
            op, self._clock, ctx, self._emit_event, span, per_doc, tenants, applied, refused,
            shards,
        )
        for consumer in self.consumers:
            consumer.on_writes(batch)
        return BulkResult(items=items, took=span.duration)

    def update(
        self, doc_id: object, changes: Mapping[str, Any], *,
        tenant_id: object, created_time: float | None = None,
    ) -> None:
        """Update record *doc_id* of *tenant_id* where the rule list places
        it (read-your-writes, §4.2; :meth:`RoutingPolicy.locate`). Its
        tenant, id and creation time decide that place: *changes* may not
        name them."""
        schema = self.config.schema
        for name in (schema.tenant_field, schema.id_field, schema.time_field):
            if name in changes:
                raise InvalidDocumentError(f"an update cannot change routing field {name!r}")
        self._locate(doc_id, tenant_id, created_time).update(doc_id, dict(changes))

    def delete(
        self, doc_id: object, *, tenant_id: object, created_time: float | None = None
    ) -> None:
        self._locate(doc_id, tenant_id, created_time).delete(doc_id)

    def _locate(self, doc_id: object, tenant_id: object, created_time: float | None):
        shard_id = self.policy.locate(
            tenant_id, doc_id, created_time, lambda shard: self.engines[shard].contains(doc_id)
        )
        return self.replica_sets.get(shard_id, self.engines[shard_id])

    def refresh(self) -> None:
        """Refresh every shard (make all writes searchable)."""
        for engine in self.engines.values():
            engine.refresh()

    # -- replication (when EsdbConfig.replication == "physical") --------------
    def replicate(self, now: float | None = None) -> int:
        """Run one quick incremental replication round on every shard's
        replica set; returns the number of in-sync replicas cluster-wide."""
        if not self.replica_sets:
            raise EsdbError("replication is not enabled on this instance")
        self.refresh()
        return sum(rs.replicate_all(now) for rs in self.replica_sets.values())

    def fail_primary(self, shard_id: int) -> None:
        """Simulate the loss of a shard's primary: promote the most
        up-to-date replica (segments + translog replay) and swap it in as
        the serving engine. Remaining replicas are re-homed onto the
        promoted primary and keep replicating; with no copies left the
        shard continues unreplicated until a new set is seeded (operator
        action, as in §4.3's manual fault-handling)."""
        replica_set = self.replica_sets.get(shard_id)
        if replica_set is None:
            raise EsdbError(f"shard {shard_id} has no replica set")
        promoted = replica_set.promote()
        promoted.refresh()
        self.coordinator.replace_engine(shard_id, promoted)
        self._emit_event("promotion", shard=shard_id)
        if not replica_set.replicators:
            del self.replica_sets[shard_id]

    # -- fault injection (repro.faults) ----------------------------------------
    def inject_fault(self, kind: str, target: object = None, **params) -> str:
        """Inject one fault (see :data:`repro.faults.FAULT_KINDS`) and
        return a human-readable detail string. The injector is created on
        first use, so an instance that never injects pays nothing."""
        from repro.faults import FaultInjector

        if self.faults is None:
            self.faults = FaultInjector(self)
        return self.faults.inject(kind, target, **params)

    def recover(self, kind: str | None = None, target: object = None) -> int:
        """Recover active injected faults matching *kind*/*target* (both
        None = everything), running consensus catch-up where the fault
        kind requires it. Returns the number of faults lifted."""
        if self.faults is None:
            return 0
        return self.faults.recover(kind, target)

    # -- balancing --------------------------------------------------------------
    def rebalance(self) -> list[tuple[object, int, float]]:
        """Run one balance round; returns committed (tenant, offset,
        effective_time) tuples. No-op for non-dynamic policies. After the
        commits, every consumer gets the round (the observer adds the alerts
        raised since the previous one, which the governor consumes)."""
        if not isinstance(self.policy, DynamicSecondaryHashRouting):
            return []
        metrics = self.telemetry.metrics
        ctx = self._new_trace("rebalance")
        committed = []
        with self.telemetry.tracer.trace("balance.round", ctx):
            self.monitor.roll_window(self._clock)
            for proposal in self.balancer.rebalance():
                try:
                    outcome = self.consensus.propose(
                        RuleProposal("facade", proposal.tenant_id, proposal.offset),
                        self._clock,
                    )
                except ConsensusAborted:
                    self.balancer.retract(proposal)
                    metrics.counter("balancer_proposals_total", outcome="aborted").inc()
                    continue
                self.policy.rules.update(
                    outcome.effective_time, proposal.offset, proposal.tenant_id
                )
                metrics.counter("balancer_proposals_total", outcome="committed").inc()
                committed.append(
                    (proposal.tenant_id, proposal.offset, outcome.effective_time)
                )
        balance = BalanceRound(
            self._clock, ctx, self._emit_event, self.policy.rules, committed, []
        )
        for consumer in self.consumers:
            consumer.on_round(balance)
        for tenant, offset, effective_time in committed:
            self._emit_event(
                "rule_commit", tenant=tenant, ctx=ctx, offset=offset,
                effective_time=effective_time,
            )
        return committed

    # -- query path ----------------------------------------------------------------
    def execute_sql(self, sql: str) -> QueryResult:
        """End-to-end SQL execution: parse, translate and plan (or bind the
        literals into the statement's compiled shape), fan out, aggregate."""
        result, _ = self._execute_traced(self.telemetry.tracer, sql=sql)
        return result

    def explain_analyze(self, sql: str) -> Span:
        """EXPLAIN ANALYZE: execute *sql* and return the span tree of the
        run — parse → rewrite → plan selection → one span per shard
        subquery → coordinator aggregation, each with its measured duration.

        Works regardless of the instance's telemetry mode (a dedicated
        tracer records this one query). The result row count and total hits
        are attached as tags on the root span; use :meth:`Span.render` for
        a human-readable tree.
        """
        tracer = Tracer()
        result, root = self._execute_traced(tracer, sql=sql)
        root.tags["rows"] = len(result.rows)
        root.tags["total_hits"] = result.total_hits
        if root.trace_id is not None:
            # Surface the id in render() output so an EXPLAIN ANALYZE can
            # be cross-referenced with slow-log entries and cat_events.
            root.tags["trace_id"] = root.trace_id
        return root

    def _execute_traced(self, tracer, sql: str) -> tuple[QueryResult, Span]:
        """The one query pipeline, behind :meth:`execute_sql` and
        :meth:`explain_analyze`: the coordinator probes the result cache
        and, on a miss, prepares the statement and reads its routing bounds
        — its tenant; the tenant is admitted (governed instances); the
        coordinator answers — the hit, or the fan-out it caches; the
        :class:`~repro.consumers.Query` goes to every consumer. A cache
        entry carries the tenant, ``ATTR`` keys and filter terms its miss
        computed, so a hit is accounted for as its miss was."""
        coordinator, governor = self.coordinator, self.governor
        ctx = self._new_trace("query")
        with tracer.trace("query", ctx) as root:
            key, entry, prepared = coordinator.begin(tracer, sql)
            if governor is not None:
                _, tenant, subattrs, _ = entry
                try:
                    governor.admit_query(tenant, self._clock)
                except TenantThrottledError as exc:
                    # Refused before any fan-out, and before the query
                    # counts as executed: the consumers see it without a
                    # result.
                    self._emit_event(
                        "shed" if exc.budget == "queue" else "throttle",
                        tenant=tenant, ctx=ctx, op="query", budget=exc.budget,
                    )
                    self._hand_out(ctx, root, sql, key, (None, tenant, subattrs, ()), 0)
                    raise
            entry = coordinator.execute(tracer, root, key, entry, prepared)
        result = entry[0]
        self._counters["esdb_queries_total"].inc()
        if prepared is None:  # a result-cache hit
            scanned = 0
        else:
            scanned = result.total_hits
            self._counters["esdb_subqueries_total"].inc(result.subqueries)
            if self.telemetry.enabled:
                self._histograms["esdb_query_seconds"].observe(root.duration, ctx)
        self._hand_out(ctx, root, sql, key, entry, scanned)
        return result, root

    def _hand_out(
        self, ctx, root: Span, sql: str, key: tuple, entry: tuple, scanned: int
    ) -> None:
        """Hand one query to every consumer: *entry* is its ``(result,
        tenant, subattrs, terms)``, the result None when admission refused
        it; *scanned* the documents its fan-out matched."""
        result, tenant, subattrs, terms = entry
        query = Query(self._clock, ctx, self._emit_event, tenant, sql, key[0], subattrs,
                      terms, root, result, scanned)
        for consumer in self.consumers:
            consumer.on_query(query)

    # -- introspection -----------------------------------------------------------
    def doc_count(self) -> int:
        return sum(e.doc_count() for e in self.engines.values())

    def tenant_fanout(self, tenant_id: object) -> int:
        """Subqueries a query for *tenant_id* currently requires."""
        return self.policy.span(tenant_id)

    def suggest_subattribute_indexes(self, k: int = 30) -> frozenset:
        """Frequency-based indexing advisor (§3.2): the top-*k* sub-attributes
        by observed *query* frequency (write frequency as tiebreaker),
        suitable for ``EsdbConfig.indexed_subattributes`` on the next roll.

        Frequencies accumulate automatically: every executed ATTR() filter
        and every written document's sub-attribute names are recorded.
        """
        return self._subattr_frequencies.top_k(k)

    def explain(self, sql: str) -> str:
        """EXPLAIN: show the Xdriver4ES rewrite, the ES-DSL tree, the RBO
        physical plan, and the shard fan-out for *sql* — with the bounds
        that pruned it — without executing it."""
        return self.coordinator.explain(sql)

    # -- index management (the "Add/Drop Index" box of Figure 3) -------------
    def add_index(self, columns) -> str:
        """Build a composite index on *columns* across every shard and make
        the optimizer aware of it; returns the index name."""
        columns = tuple(columns)
        name = None
        for engine in self.engines.values():
            name = engine.add_composite_index(columns)
        self.coordinator.add_index(columns)
        return name or "_".join(columns)

    def drop_index(self, name: str) -> None:
        """Drop a dynamically added composite index cluster-wide."""
        for engine in self.engines.values():
            engine.drop_composite_index(name)
        self.coordinator.drop_index(name)
