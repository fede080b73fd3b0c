"""The ESDB facade: a complete, queryable multi-tenant database instance.

Glues together every subsystem into the end-to-end path a user of the real
system would see:

* a :class:`~repro.cluster.Cluster` topology with one
  :class:`~repro.storage.engine.ShardEngine` per primary shard;
* a routing policy (dynamic secondary hashing by default) shared by the
  write and query clients;
* the workload monitor + load balancer + consensus loop that commits new
  secondary hashing rules as hotspots emerge;
* SQL execution: parse → Xdriver4ES → per-shard RBO plan → execute →
  coordinator aggregation.

This facade favours clarity over throughput — the performance experiments
use :mod:`repro.sim`; this class is the *functional* system behind the
examples and the query-side benchmarks (Figures 16–18).
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.balancer import BalancerConfig, LoadBalancer, WorkloadMonitor
from repro.cache import (
    CacheConfig,
    CoordinatorResultCache,
    ShardRequestCache,
    rows_cost,
    sql_fingerprint,
    statement_fingerprint,
)
from repro.cluster import Cluster, ClusterTopology
from repro.indexing import FrequencyTracker
from repro.obsv import Observer, ObsvConfig
from repro.obsv import runtime as obsv_runtime
from repro.obsv.dashboard import cluster_snapshot, render_dashboard
from repro.consensus import ConsensusConfig, ConsensusMaster, Participant, RuleProposal
from repro.errors import (
    ConsensusAborted,
    EsdbError,
    InvalidDocumentError,
    QueryError,
    TenantThrottledError,
)
from repro.exec import BulkItemResult, BulkResult
from repro.exec import execute_batch as _shared_execute_batch
from repro.query import (
    QueryExecutor,
    ResultAggregator,
    RuleBasedOptimizer,
    Xdriver4ES,
    parse_sql,
)
from repro.query.aggregator import QueryResult
from repro.query.ast import (
    ComparisonPredicate,
    SelectStatement,
    SubAttributePredicate,
    iter_predicates,
)
from repro.query.optimizer import CatalogInfo
from repro.routing import (
    DynamicSecondaryHashRouting,
    RoutingPolicy,
)
from repro.slo import HeavyHitterProfiler, SloConfig, SloEngine
from repro.storage import EngineConfig, PostingList, Schema, ShardEngine
from repro.telemetry import (
    NULL_TELEMETRY,
    EventLog,
    Span,
    Telemetry,
    TraceConfig,
    TraceContext,
    TraceIdGenerator,
    Tracer,
    build_sampler,
    current_context,
)
from repro.tenancy import TenancyConfig, TenantGovernor, doc_bytes
from repro.telemetry.runtime import default_telemetry
from repro.telemetry.timeseries import (
    DASHBOARD_SERIES,
    TimeSeriesStore,
    install_esdb_derivations,
    sparkline,
)

if TYPE_CHECKING:
    from repro.replication import ReplicaSet

#: Distinguishes instances sharing one registry (profiling runs).
_INSTANCE_IDS = itertools.count()


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
            singletons — near-zero overhead, empty :meth:`ESDB.stats_report`
            counters.
        cache: the three query-cache levels (:mod:`repro.cache`): per-shard
            segment filter cache, shard request cache, coordinator result
            cache. Each level is individually disableable and byte-budgeted;
            ``CacheConfig.off()`` is the caches-off baseline.
        obsv: the observability layer (:mod:`repro.obsv`): index/search
            slow logs, rolling-window skew analytics with hot-tenant /
            hot-shard alerts, and the ``_cat`` / dashboard surfaces.
            ``ObsvConfig.off()`` removes the observer; the write path then
            pays one ``is not None`` check.
        timeseries_enabled / timeseries_interval / timeseries_capacity:
            performance history (:mod:`repro.telemetry.timeseries`): a
            :class:`~repro.telemetry.timeseries.TimeSeriesStore` samples
            the metrics registry every ``timeseries_interval`` seconds of
            the instance's *logical* clock into ring buffers of
            ``timeseries_capacity`` samples per series — the data behind
            the dashboard sparklines and ``cat_timeseries``. Disabling it
            removes the store; the write path then pays one ``is not
            None`` check.
        tenancy: multi-tenant resource governance (:mod:`repro.tenancy`):
            per-tenant token-bucket rate limits, QoS classes with a
            weighted admission queue, tumbling byte/operation quotas, and
            backpressure with structured shed-load errors. Disabled by
            default — the instance then builds no governor and every path
            is byte-identical to an ungoverned instance.
        tracing: request-scoped distributed tracing
            (:mod:`repro.telemetry.context`). Enabled by default: every
            top-level operation gets a deterministic seed-derived
            W3C-shaped trace id, with head-based sampling (``always`` /
            ``ratio`` / ``slow-tail``),
            trace-id exemplars on latency histograms, and a structured
            event log behind :func:`repro.obsv.cat_events` and
            :meth:`ESDB.diagnostics_bundle`. ``TraceConfig.off()``
            restores the pre-trace span trees bit-for-bit.
        slo: service-level objectives and heavy-hitter attribution
            (:mod:`repro.slo`). Disabled by default — the instance then
            builds neither the :class:`~repro.slo.SloEngine` nor the
            :class:`~repro.slo.HeavyHitterProfiler` and every path is
            byte-identical (chaos fingerprints included). Enabled, write
            and query outcomes are classified against declarative
            latency/error-rate objectives with multi-window burn-rate
            alerting (``slo_burn``/``slo_recovered`` events), and bounded
            Space-Saving sketches name the hot routing keys, filter terms
            and query fingerprints per shard and per tenant
            (:func:`repro.obsv.cat_slo` / :func:`repro.obsv.cat_hotkeys`).
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
    cache: CacheConfig = field(default_factory=CacheConfig)
    obsv: ObsvConfig = field(default_factory=ObsvConfig)
    timeseries_enabled: bool = True
    timeseries_interval: float = 1.0
    timeseries_capacity: int = 240
    tenancy: TenancyConfig = field(default_factory=TenancyConfig)
    tracing: TraceConfig = field(default_factory=TraceConfig)
    slo: SloConfig = field(default_factory=SloConfig)


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
        self.instance = f"esdb{next(_INSTANCE_IDS)}"
        tracing = self.config.tracing
        self.trace_ids: TraceIdGenerator | None = None
        self.trace_sampler = None
        if tracing.enabled:
            trace_seed = (
                tracing.seed if tracing.seed is not None else self.config.topology.seed
            )
            self.trace_ids = TraceIdGenerator(trace_seed)
            self.trace_sampler = build_sampler(tracing)
        #: Structured operational event log (always present; emission sites
        #: stamp the active trace id when tracing is on).
        self.events = EventLog(capacity=tracing.events_capacity)
        self.cluster = Cluster(self.config.topology)
        self.policy = policy or DynamicSecondaryHashRouting(self.cluster.num_shards)
        if self.policy.num_shards != self.cluster.num_shards:
            raise EsdbError(
                "routing policy shard count does not match cluster topology"
            )
        self.policy.instrument(self.telemetry)
        cache_config = self.config.cache
        engine_config = EngineConfig(
            schema=self.config.schema,
            composite_columns=self.config.composite_columns,
            scan_columns=self.config.scan_columns,
            indexed_subattributes=self.config.indexed_subattributes,
            auto_refresh_every=self.config.auto_refresh_every,
            filter_cache_bytes=(
                cache_config.filter_cache_bytes
                if cache_config.filter_cache_enabled
                else None
            ),
        )
        self.engines: dict[int, ShardEngine] = {
            shard.shard_id: ShardEngine(
                engine_config, shard_id=shard.shard_id, telemetry=self.telemetry
            )
            for shard in self.cluster.shards
        }
        self._executors: dict[int, QueryExecutor] = {}  # see _serial_executor
        self.request_cache: ShardRequestCache | None = None
        if cache_config.request_cache_enabled:
            self.request_cache = ShardRequestCache(
                cache_config.request_cache_bytes, metrics=self.telemetry.metrics
            )
            for engine in self.engines.values():
                self.request_cache.attach(engine)
        self.result_cache: CoordinatorResultCache | None = None
        if cache_config.result_cache_enabled:
            self.result_cache = CoordinatorResultCache(
                cache_config.result_cache_bytes, metrics=self.telemetry.metrics
            )
        self.xdriver = Xdriver4ES()
        self._set_catalog(self.config.composite_columns)
        self.monitor = WorkloadMonitor(
            registry=self.telemetry.metrics, labels={"instance": self.instance}
        )
        self.balancer = LoadBalancer(
            self.monitor, self.cluster.num_shards, self.config.balancer
        )
        participants = [Participant(n.name) for n in self.cluster.nodes]
        self.consensus = ConsensusMaster(
            participants,
            ConsensusConfig(effective_interval=self.config.consensus_interval),
            telemetry=self.telemetry,
        )
        self.obsv: Observer | None = None
        if self.config.obsv.enabled:
            self.obsv = Observer(
                self.config.obsv,
                num_shards=self.cluster.num_shards,
                metrics=self.telemetry.metrics if self.telemetry.enabled else None,
                window_seconds=self.config.obsv.window_seconds
                or self.monitor.window_seconds,
            )
            obsv_runtime.register(self)
        self.timeseries: TimeSeriesStore | None = None
        if self.config.timeseries_enabled:
            # Works against the no-op registry too: the null registry has
            # no metric names, so sampling rounds simply record no series.
            self.timeseries = install_esdb_derivations(
                TimeSeriesStore(
                    self.telemetry.metrics,
                    interval=self.config.timeseries_interval,
                    capacity=self.config.timeseries_capacity,
                )
            )
        self.governor: TenantGovernor | None = None
        #: sql text -> target tenant, memoized for admission (the tenant of a
        #: SQL string is a pure function of the text, so repeat queries —
        #: the result-cache hot path — skip the probe parse entirely).
        #: LRU-bounded: at capacity the stalest probe is evicted, never the
        #: whole map — a hot result-cache path keeps its memoized tenants.
        self._query_tenant_cache: OrderedDict[str, object] = OrderedDict()
        #: query fingerprint -> sub-attribute names it filters on. A result-
        #: cache hit skips the fan-out (where frequencies are normally
        #: recorded), but the cached query is still real demand — without
        #: this memo, repeat queries would never count toward adaptive
        #: sub-attribute index selection. Same LRU bound as above.
        self._subattr_by_fingerprint: OrderedDict[str, tuple] = OrderedDict()
        if self.config.tenancy.enabled:
            self.governor = TenantGovernor(
                self.config.tenancy,
                metrics=self.telemetry.metrics if self.telemetry.enabled else None,
            )
        self.slo: SloEngine | None = None
        self.hotkeys: HeavyHitterProfiler | None = None
        if self.config.slo.enabled:
            slo_metrics = self.telemetry.metrics if self.telemetry.enabled else None
            self.slo = SloEngine(self.config.slo, metrics=slo_metrics)
            if self.config.slo.profiler_enabled:
                self.hotkeys = HeavyHitterProfiler(
                    self.config.slo, metrics=slo_metrics
                )
                if self.obsv is not None:
                    # Skew alerts get upgraded with the hitters behind them.
                    self.obsv.attributor = self._slo_attribution
        self._doc_shard: dict[object, int] = {}
        self._clock = 0.0
        #: Lazily created FaultInjector (see :meth:`inject_fault`).
        self.faults = None
        self._subattr_frequencies = FrequencyTracker()
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
        metrics = self.telemetry.metrics
        metrics.counter("esdb_bulk_writes_total").inc()
        if result.applied:
            metrics.counter("esdb_bulk_docs_total").inc(result.applied)
        return result

    def _write_batch(
        self, op: str, sources: list, stop_on_error: bool = False
    ) -> BulkResult:
        """The one write pipeline behind :meth:`write` and
        :meth:`bulk_write` (*op* names the root span and labels events and
        CPU charges): admit → route → group by shard → apply → account →
        observe.

        The routing pass runs in submission order on the coordinator —
        clock advancement, tenant admission (governor), the rule-list
        lookup and workload-monitor accounting per document. Each shard's
        batch is then applied by :meth:`_apply_shard_batch`, and everything
        after it — counters, CPU charges, sub-attribute frequencies, skew
        and slow-log accounting (obsv), SLO classification and heavy
        hitters, history sampling — happens once per call, back on the
        coordinator, over the documents that were applied.
        """
        telemetry = self.telemetry
        tracer = telemetry.tracer
        metrics = telemetry.metrics
        schema = self.config.schema
        governor = self.governor
        items: list[BulkItemResult | None] = [None] * len(sources)
        tenants: list[object] = [None] * len(sources)
        groups: dict[int, list[tuple[int, object, Mapping[str, Any]]]] = {}
        ctx = self._new_trace(op)
        with tracer.trace(
            op, ctx, sampler=self.trace_sampler, docs=len(sources)
        ) as span:
            with tracer.span("write.route", policy=self.policy.name):
                for position, source in enumerate(sources):
                    tenant_id = doc_id = None
                    try:
                        tenant_id = source[schema.tenant_field]
                        doc_id = source[schema.id_field]
                        created_time = float(source[schema.time_field])
                        self.advance_clock(created_time)
                        if governor is not None:
                            # Sizing a document costs a str() per field; only
                            # pay it when an indexed-byte budget consumes it.
                            governor.admit_write(
                                tenant_id,
                                self._clock,
                                doc_bytes(source)
                                if governor.config.indexed_bytes_quota is not None
                                else 0,
                            )
                        shard_id = self.policy.route_write(
                            tenant_id, doc_id, created_time
                        )
                    except Exception as exc:
                        if not isinstance(exc, EsdbError):
                            exc = self._unroutable(source) or exc
                        if isinstance(exc, TenantThrottledError):
                            self._emit_event(
                                "shed" if exc.budget == "queue" else "throttle",
                                tenant=tenant_id, ctx=ctx, op=op, budget=exc.budget,
                            )
                        if self.slo is not None:
                            self.slo.record(
                                "write", tenant_id, 0.0, self._clock, error=True
                            )
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
                    self.monitor.record_write(tenant_id, self._clock)
                    groups.setdefault(shard_id, []).append((position, doc_id, source))
            shard_ids = sorted(groups)
            with tracer.span("write.index", shards=len(shard_ids)):
                outcomes = [
                    self._apply_shard_batch(shard_id, groups[shard_id], items)
                    for shard_id in shard_ids
                ]
        for shard_id, (subattr_names, elapsed) in zip(shard_ids, outcomes):
            # One names tuple per document the engine applied.
            if subattr_names:
                metrics.counter("esdb_writes_total", shard=shard_id).inc(
                    len(subattr_names)
                )
            for names in subattr_names:
                if names:
                    self._subattr_frequencies.record_write(names)
            if governor is not None:
                # CPU accounting for where the work ran: the shard batch's
                # engine time, split evenly over its documents' tenants.
                batch = groups[shard_id]
                for position, _, _ in batch:
                    governor.charge_cpu(tenants[position], elapsed / len(batch), op=op)
        applied = [item for item in items if item.ok]
        duration = span.duration
        per_doc = duration / len(sources) if sources else 0.0
        trace_id = ctx.trace_id if ctx is not None else None
        if telemetry.enabled and applied:
            histogram = metrics.histogram("esdb_write_seconds")
            exemplar = trace_id if ctx is not None and ctx.sampled else None
            for _ in applied:
                histogram.observe(per_doc, trace_id=exemplar)
        if self.obsv is not None:
            for item in applied:
                self.obsv.record_write(
                    tenants[item.position],
                    item.shard_id,
                    per_doc,
                    self._clock,
                    trace=span if telemetry.enabled else None,
                    trace_id=trace_id,
                )
        if self.slo is not None:
            for item in applied:
                tenant_id = tenants[item.position]
                self.slo.record("write", tenant_id, per_doc, self._clock)
                if self.hotkeys is not None:
                    self.hotkeys.record_write(tenant_id, item.shard_id, item.doc_id)
            self._slo_tick(ctx)
        if self.timeseries is not None:
            self.timeseries.maybe_sample(self._clock)
        return BulkResult(items=items, took=duration)

    def _unroutable(self, source: Any) -> InvalidDocumentError | None:
        """Exception path of the routing pass: the engine's rejection,
        naming the field, for a document whose tenant, id or creation time
        the pass could not read or hash — or None when *source* is
        well-formed and the failure was something else."""
        schema = self.config.schema
        if not isinstance(source, Mapping):
            return InvalidDocumentError(f"a document must be a mapping, got {source!r}")
        for name in (schema.tenant_field, schema.id_field, schema.time_field):
            if name not in source:
                return InvalidDocumentError(f"document missing field {name!r}")
        if source[schema.time_field] is None:
            return InvalidDocumentError(
                f"field {schema.time_field!r} must be numeric, got None"
            )
        try:
            schema.validate(source)
        except InvalidDocumentError as invalid:
            return invalid
        return None

    def _apply_shard_batch(
        self,
        shard_id: int,
        batch: list[tuple[int, object, Mapping[str, Any]]],
        items: list,
    ) -> tuple[list[tuple[str, ...]], float]:
        """Apply one shard's documents in submission order, recording each
        outcome on its item — a failure never aborts the batch and never
        re-applies a document. Returns the applied documents' sub-attribute
        names (one tuple each) and the engine seconds the batch took."""
        target = self.replica_sets.get(shard_id, self.engines[shard_id])
        shard = self.cluster.shard(shard_id)
        subattr_names: list[tuple[str, ...]] = []
        started = time.perf_counter()
        for position, doc_id, source in batch:
            try:
                target.index(source, subattr_names)
            except Exception as exc:
                items[position] = BulkItemResult(
                    position=position, doc_id=doc_id, shard_id=shard_id,
                    ok=False, error=exc,
                )
                continue
            shard.record_write()
            self._doc_shard[doc_id] = shard_id
            items[position] = BulkItemResult(
                position=position, doc_id=doc_id, shard_id=shard_id
            )
        return subattr_names, time.perf_counter() - started

    def execute_batch(self, sqls: Iterable[str]) -> list[QueryResult]:
        """Execute a batch of SQL statements with shared execution
        (:mod:`repro.exec.shared`): exact duplicates run once, same-column
        scan filters share one doc-values pass per shard; every other
        statement runs as by :meth:`execute_sql`. Results align with the
        input positions."""
        return _shared_execute_batch(self, list(sqls))

    def update(self, doc_id: object, changes: Mapping[str, Any]) -> None:
        """Update by document id — routed via the same rules that placed it
        (read-your-writes consistency, §4.2)."""
        shard_id = self._locate(doc_id)
        if shard_id in self.replica_sets:
            self.replica_sets[shard_id].update(doc_id, dict(changes))
        else:
            self.engines[shard_id].update(doc_id, changes)

    def delete(self, doc_id: object) -> None:
        shard_id = self._locate(doc_id)
        if shard_id in self.replica_sets:
            self.replica_sets[shard_id].delete(doc_id)
        else:
            self.engines[shard_id].delete(doc_id)
        del self._doc_shard[doc_id]

    def _locate(self, doc_id: object) -> int:
        shard_id = self._doc_shard.get(doc_id)
        if shard_id is None:
            raise QueryError(f"unknown document id {doc_id!r}")
        return shard_id

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
        self.engines[shard_id] = promoted
        self._emit_event("promotion", shard=shard_id)
        if not replica_set.replicators:
            del self.replica_sets[shard_id]
        # The shard's engine object (and its generation counter) changed:
        # drop every cached read that might reference the old primary.
        if self.request_cache is not None:
            self.request_cache.invalidate_shard(shard_id)
            self.request_cache.attach(promoted)
        if self.result_cache is not None:
            self.result_cache.clear()

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
        effective_time) tuples. No-op for non-dynamic policies."""
        if not isinstance(self.policy, DynamicSecondaryHashRouting):
            return []
        metrics = self.telemetry.metrics
        ctx = self._new_trace("rebalance")
        with self.telemetry.tracer.trace(
            "balance.round", ctx, sampler=self.trace_sampler
        ):
            self.monitor.roll_window(self._clock)
            if self.obsv is not None:
                # Same clock, same window length: the observer's skew window
                # closes exactly with the monitor's balancing window, so an
                # alert and the rule it triggers share one measurement.
                self.obsv.roll(self._clock)
                if self.governor is not None and self.obsv.last_alerts:
                    demoted = self.governor.apply_alerts(
                        self.obsv.last_alerts, self._clock
                    )
                    for tenant in demoted:
                        self._emit_event("demotion", tenant=tenant, ctx=ctx)
            committed = []
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
                if self.obsv is not None:
                    self.obsv.annotate_committed(
                        self.policy.rules,
                        proposal.tenant_id,
                        proposal.offset,
                        outcome.effective_time,
                    )
                self._emit_event(
                    "rule_commit",
                    tenant=proposal.tenant_id,
                    ctx=ctx,
                    offset=proposal.offset,
                    effective_time=outcome.effective_time,
                )
                committed.append(
                    (proposal.tenant_id, proposal.offset, outcome.effective_time)
                )
        self._slo_tick(ctx)
        if self.timeseries is not None:
            self.timeseries.maybe_sample(self._clock)
        return committed

    # -- query path ----------------------------------------------------------------
    def execute_sql(self, sql: str) -> QueryResult:
        """End-to-end SQL execution: parse, translate, plan, fan out,
        aggregate."""
        result, _ = self._execute_traced(self.telemetry.tracer, sql=sql)
        return result

    def execute_statement(self, statement: SelectStatement) -> QueryResult:
        result, _ = self._execute_traced(self.telemetry.tracer, statement=statement)
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

    def _rule_version(self) -> int:
        """Current rule-list version (0 for policies without a rule list)."""
        rules = getattr(self.policy, "rules", None)
        return rules.version if rules is not None else 0

    def _engine_generation(self, shard_id: int) -> int:
        return self.engines[shard_id].generation

    def _execute_traced(
        self,
        tracer,
        sql: str | None = None,
        statement: SelectStatement | None = None,
    ) -> tuple[QueryResult, Span]:
        """The traced query pipeline shared by execute_sql/execute_statement
        and explain_analyze."""
        metrics = self.telemetry.metrics
        cache_hit = False
        shard_ids: list[int] = []
        governor = self.governor
        query_tenant = None
        ctx = self._new_trace("query")
        if governor is not None:
            # Admission needs the target tenant before the pipeline runs.
            # Raw SQL is parsed up front and the parse reused downstream — a
            # governed execute_sql enters the pipeline at the rewrite stage,
            # exactly like execute_statement (never two parses) — and the
            # extracted tenant is memoized per SQL string so repeat queries
            # (the result-cache hot path) skip the probe parse entirely.
            if statement is not None:
                query_tenant = self._statement_tenant(statement)
            elif sql in self._query_tenant_cache:
                query_tenant = self._query_tenant_cache[sql]
                self._query_tenant_cache.move_to_end(sql)
            else:
                try:
                    probe = parse_sql(sql)
                except QueryError:
                    probe = None  # the traced parse below reports the error
                else:
                    statement = probe
                query_tenant = self._statement_tenant(probe)
                while len(self._query_tenant_cache) >= 512:
                    self._query_tenant_cache.popitem(last=False)
                self._query_tenant_cache[sql] = query_tenant
            try:
                governor.admit_query(query_tenant, self._clock)
            except TenantThrottledError as exc:
                self._emit_event(
                    "shed" if exc.budget == "queue" else "throttle",
                    tenant=query_tenant, ctx=ctx, op="query", budget=exc.budget,
                )
                if self.slo is not None:
                    self.slo.record(
                        "query", query_tenant, 0.0, self._clock, error=True
                    )
                    self._slo_tick(ctx)
                raise
        with tracer.trace("query", ctx, sampler=self.trace_sampler) as root:
            result_key = None
            fingerprint = None
            if sql is None:
                fingerprint = statement_fingerprint(statement)
            elif self.result_cache is not None or self.hotkeys is not None:
                fingerprint = sql_fingerprint(sql)
            if self.result_cache is not None:
                result_key = (fingerprint, self._rule_version())
                cached = self.result_cache.get(*result_key, self._engine_generation)
                if cached is not None:
                    # The whole fan-out is skipped: surface the hit as its
                    # own span where the executor subtree would have been.
                    with tracer.span(
                        "cache.hit", level="result", fingerprint=fingerprint
                    ):
                        pass
                    root.tags["cache"] = "hit"
                    root.tags["fanout"] = cached.subqueries
                    result = cached
                    cache_hit = True
                    hit_subattrs = self._subattr_by_fingerprint.get(fingerprint)
                    if hit_subattrs:
                        self._subattr_frequencies.record_query(hit_subattrs)
            if not cache_hit:
                result, shard_ids, statement = self._execute_fanout(
                    tracer, root, sql, statement
                )
                if result_key is not None:
                    validators = tuple(
                        (shard_id, self.engines[shard_id].generation)
                        for shard_id in shard_ids
                    )
                    self.result_cache.put(*result_key, result, validators)
                    while len(self._subattr_by_fingerprint) >= 512:
                        self._subattr_by_fingerprint.popitem(last=False)
                    self._subattr_by_fingerprint[result_key[0]] = tuple(
                        p.key_name
                        for p in iter_predicates(statement.where)
                        if isinstance(p, SubAttributePredicate)
                    )
        if governor is not None:
            governor.charge_query(
                query_tenant,
                self._clock,
                # Summing row sizes costs a str() per field; only pay it
                # when a result-byte budget actually consumes the number.
                result_bytes=(
                    sum(doc_bytes(row) for row in result.rows)
                    if governor.config.result_bytes_quota is not None
                    else 0
                ),
                scanned=0 if cache_hit else result.total_hits,
            )
        metrics.counter("esdb_queries_total").inc()
        if not cache_hit:
            metrics.counter("esdb_subqueries_total").inc(len(shard_ids))
            if self.telemetry.enabled:
                metrics.histogram("esdb_query_seconds").observe(
                    root.duration,
                    trace_id=ctx.trace_id if ctx is not None and ctx.sampled else None,
                )
        if governor is None:
            # Admission extracts the tenant on a governed instance; here it
            # is read off whatever was parsed (a result-cache hit on raw SQL
            # never parses, so it has none).
            query_tenant = self._statement_tenant(statement)
        if self.obsv is not None:
            slow_entry = self.obsv.record_search(
                query_tenant,
                root.duration,
                self._clock,
                detail=sql.strip() if sql is not None else fingerprint,
                trace=root,
                trace_id=ctx.trace_id if ctx is not None else None,
            )
            if slow_entry is not None:
                self._emit_event(
                    "slow_query",
                    tenant=slow_entry.tenant,
                    ctx=ctx,
                    level=slow_entry.level,
                    elapsed=slow_entry.elapsed,
                )
        if self.slo is not None:
            self.slo.record("query", query_tenant, root.duration, self._clock)
            if self.hotkeys is not None:
                self.hotkeys.record_query(
                    query_tenant, fingerprint, self._query_terms(statement)
                )
            self._slo_tick(ctx)
        if self.timeseries is not None:
            self.timeseries.maybe_sample(self._clock)
        return result, root

    def _statement_tenant(self, statement: SelectStatement | None):
        """The tenant a statement targets via an equality predicate (the
        shard-pruning condition), or None for cross-tenant queries."""
        if statement is None:
            return None
        tenant_field = self.config.schema.tenant_field
        for predicate in iter_predicates(statement.where):
            if (
                isinstance(predicate, ComparisonPredicate)
                and predicate.column == tenant_field
                and predicate.op == "="
            ):
                return predicate.value
        return None

    @staticmethod
    def _query_terms(statement: SelectStatement | None) -> list[str]:
        """The filter terms a statement exercises, for heavy-hitter
        tracking: ``column=value`` for equality comparisons, the bare
        column for ranges, ``attr:key`` for sub-attribute filters. A
        result-cache hit on raw SQL never parses, so it contributes no
        terms (the fingerprint still counts)."""
        if statement is None:
            return []
        terms: list[str] = []
        for predicate in iter_predicates(statement.where):
            if isinstance(predicate, SubAttributePredicate):
                terms.append(f"attr:{predicate.key_name}")
            elif isinstance(predicate, ComparisonPredicate):
                if predicate.op == "=":
                    terms.append(f"{predicate.column}={predicate.value}")
                else:
                    terms.append(str(predicate.column))
        return terms

    def _slo_tick(self, ctx: TraceContext | None = None) -> None:
        """One deterministic SLO heartbeat at the instance's logical clock:
        decay the heavy-hitter sketches when their window closed, and when
        an evaluation is due, advance every objective's burn state machine,
        emitting ``slo_burn``/``slo_recovered`` events for the transitions."""
        slo = self.slo
        if slo is None:
            return
        if self.hotkeys is not None:
            self.hotkeys.maybe_roll(self._clock)
        if not slo.due(self._clock):
            return
        if self.hotkeys is not None:
            self.hotkeys.export_gauges()
        for alert in slo.evaluate(self._clock):
            self._emit_event(
                alert.kind,
                tenant=alert.tenant,
                ctx=ctx,
                slo=alert.slo,
                fast_burn=round(alert.fast_burn, 4),
                slow_burn=round(alert.slow_burn, 4),
                budget_remaining_pct=round(alert.budget_remaining_pct, 2),
            )

    def _slo_attribution(self, alert) -> dict:
        """Name the heavy hitters behind one skew alert (the Observer calls
        this for every alert it fires when profiling is on): hot routing
        keys and query fingerprints for a hot tenant, hot routing keys for
        a hot shard."""
        hotkeys = self.hotkeys
        if hotkeys is None:
            return {}
        detail: dict = {}
        subject = str(alert.subject)
        if alert.kind == "hot_tenant":
            keys = hotkeys.hot_keys_for_tenant(subject)
            queries = hotkeys.hot_queries_for_tenant(subject)
            if keys:
                detail["hot_keys"] = ",".join(str(key) for key, _, _ in keys)
            if queries:
                detail["hot_queries"] = ",".join(str(q) for q, _, _ in queries)
        elif alert.kind == "hot_shard" and subject.startswith("shard-"):
            keys = hotkeys.hot_keys_for_shard(int(subject.split("-", 1)[1]))
            if keys:
                detail["hot_keys"] = ",".join(str(key) for key, _, _ in keys)
        return detail

    def _execute_fanout(
        self,
        tracer,
        root: Span,
        sql: str | None,
        statement: SelectStatement | None,
    ) -> tuple[QueryResult, list[int], SelectStatement]:
        """Parse → rewrite → plan → per-shard execution (through the shard
        request cache) → aggregation. Returns the result, the fan-out, and
        the rewritten statement."""
        if statement is None:
            with tracer.span("query.parse"):
                statement = parse_sql(sql)
        with tracer.span("query.rewrite"):
            translated = self.xdriver.translate(statement)
            statement = translated.statement
        queried_subattrs = [
            p.key_name
            for p in iter_predicates(statement.where)
            if isinstance(p, SubAttributePredicate)
        ]
        if queried_subattrs:
            self._subattr_frequencies.record_query(queried_subattrs)
        with tracer.span("query.plan") as plan_span:
            plan = self.optimizer.plan(statement)
            plan_span.tags["root"] = type(plan.root).__name__
        shard_ids = self._target_shards(statement)
        root.tags["fanout"] = len(shard_ids)
        aggregator = ResultAggregator(
            columns=statement.columns,
            order_by=statement.order_by,
            limit=statement.limit,
            group_by=statement.group_by,
            having=statement.having,
        )
        push_limit = self._pushdown_limit(statement)
        statement_key = (
            statement_fingerprint(statement) if self.request_cache is not None else None
        )
        shard_results = []
        for shard_id in shard_ids:
            with tracer.span(f"query.shard[{shard_id}]") as sub_span:
                engine = self.engines[shard_id]
                if statement_key is not None:
                    entry = self.request_cache.get(
                        shard_id, statement_key, engine.generation
                    )
                    if entry is not None:
                        # Subquery skipped: a cache.hit span stands in for
                        # the executor subtree.
                        with tracer.span("cache.hit", level="request"):
                            pass
                        sub_span.tags["cache"] = "hit"
                        sub_span.tags["matched"] = entry[1]
                        shard_results.append(entry)
                        continue
                entry, matched = self._shard_subquery(
                    shard_id, plan, statement, statement_key, push_limit
                )
                sub_span.tags["matched"] = matched
                shard_results.append(entry)
        with tracer.span("query.aggregate"):
            result = aggregator.aggregate_shards(shard_results)
        return result, shard_ids, statement

    def _shard_subquery(
        self,
        shard_id: int,
        plan,
        statement: SelectStatement,
        statement_key,
        push_limit: int | None,
    ) -> tuple[tuple, int]:
        """Execute one shard's subquery (cache miss path): plan execution,
        LIMIT pushdown, raw-document fetch, request-cache fill. Returns the
        shard entry and its matched count."""
        engine = self.engines[shard_id]
        rows, _ = self._serial_executor(shard_id).execute(plan)
        matched = len(rows)
        if push_limit is not None:
            if statement.order_by is not None:
                rows = engine.top_k(
                    rows,
                    statement.order_by.column,
                    push_limit,
                    descending=statement.order_by.descending,
                )
            elif matched > push_limit:
                rows = PostingList(list(rows)[:push_limit], presorted=True)
        entry = ([doc.source for doc in engine.fetch(rows)], matched)
        if statement_key is not None:
            self.request_cache.put(
                shard_id, statement_key, engine.generation, entry, cost=rows_cost(entry[0])
            )
        return entry, matched

    def _serial_executor(self, shard_id: int) -> QueryExecutor:
        """The shard's long-lived executor for the serial fan-out: it counts
        operators into telemetry through counters it binds once, so it is
        kept, and rebuilt only when failover swaps the shard's engine."""
        engine = self.engines[shard_id]
        executor = self._executors.get(shard_id)
        if executor is None or executor.engine is not engine:
            executor = QueryExecutor(engine, telemetry=self.telemetry)
            self._executors[shard_id] = executor
        return executor

    @staticmethod
    def _pushdown_limit(statement: SelectStatement) -> int | None:
        """LIMIT pushdown: each shard needs at most LIMIT rows when the
        coordinator only sorts/truncates (no aggregates, which need every
        row; ORDER BY is satisfied by per-shard top-k + global merge)."""
        if statement.limit is None or statement.has_aggregates:
            return None
        return statement.limit

    def _target_shards(self, statement: SelectStatement) -> list[int]:
        """Shard pruning: a tenant-equality predicate restricts the fan-out
        to the tenant's consecutive shard range; otherwise all shards."""
        tenant = self._statement_tenant(statement)
        if tenant is None:
            return list(range(self.cluster.num_shards))
        return list(self.policy.query_shards(tenant))

    # -- introspection -----------------------------------------------------------
    def doc_count(self) -> int:
        return sum(e.doc_count() for e in self.engines.values())

    def shard_doc_counts(self) -> dict[int, int]:
        return {sid: e.doc_count() for sid, e in self.engines.items()}

    def tenant_fanout(self, tenant_id: object) -> int:
        """Subqueries a query for *tenant_id* currently requires."""
        return len(self.policy.query_shards(tenant_id))

    # -- dashboard and flight recorder (``_cat`` tables: repro.obsv.cat) -------
    def diagnostics_bundle(self) -> dict:
        """One-call flight recording: config summary, cat tables, time
        series, recent traces, events and slow logs in a single JSON-ready
        dict (see :mod:`repro.obsv.bundle` for the schema)."""
        from repro.obsv.bundle import diagnostics_bundle

        return diagnostics_bundle(self)

    def sample_timeseries(self, now: float | None = None, force: bool = False) -> bool:
        """Take a performance-history sample at *now* (default: the
        instance's logical clock). ``force=True`` samples even between
        interval boundaries. Returns whether a sample was taken."""
        if self.timeseries is None:
            return False
        at = self._clock if now is None else now
        self.advance_clock(at)
        if force:
            self.timeseries.sample(at)
            return True
        return self.timeseries.maybe_sample(at)

    def dashboard(self) -> str:
        """The one-page text dashboard (nodes, shard heatmap, top tenants,
        alerts, slow-log tail) — see also ``python -m repro.obsv``."""
        return render_dashboard(self)

    def obsv_snapshot(self) -> dict:
        """The dashboard as a JSON-ready dict."""
        return cluster_snapshot(self)

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
        physical plan, and the shard fan-out for *sql* without executing it."""
        statement = parse_sql(sql)
        translated = self.xdriver.translate(statement)
        plan = self.optimizer.plan(translated.statement)
        shard_ids = self._target_shards(translated.statement)
        lines = [f"SQL: {sql.strip()}"]
        if translated.dsl is not None:
            lines.append(f"ES-DSL: {translated.dsl.to_json()}")
            lines.append(
                "rewrite: depth "
                f"{translated.original_depth} -> "
                f"{translated.original_depth - translated.depth_reduction}, "
                f"width {translated.original_width} -> "
                f"{translated.original_width - translated.width_reduction}"
            )
        lines.append("plan:")
        lines.append("  " + plan.describe().replace("\n", "\n  "))
        lines.append(
            f"fan-out: {len(shard_ids)} shard(s) "
            f"[{shard_ids[0]}..{shard_ids[-1]}]"
            if shard_ids
            else "fan-out: 0 shards"
        )
        if self._pushdown_limit(translated.statement) is not None:
            lines.append(f"pushdown: per-shard LIMIT {translated.statement.limit}")
        return "\n".join(lines)

    # -- index management (the "Add/Drop Index" box of Figure 3) -------------
    def add_index(self, columns) -> str:
        """Build a composite index on *columns* across every shard and make
        the optimizer aware of it; returns the index name."""
        columns = tuple(columns)
        name = None
        for engine in self.engines.values():
            name = engine.add_composite_index(columns)
        self._set_catalog(self._catalog.composite_indexes + (columns,))
        return name or "_".join(columns)

    def drop_index(self, name: str) -> None:
        """Drop a dynamically added composite index cluster-wide."""
        for engine in self.engines.values():
            engine.drop_composite_index(name)
        self._set_catalog(
            tuple(
                columns
                for columns in self._catalog.composite_indexes
                if "_".join(columns) != name
            )
        )

    def _set_catalog(self, composite_indexes: tuple) -> None:
        """Point the optimizer at a catalog with *composite_indexes* (the
        only part of the catalog that changes after construction)."""
        self._catalog = CatalogInfo(
            schema=self.config.schema,
            composite_indexes=composite_indexes,
            scan_columns=self.config.scan_columns,
            indexed_subattributes=self.config.indexed_subattributes,
        )
        self.optimizer = RuleBasedOptimizer(
            self._catalog,
            enabled=self.config.optimizer_enabled,
            telemetry=self.telemetry,
        )

    def list_indexes(self) -> list[str]:
        """Composite indexes currently usable by the optimizer."""
        return sorted("_".join(columns) for columns in self._catalog.composite_indexes)

    def stats_report(self) -> str:
        """Human-readable instance report built from the telemetry registry:
        topology, per-node document distribution, engine counters, latency
        quantiles, optimizer plan picks, cache hit rates, consensus rounds,
        slow-log and skew summaries, and committed routing rules.

        The report is assembled from named sections rendered in sorted
        section order (deterministic output for diffing). With telemetry
        disabled the engine counter lines fall back to the engines' local
        :class:`~repro.storage.engine.EngineStats` and the registry-only
        sections are omitted.
        """
        metrics = self.telemetry.metrics
        sections: dict[str, list[str]] = {}
        cluster_lines = [self.cluster.describe()]
        per_node: dict[int, int] = {n.node_id: 0 for n in self.cluster.nodes}
        for shard_id, engine in self.engines.items():
            per_node[self.cluster.shard(shard_id).node_id] += engine.doc_count()
        cluster_lines.append("documents per node:")
        for node_id, count in sorted(per_node.items()):
            cluster_lines.append(f"  node-{node_id}: {count}")
        sections["cluster"] = cluster_lines
        if self.telemetry.enabled:
            writes = int(metrics.total("engine_writes_total"))
            refreshes = int(metrics.total("engine_refreshes_total"))
            merges = int(metrics.total("engine_merges_total"))
        else:
            writes = sum(e.stats.writes for e in self.engines.values())
            refreshes = sum(e.stats.refreshes for e in self.engines.values())
            merges = sum(e.stats.merges for e in self.engines.values())
        segments = sum(e.segment_count() for e in self.engines.values())
        sections["engines"] = [
            f"engines: {writes} writes, {refreshes} refreshes, {merges} merges, "
            f"{segments} live segments"
        ]
        sections.update(self._registry_report_sections())
        sections.update(self._timeseries_report_section())
        if self.obsv is not None:
            sections.update(self.obsv.report_lines())
        if self.governor is not None:
            sections["tenancy"] = self.governor.report_lines()
        if self.slo is not None:
            sections["slo"] = self.slo.report_lines()
        if self.hotkeys is not None:
            sections["hotkeys"] = self.hotkeys.report_lines()
        if isinstance(self.policy, DynamicSecondaryHashRouting):
            rules = self.policy.rules
            rule_lines = [f"routing rules: {len(rules)} committed"]
            for rule in list(rules)[:10]:
                tenants = sorted(map(str, rule.tenants))[:5]
                suffix = ", ..." if len(rule.tenants) > 5 else ""
                rule_lines.append(
                    f"  t={rule.effective_time:.2f} s={rule.offset} "
                    f"tenants=[{', '.join(tenants)}{suffix}]"
                )
            sections["routing"] = rule_lines
        lines: list[str] = []
        for name in sorted(sections):
            lines.extend(sections[name])
        return "\n".join(lines)

    def _timeseries_report_section(self) -> dict[str, list[str]]:
        """The performance-history section of :meth:`stats_report` —
        well-formed (header-only) when the store is disabled, empty, or
        running against the no-op registry."""
        store = self.timeseries
        if store is None:
            return {}
        lines = [
            f"history: {store.samples_taken} samples @ {store.interval:g}s, "
            f"{len(store.all_series())} series"
        ]
        for label, name in DASHBOARD_SERIES:
            series = store.get(name)
            if series is None or not len(series):
                continue
            summary = series.summary()
            lines.append(
                f"  {label:<14} {sparkline(series.values(), width=32)} "
                f"last={summary['last']:.3f} max={summary['max']:.3f}"
            )
        return {"timeseries": lines}

    def _registry_report_sections(self) -> dict[str, list[str]]:
        """Registry-derived report sections (empty when telemetry is off)."""
        if not self.telemetry.enabled:
            return {}
        metrics = self.telemetry.metrics
        sections: dict[str, list[str]] = {}
        queries = int(metrics.total("esdb_queries_total"))
        if queries:
            subqueries = int(metrics.total("esdb_subqueries_total"))
            sections["queries"] = [
                f"queries: {queries} executed, "
                f"avg fan-out {subqueries / queries:.1f} shard(s)"
            ]
        picks = {
            metric.labels["path"]: int(metric.value)
            for metric in metrics.series("optimizer_plan_picks_total")
        }
        if picks:
            rendered = ", ".join(f"{path}={count}" for path, count in sorted(picks.items()))
            sections["optimizer"] = [f"optimizer picks: {rendered}"]
        latency_lines = []
        for title, name in (
            ("write latency", "esdb_write_seconds"),
            ("query latency", "esdb_query_seconds"),
        ):
            histogram = metrics.get(name)
            if histogram is not None and histogram.count:
                p = histogram.summary()
                latency_lines.append(
                    f"{title}: p50={p['p50'] * 1e3:.3f}ms p95={p['p95'] * 1e3:.3f}ms "
                    f"p99={p['p99'] * 1e3:.3f}ms max={p['max'] * 1e3:.3f}ms"
                )
        if latency_lines:
            sections["latency"] = latency_lines
        cache_lines = []
        for level in ("filter", "request", "result"):
            hits = int(metrics.value("cache_hits_total", level=level))
            misses = int(metrics.value("cache_misses_total", level=level))
            if hits + misses == 0:
                continue
            evictions = int(metrics.value("cache_evictions_total", level=level))
            size = int(metrics.value("cache_bytes", level=level))
            rate = 100.0 * hits / (hits + misses)
            cache_lines.append(
                f"cache[{level}]: {hits} hits / {misses} misses "
                f"({rate:.1f}% hit), {evictions} evictions, {size} bytes"
            )
        if cache_lines:
            sections["cache"] = cache_lines
        rounds = {
            metric.labels["outcome"]: int(metric.value)
            for metric in metrics.series("consensus_rounds_total")
        }
        if rounds:
            sections["consensus"] = [
                "consensus rounds: "
                f"{rounds.get('committed', 0)} committed, "
                f"{rounds.get('aborted', 0)} aborted"
            ]
        return sections
