"""The ESDB facade: a complete, queryable multi-tenant database instance.

Glues together every subsystem into the end-to-end path a user of the real
system would see:

* a :class:`~repro.cluster.Cluster` topology with one
  :class:`~repro.storage.engine.ShardEngine` per primary shard;
* a routing policy (dynamic secondary hashing by default) shared by the
  write path and the query fan-out;
* the workload monitor + load balancer + consensus loop that commits new
  secondary hashing rules as hotspots emerge;
* SQL execution: parse → Xdriver4ES → per-shard RBO plan → execute →
  coordinator aggregation; a statement whose shape was compiled before
  binds its literals into that rewrite and plan instead
  (:mod:`repro.query.shapes`).

This facade favours clarity over throughput — the performance experiments
use :mod:`repro.sim`; this class is the *functional* system behind the
examples and the query-side benchmarks (Figures 16–18).
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple

from repro.balancer import BalancerConfig, LoadBalancer, WorkloadMonitor
from repro.cache import (
    FILTER_CACHE_BYTES,
    REQUEST_CACHE_BYTES,
    RESULT_CACHE_BYTES,
    CoordinatorResultCache,
    ShardRequestCache,
    rows_cost,
    sql_fingerprint,
)
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
from repro.query import (
    QueryExecutor,
    ResultAggregator,
    RuleBasedOptimizer,
    Xdriver4ES,
    parse_sql,
)
from repro.query.aggregator import QueryResult
from repro.query.ast import (
    AndNode,
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    OrNode,
    SelectStatement,
)
from repro.query.optimizer import CatalogInfo
from repro.query.planner import PhysicalPlan
from repro.query.shapes import Shape, ShapeMap, lift, slot_where, subattribute_keys
from repro.routing import DynamicSecondaryHashRouting, RoutingPolicy
from repro.slo import SloEngine, query_terms
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
    current_context,
)
from repro.tenancy import TenancyConfig, TenantGovernor
from repro.telemetry.runtime import default_telemetry
from repro.telemetry.timeseries import TimeSeriesStore, install_esdb_derivations

if TYPE_CHECKING:
    from repro.replication import ReplicaSet

#: Distinguishes instances sharing one registry (profiling runs).
_INSTANCE_IDS = itertools.count()


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


class RoutingBounds(NamedTuple):
    """What one disjunct of a WHERE tree pins down for routing: its tenant,
    the tightest numeric bounds on the creation time, and the record id."""

    tenant: object
    since: float | None = None
    until: float | None = None
    record_id: object = None


def _is_time_bound(value: object) -> bool:
    """A creation-time literal routing can compare: a number, not a bool,
    not NaN."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value == value


_LOWER_OPS = frozenset(("=", ">", ">="))
_UPPER_OPS = frozenset(("=", "<", "<="))


def routing_bounds(where: object, schema: Schema) -> tuple[RoutingBounds, ...] | None:
    """The distinct :class:`RoutingBounds` of the disjuncts of the
    rewritten (DNF) tree *where*, or None when a disjunct names no tenant:
    the statement is cross-tenant and visits every shard.

    A disjunct's bounds come from its top-level conjuncts only — each one
    holds for every row the disjunct matches — so a tenant equality under
    an OR never prunes: ``tenant_id = 1`` = the tenant, ``tenant_id IN (1,
    2)`` = one bound per listed tenant; ``=``, ``<``, ``<=`` and
    ``BETWEEN``'s high end on the time field = an upper bound (the smallest
    wins); ``=``, ``>``, ``>=`` and ``BETWEEN``'s low end = a lower bound;
    ``=`` on the id field = the record."""
    if where is None:
        return None
    time_field = schema.time_field
    bounds = []
    for disjunct in where.children if isinstance(where, OrNode) else (where,):
        tenants = record_id = since = until = None
        for predicate in disjunct.children if isinstance(disjunct, AndNode) else (disjunct,):
            low = high = None
            if isinstance(predicate, ComparisonPredicate):
                column, op = predicate.column, predicate.op
                if column == time_field:
                    low = predicate.value if op in _LOWER_OPS else None
                    high = predicate.value if op in _UPPER_OPS else None
                elif op == "=" and column == schema.tenant_field:
                    tenants = (predicate.value,) if tenants is None else tenants
                elif op == "=" and column == schema.id_field:
                    record_id = predicate.value if record_id is None else record_id
            elif isinstance(predicate, BetweenPredicate) and predicate.column == time_field:
                low, high = predicate.low, predicate.high
            elif isinstance(predicate, InPredicate) and predicate.column == schema.tenant_field:
                tenants = predicate.values if tenants is None else tenants
            if low is not None and _is_time_bound(low):
                since = low if since is None else max(since, low)
            if high is not None and _is_time_bound(high):
                until = high if until is None else min(until, high)
        if tenants is None:
            return None
        bounds.extend(RoutingBounds(tenant, since, until, record_id) for tenant in tenants)
    return tuple(dict.fromkeys(bounds))


def common_tenant(bounds: tuple[RoutingBounds, ...] | None) -> object:
    """The tenant every one of *bounds* names, or None for a cross-tenant
    statement: one whose disjuncts name different tenants or none."""
    if bounds is None or any(b.tenant != bounds[0].tenant for b in bounds[1:]):
        return None
    return bounds[0].tenant


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
            singletons — near-zero overhead, and the report
            (:func:`repro.obsv.render_report`) shows no registry counters.
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
        self.instance = f"esdb{next(_INSTANCE_IDS)}"
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
        caches = self.config.cache
        engine_config = EngineConfig(
            schema=self.config.schema,
            composite_columns=self.config.composite_columns,
            scan_columns=self.config.scan_columns,
            indexed_subattributes=self.config.indexed_subattributes,
            auto_refresh_every=self.config.auto_refresh_every,
            filter_cache_bytes=FILTER_CACHE_BYTES if caches else None,
        )
        self.engines: dict[int, ShardEngine] = {
            shard.shard_id: ShardEngine(
                engine_config, shard_id=shard.shard_id, telemetry=self.telemetry
            )
            for shard in self.cluster.shards
        }
        self._executors: dict[int, QueryExecutor] = {}  # see _serial_executor
        #: SQL text -> its identity, the key of both statement caches
        self._identities: OrderedDict[str, str] = OrderedDict()
        self.request_cache: ShardRequestCache | None = None
        self.result_cache: CoordinatorResultCache | None = None
        if caches:
            self.request_cache = ShardRequestCache(REQUEST_CACHE_BYTES, metrics=metrics)
            for engine in self.engines.values():
                self.request_cache.attach(engine)
            self.result_cache = CoordinatorResultCache(RESULT_CACHE_BYTES, metrics=metrics)
        self.xdriver = Xdriver4ES()
        #: statement shape -> its compiled rewrite and plan (repro.query.shapes)
        self._shapes = ShapeMap(metrics)
        self._set_catalog(self.config.composite_columns)
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
        #: A statement's filter terms, which a result-cache entry keeps for
        #: its hits: computed only when the SLO profiler reads them.
        self._filter_terms = lambda statement: ()
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
            self._filter_terms = query_terms
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
        batch is then applied by :meth:`_apply_shard_batch`, and the rest
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
                            exc = self._unroutable(source) or exc
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
                shards = [
                    (groups[shard_id], *self._apply_shard_batch(shard_id, groups[shard_id], items))
                    for shard_id in shard_ids
                ]
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
    ) -> tuple[float, list[tuple[str, ...]]]:
        """Apply one shard's documents in submission order, recording each
        outcome on its item — a failure never aborts the batch and never
        re-applies a document. Returns the engine seconds the batch took
        and the applied documents' sub-attribute names (one tuple each)."""
        target = self.replica_sets.get(shard_id, self.engines[shard_id])
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
            items[position] = BulkItemResult(
                position=position, doc_id=doc_id, shard_id=shard_id
            )
        return time.perf_counter() - started, subattr_names

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

    def _rule_version(self) -> int:
        """Current rule-list version (0 for policies without a rule list)."""
        rules = getattr(self.policy, "rules", None)
        return rules.version if rules is not None else 0

    def _execute_traced(self, tracer, sql: str) -> tuple[QueryResult, Span]:
        """The one query pipeline, behind :meth:`execute_sql` and
        :meth:`explain_analyze`: probe the result cache; on a miss, prepare
        the statement and read its routing bounds once — its tenant and its
        shards; admit the tenant (governed instances); fan out and put the
        result; hand the :class:`~repro.consumers.Query` to every consumer. A
        cache entry carries the tenant, ``ATTR`` keys and filter terms its
        miss computed, so a hit is accounted for as its miss was."""
        governor = self.governor
        result_cache = self.result_cache
        ctx = self._new_trace("query")
        identity = sql_fingerprint(sql, self._identities)
        with tracer.trace("query", ctx) as root:
            key = (identity, self._rule_version())
            cached = (
                result_cache.get(*key, self.engines) if result_cache is not None else None
            )
            if cached is None:
                statement, plan, subattrs = self._prepare(tracer, sql)
                bounds = routing_bounds(statement.where, self.config.schema)
                tenant = common_tenant(bounds)
            else:
                result, tenant, subattrs, terms = cached
            if governor is not None:
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
                    refused = Query(self._clock, ctx, self._emit_event, tenant, sql,
                                    identity, subattrs, (), root, None, 0)
                    for consumer in self.consumers:
                        consumer.on_query(refused)
                    raise
            if cached is None:
                shard_ids = self._target_shards(self._shards_per_bound(bounds))
                result = self._execute_fanout(
                    tracer, root, identity, statement, plan, shard_ids
                )
                scanned = result.total_hits
                terms = self._filter_terms(statement)
                if result_cache is not None:
                    validators = tuple(
                        (shard_id, self.engines[shard_id].generation)
                        for shard_id in shard_ids
                    )
                    result_cache.put(
                        *key, (result, tenant, subattrs, terms), validators,
                        cost=rows_cost(result.rows) + 24 * len(validators),
                    )
            else:
                # The whole fan-out is skipped: surface the hit as its own
                # span where the executor subtree would have been.
                with tracer.span("cache.hit", level="result", fingerprint=identity):
                    pass
                root.tags["cache"] = "hit"
                root.tags["fanout"] = result.subqueries
                scanned = 0
        self._counters["esdb_queries_total"].inc()
        if cached is None:
            self._counters["esdb_subqueries_total"].inc(result.subqueries)
            if self.telemetry.enabled:
                self._histograms["esdb_query_seconds"].observe(root.duration, ctx)
        query = Query(self._clock, ctx, self._emit_event, tenant, sql, identity,
                      subattrs, terms, root, result, scanned)
        for consumer in self.consumers:
            consumer.on_query(query)
        return result, root

    def _prepare(
        self, tracer, sql: str
    ) -> tuple[SelectStatement, PhysicalPlan, tuple[str, ...]]:
        """The rewritten statement of *sql*, its plan and the sub-attributes
        it filters on: its shape's compiled template bound to its literals,
        or parse → rewrite → plan when the shape is new, or value-dependent
        (:mod:`repro.query.shapes`). Routing stays per call: nothing here
        depends on the rule list."""
        key, literals = lift(sql)
        bound = self._shapes.bind(key, literals, tracer)
        if bound is not None:
            statement, plan, shape = bound
            self.optimizer.count_picks(shape.picks)
            return statement, plan, shape.subattrs
        with tracer.span("query.parse"):
            statement = parse_sql(sql)
        slotted = slot_where(statement, literals)
        if slotted is None:
            self._shapes.count_unstable()
            return self._rewrite_and_plan(tracer, statement)
        rewritten, plan, _ = self._rewrite_and_plan(tracer, slotted.statement)
        shape = self._shapes.add(key, Shape(key, slotted, rewritten, plan))
        # slot_where accepted these very literals, so they bind.
        return (*shape.bind(literals), shape.subattrs)

    def _rewrite_and_plan(
        self, tracer, statement: SelectStatement
    ) -> tuple[SelectStatement, PhysicalPlan, tuple[str, ...]]:
        with tracer.span("query.rewrite"):
            statement = self.xdriver.translate(statement).statement
        with tracer.span("query.plan") as plan_span:
            plan = self.optimizer.plan(statement)
            plan_span.tags["root"] = type(plan.root).__name__
        return statement, plan, subattribute_keys(statement.where)

    def _execute_fanout(
        self,
        tracer,
        root: Span,
        identity: str,
        statement: SelectStatement,
        plan: PhysicalPlan,
        shard_ids: list[int],
    ) -> QueryResult:
        """Per-shard execution of a rewritten *statement*'s *plan* on
        *shard_ids* (through the shard request cache, under the *identity*
        of its text) → aggregation."""
        root.tags["fanout"] = len(shard_ids)
        aggregator = ResultAggregator(
            columns=statement.columns,
            order_by=statement.order_by,
            limit=statement.limit,
            group_by=statement.group_by,
            having=statement.having,
        )
        push_limit = self._pushdown_limit(statement)
        request_cache = self.request_cache
        # Asked once per fan-out: another shard of a statement's first
        # sighting is not its second.
        store_key = (
            identity if request_cache is not None and request_cache.admit(identity) else None
        )
        shard_results = []
        for shard_id in shard_ids:
            with tracer.span(f"query.shard[{shard_id}]") as sub_span:
                engine = self.engines[shard_id]
                if request_cache is not None:
                    entry = request_cache.get(shard_id, identity, engine.generation)
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
                    shard_id, plan, statement, store_key, push_limit
                )
                sub_span.tags["matched"] = matched
                shard_results.append(entry)
        with tracer.span("query.aggregate"):
            return aggregator.aggregate_shards(shard_results)

    def _shard_subquery(
        self,
        shard_id: int,
        plan,
        statement: SelectStatement,
        store_key,
        push_limit: int | None,
    ) -> tuple[tuple, int]:
        """Execute one shard's subquery (cache miss path): plan execution,
        LIMIT pushdown, raw-document fetch, and the request-cache fill under
        *store_key* — None unless the cache admitted the statement. Returns
        the shard entry and its matched count."""
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
        if store_key is not None:
            self.request_cache.put(
                shard_id, store_key, engine.generation, entry, cost=rows_cost(entry[0])
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

    def _shards_per_bound(self, bounds: tuple[RoutingBounds, ...] | None) -> list | None:
        """The shards each of a statement's :func:`routing_bounds` allows,
        one :meth:`RoutingPolicy.query_shards` call per disjunct; None for a
        cross-tenant statement."""
        if bounds is None:
            return None
        return [
            self.policy.query_shards(
                bound.tenant, until=bound.until, record_id=bound.record_id, since=bound.since
            )
            for bound in bounds
        ]

    def _target_shards(self, per_bound: list | None) -> list[int]:
        """Shard pruning through the rule list: the union of the disjuncts'
        shards (:meth:`_shards_per_bound`), in disjunct order; every shard
        when a disjunct names no tenant."""
        if per_bound is None:
            return list(range(self.cluster.num_shards))
        return list(dict.fromkeys(itertools.chain.from_iterable(per_bound)))

    # -- introspection -----------------------------------------------------------
    def doc_count(self) -> int:
        return sum(e.doc_count() for e in self.engines.values())

    def tenant_fanout(self, tenant_id: object) -> int:
        """Subqueries a query for *tenant_id* currently requires."""
        return len(self.policy.query_shards(tenant_id))

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
        statement = parse_sql(sql)
        translated = self.xdriver.translate(statement)
        plan = self.optimizer.plan(translated.statement)
        bounds = routing_bounds(translated.statement.where, self.config.schema)
        per_bound = self._shards_per_bound(bounds)
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
        lines.append(self._describe_fanout(bounds, per_bound))
        if self._pushdown_limit(translated.statement) is not None:
            lines.append(f"pushdown: per-shard LIMIT {translated.statement.limit}")
        return "\n".join(lines)

    def _describe_fanout(
        self, bounds: tuple[RoutingBounds, ...] | None, per_bound: list | None
    ) -> str:
        """EXPLAIN's fan-out line: the shards — ``[first..last]`` when they
        are consecutive, else the list — and, per disjunct, the bounds that
        decided them and how far they pruned."""
        shard_ids = self._target_shards(per_bound)
        first, total = shard_ids[0], self.cluster.num_shards
        consecutive = all(
            (shard - first) % total == i for i, shard in enumerate(shard_ids)
        )
        shards = f"[{first}..{shard_ids[-1]}]" if consecutive else str(shard_ids)
        why = (
            "cross-tenant: a disjunct names no tenant"
            if bounds is None
            else "; ".join(
                self._describe_bound(bound, len(visited))
                for bound, visited in zip(bounds, per_bound)
            )
        )
        return f"fan-out: {len(shard_ids)} shard(s) {shards} ({why})"

    def _describe_bound(self, bound: RoutingBounds, visited: int) -> str:
        schema = self.config.schema
        time_field = schema.time_field
        terms = [f"{schema.tenant_field} = {bound.tenant!r}"]
        # A lower bound narrows only a record's candidates.
        since = bound.since if bound.record_id is not None else None
        if since is not None and since == bound.until:
            terms.append(f"{time_field} = {since!r}")
        else:
            if since is not None:
                terms.append(f"{time_field} >= {since!r}")
            if bound.until is not None:
                terms.append(f"{time_field} <= {bound.until!r}")
        # The unbounded fan-out, read without a query_shards call so that
        # EXPLAIN adds to the fan-out counters only what execution would.
        widest = max(self.policy.offsets(bound.tenant))
        if bound.record_id is None:
            reach = f"offset {visited} of {widest}"
        else:
            terms.append(f"{schema.id_field} = {bound.record_id!r}")
            reach = f"{visited} of {widest} shard(s)"
        return f"{', '.join(terms)} -> {reach}"

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
        only part of the catalog that changes after construction), and
        forget every statement shape planned against the old one."""
        self._shapes.clear()
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
