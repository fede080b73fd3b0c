"""The query coordinator: one statement's lifecycle, SQL text to result.

Identity and the statement caches (:mod:`repro.cache`), prepare — bind a
compiled shape (:mod:`repro.query.shapes`) or parse → Xdriver4ES → RBO —,
the fan-out its routing bounds allow (:mod:`repro.routing.bounds`), one
executor per shard, LIMIT pushdown, aggregation, and EXPLAIN's text.
:meth:`Coordinator.begin` probes and prepares, :meth:`Coordinator.execute`
answers; between the two the facade runs tenant admission.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.cache import (
    REQUEST_CACHE_BYTES,
    RESULT_CACHE_BYTES,
    CoordinatorResultCache,
    ShardRequestCache,
    rows_cost,
    rows_cost_floor,
    sql_fingerprint,
)
from repro.query.aggregator import ResultAggregator
from repro.query.executor import BoundPlan, QueryExecutor, bind_plan
from repro.query.optimizer import CatalogInfo, RuleBasedOptimizer
from repro.query.shapes import Shape, ShapeMap, lift, slot_where, subattribute_keys
from repro.query.sql_parser import parse_sql
from repro.query.xdriver import Xdriver4ES
from repro.routing.bounds import common_tenant, describe_fanout, fanout, routing_bounds
from repro.slo import query_terms
from repro.storage import PostingList

if TYPE_CHECKING:
    from repro.esdb import EsdbConfig
    from repro.query.ast import SelectStatement
    from repro.query.executor import ExecutionTrace
    from repro.query.planner import PhysicalPlan
    from repro.routing import RoutingPolicy
    from repro.storage import ShardEngine
    from repro.telemetry import Span, Telemetry


class Coordinator:
    """The read path of one instance, over its shard *engines* (the
    facade's dict, shared) and routing *policy*. The caches exist when
    ``config.cache`` is on; a statement's filter terms are computed for its
    result-cache entry only when ``config.slo`` is (the SLO profiler is
    their one reader)."""

    def __init__(
        self,
        config: EsdbConfig,
        engines: dict[int, ShardEngine],
        policy: RoutingPolicy,
        telemetry: Telemetry,
    ) -> None:
        self.config = config
        self.engines = engines
        self.policy = policy
        self._rules = getattr(policy, "rules", None)  # None: a static policy
        self.telemetry = telemetry
        metrics = telemetry.metrics
        self.request_cache: ShardRequestCache | None = None
        self.result_cache: CoordinatorResultCache | None = None
        if config.cache:
            self.request_cache = ShardRequestCache(REQUEST_CACHE_BYTES, metrics=metrics)
            for engine in engines.values():
                self.request_cache.attach(engine)
            self.result_cache = CoordinatorResultCache(RESULT_CACHE_BYTES, metrics=metrics)
        self._filter_terms = query_terms if config.slo else lambda statement: ()
        #: SQL text -> its identity, the key of both statement caches
        self._identities: OrderedDict[str, str] = OrderedDict()
        #: operator -> its executor_operators_total series (see _count_operators)
        self._operator_counters: dict = {}
        self._postings_counter = metrics.counter("executor_postings_total")
        self.xdriver = Xdriver4ES()
        #: statement shape -> its compiled rewrite and plan (repro.query.shapes)
        self.shapes = ShapeMap(metrics)
        self._set_catalog(config.composite_columns)

    # -- one statement ---------------------------------------------------------
    def begin(self, tracer, sql: str) -> tuple[tuple, tuple, tuple | None]:
        """Probe the result cache for *sql*; on a miss, prepare it and read
        its routing bounds once. Returns its cache key ``(identity,
        rule-list version)``, an entry ``(result, tenant, subattrs,
        terms)`` and what :meth:`execute` fans out: None on a hit, whose
        entry is the cached one; on a miss the entry's result is None, its
        terms empty, and the fan-out ``(statement, plan, bounds)``."""
        identity = sql_fingerprint(sql, self._identities)
        rules = self._rules
        version = 0 if rules is None else rules.version
        key = (identity, version)
        if self.result_cache is not None:
            entry = self.result_cache.get(identity, version, self.engines)
            if entry is not None:
                return key, entry, None
        statement, plan, subattrs = self.prepare(tracer, sql)
        bounds = routing_bounds(statement.where, self.config.schema)
        return key, (None, common_tenant(bounds), subattrs, ()), (statement, plan, bounds)

    def execute(
        self, tracer, root: Span, key: tuple, entry: tuple, prepared: tuple | None
    ) -> tuple:
        """Answer what :meth:`begin` returned; returns the full entry.

        A hit (*prepared* None) skips the whole fan-out, surfaced as a
        ``cache.hit`` span where the executor subtree would have been. A
        miss runs the statement's plan on the shards its bounds allow —
        each through the shard request cache under the statement's
        identity, from its second sighting on — aggregates, and puts the
        entry in the result cache with the generation of every shard it
        read."""
        if prepared is None:
            with tracer.span("cache.hit", level="result", fingerprint=key[0]):
                pass
            root.tags["cache"] = "hit"
            root.tags["fanout"] = entry[0].subqueries
            return entry
        identity = key[0]
        statement, plan, bounds = prepared
        _, shard_ids = fanout(self.policy, bounds, len(self.engines))
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
        # The doorkeeper is asked once per fan-out (another shard of a
        # first sighting is not its second), and its answer gates both
        # statement levels: a first sighting probes no shard unless its
        # identity still holds entries, stores no subquery, and evicts no
        # cached result.
        seen = probe = False
        if request_cache is not None:
            seen = request_cache.admit(identity)
            probe = seen or request_cache.holds(identity)
        store_key = identity if seen else None
        shard_results = []
        executed = postings = 0
        for shard_id in shard_ids:
            with tracer.span(f"query.shard[{shard_id}]") as sub_span:
                if probe:
                    cached = request_cache.get(
                        shard_id, identity, self.engines[shard_id].generation
                    )
                    if cached is not None:
                        # Subquery skipped: a cache.hit span stands in for
                        # the executor subtree.
                        with tracer.span("cache.hit", level="request"):
                            pass
                        sub_span.tags["cache"] = "hit"
                        sub_span.tags["matched"] = cached[1]
                        shard_results.append(cached)
                        continue
                shard_entry, trace = self._shard_subquery(
                    shard_id, plan, statement, store_key, push_limit
                )
                sub_span.tags["matched"] = shard_entry[1]
                shard_results.append(shard_entry)
                executed += 1
                postings += trace.total_postings
        if executed:
            self._count_operators(plan, executed, postings)
        with tracer.span("query.aggregate"):
            result = aggregator.aggregate_shards(shard_results)
        entry = (result, entry[1], entry[2], self._filter_terms(statement))
        result_cache = self.result_cache
        # A validator costs 24 bytes: a first sighting whose cost's floor
        # already exceeds the free budget is refused before it is priced.
        if result_cache is not None and (
            seen or result_cache.fits(rows_cost_floor(result.rows) + 24 * len(shard_ids))
        ):
            validators = tuple(
                (shard_id, self.engines[shard_id].generation) for shard_id in shard_ids
            )
            result_cache.put(
                *key, entry, validators,
                cost=rows_cost(result.rows) + 24 * len(validators),
                seen=seen,
            )
        return entry

    def prepare(
        self, tracer, sql: str
    ) -> tuple[SelectStatement, BoundPlan, tuple[str, ...]]:
        """The rewritten statement of *sql*, its bound plan and the
        sub-attributes it filters on: its shape's compiled template bound to
        its literals, or parse → rewrite → plan → compile when the shape is
        new, or value-dependent (:mod:`repro.query.shapes`). Routing stays
        per call: nothing here depends on the rule list."""
        key, literals = lift(sql)
        bound = self.shapes.bind(key, literals, tracer)
        if bound is not None:
            statement, plan, shape = bound
            self.optimizer.count_picks(shape.picks)
            return statement, plan, shape.subattrs
        with tracer.span("query.parse"):
            statement = parse_sql(sql)
        slotted = slot_where(statement, literals)
        catalog = self.optimizer.catalog
        if slotted is None:
            self.shapes.count_unstable()
            statement, plan, subattrs = self._rewrite_and_plan(tracer, statement)
            return statement, bind_plan(plan, catalog), subattrs
        rewritten, plan, _ = self._rewrite_and_plan(tracer, slotted.statement)
        shape = self.shapes.add(key, Shape(key, slotted, rewritten, plan, catalog))
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

    def _shard_subquery(
        self,
        shard_id: int,
        plan: BoundPlan,
        statement: SelectStatement,
        store_key: str | None,
        push_limit: int | None,
    ) -> tuple[tuple, ExecutionTrace]:
        """Execute one shard's subquery (cache miss path): the plan's
        steps, LIMIT pushdown, raw-document fetch, and the request-cache
        fill under *store_key* — None unless the cache admitted the
        statement. Returns the shard entry ``(sources, matched)`` and the
        operator trace."""
        engine = self.engines[shard_id]
        rows, trace = QueryExecutor(engine).execute(plan)
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
        entry = (engine.fetch(rows), matched)
        if store_key is not None:
            self.request_cache.put(
                shard_id, store_key, engine.generation, entry, cost=rows_cost(entry[0])
            )
        return entry, trace

    def _count_operators(self, plan: BoundPlan, subqueries: int, postings: int) -> None:
        """``executor_operators_total{operator}`` and
        ``executor_postings_total``, once per statement: each of its
        *subqueries* ran every step of *plan*."""
        counters = self._operator_counters
        for step in plan.steps:
            counter = counters.get(step[1])
            if counter is None:
                counter = counters[step[1]] = self.telemetry.metrics.counter(
                    "executor_operators_total", operator=step[1]
                )
            counter.inc(subqueries)
        self._postings_counter.inc(postings)

    @staticmethod
    def _pushdown_limit(statement: SelectStatement) -> int | None:
        """LIMIT pushdown: each shard needs at most LIMIT rows when the
        coordinator only sorts/truncates (no aggregates, which need every
        row; ORDER BY is satisfied by per-shard top-k + global merge)."""
        if statement.limit is None or statement.has_aggregates:
            return None
        return statement.limit

    # -- EXPLAIN -----------------------------------------------------------------
    def explain(self, sql: str) -> str:
        """The Xdriver4ES rewrite, the ES-DSL tree, the RBO physical plan
        and the shard fan-out for *sql* — with the bounds that pruned it —
        without executing it."""
        translated = self.xdriver.translate(parse_sql(sql))
        statement = translated.statement
        plan = self.optimizer.plan(statement)
        bounds = routing_bounds(statement.where, self.config.schema)
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
            describe_fanout(self.policy, self.config.schema, bounds, len(self.engines))
        )
        if self._pushdown_limit(statement) is not None:
            lines.append(f"pushdown: per-shard LIMIT {statement.limit}")
        return "\n".join(lines)

    # -- what changes under it ---------------------------------------------------
    def replace_engine(self, shard_id: int, engine: ShardEngine) -> None:
        """Serve shard *shard_id* from *engine* (a promoted replica): the
        shard's engine object and its generation counter changed, so every
        cached read that might reference the old one is dropped and the
        shard's subqueries run on *engine* from now on."""
        self.engines[shard_id] = engine
        if self.request_cache is not None:
            self.request_cache.invalidate_shard(shard_id)
            self.request_cache.attach(engine)
        if self.result_cache is not None:
            self.result_cache.clear()

    def add_index(self, columns: tuple) -> None:
        """Plan against a catalog that has the composite index *columns*."""
        self._set_catalog(self.optimizer.catalog.composite_indexes + (columns,))

    def drop_index(self, name: str) -> None:
        """Plan against a catalog without the composite index *name*."""
        self._set_catalog(
            tuple(
                columns
                for columns in self.optimizer.catalog.composite_indexes
                if "_".join(columns) != name
            )
        )

    def _set_catalog(self, composite_indexes: tuple) -> None:
        """Point the optimizer at a catalog with *composite_indexes* (the
        only part of the catalog that changes after construction), and
        forget every statement shape planned against the old one."""
        self.shapes.clear()
        self.optimizer = RuleBasedOptimizer(
            CatalogInfo(
                schema=self.config.schema,
                composite_indexes=composite_indexes,
                scan_columns=self.config.scan_columns,
                indexed_subattributes=self.config.indexed_subattributes,
            ),
            enabled=self.config.optimizer_enabled,
            telemetry=self.telemetry,
        )
