"""Shared execution: answer N same-shaped queries with one scan.

The SharedDB idea ("Killing One Thousand Queries With One Stone"): when
many concurrently submitted statements are identical or filter the same
scan column, the coordinator should not fan each one out independently —
it runs the work once and fans the *results* back out.

:func:`execute_batch` implements the two coalescing levels behind
:meth:`ESDB.execute_batch`:

* **fingerprint groups** — exact duplicates (by
  :func:`~repro.cache.sql_fingerprint`) execute once; every duplicate
  position receives the same result.
* **scan families** — distinct statements whose WHERE clause is a single
  comparison on one sequential-scan column share one
  :meth:`~repro.storage.engine.ShardEngine.multi_full_scan` pass per
  shard: the column is traversed once, every member's predicate is
  evaluated in that pass, and each member aggregates its own posting
  lists.

Everything else falls through to the ordinary per-statement pipeline, so
a batch of unrelated queries behaves exactly like a loop over
``execute_sql``. Savings land in ``exec_shared_groups_total`` /
``exec_shared_saved_total``. The shared pass runs shard by shard on the
coordinator: it is the scans that are amortized, not threads.
"""

from __future__ import annotations

from repro.cache import sql_fingerprint
from repro.errors import QueryError
from repro.query import ResultAggregator, parse_sql
from repro.query.ast import ComparisonPredicate, SelectStatement
from repro.query.executor import _scan_predicate

#: Largest number of statements fused into one shared scan; a larger
#: family starts a new group.
MAX_GROUP = 64


def execute_batch(db, sqls: list) -> list:
    """Execute *sqls* with coalescing; results align with input positions
    and equal independent execution (the contract the tests pin)."""
    sqls = list(sqls)
    if len(sqls) <= 1:
        return [db.execute_sql(sql) for sql in sqls]

    metrics = db.telemetry.metrics
    groups: dict[str, list[int]] = {}
    order: list[str] = []
    rep_sql: dict[str, str] = {}
    for pos, sql in enumerate(sqls):
        fingerprint = sql_fingerprint(sql)
        if fingerprint not in groups:
            groups[fingerprint] = []
            order.append(fingerprint)
            rep_sql[fingerprint] = sql
        groups[fingerprint].append(pos)

    # Family detection over the distinct statements only: a parse failure
    # here is not an error — the statement simply executes independently
    # and surfaces its error through the normal pipeline.
    statements: dict[str, SelectStatement | None] = {}
    families: dict[str, list[str]] = {}
    for fingerprint in order:
        statement = _try_translate(db, rep_sql[fingerprint])
        statements[fingerprint] = statement
        column = _family_column(db, statement)
        if column is not None:
            families.setdefault(column, []).append(fingerprint)

    results: list = [None] * len(sqls)
    shared: set[str] = set()
    for column, members in sorted(families.items()):
        for start in range(0, len(members), MAX_GROUP):
            chunk = members[start:start + MAX_GROUP]
            if len(chunk) < 2:
                continue
            chunk_results = _execute_family(
                db, column, [statements[fp] for fp in chunk]
            )
            for fingerprint, result in zip(chunk, chunk_results):
                for pos in groups[fingerprint]:
                    results[pos] = result
                shared.add(fingerprint)
            metrics.counter("exec_shared_groups_total", kind="family").inc()
            metrics.counter("exec_shared_saved_total").inc(len(chunk) - 1)

    for fingerprint in order:
        if fingerprint not in shared:
            result = db.execute_sql(rep_sql[fingerprint])
            for pos in groups[fingerprint]:
                results[pos] = result
        duplicates = len(groups[fingerprint]) - 1
        if duplicates:
            metrics.counter("exec_shared_groups_total", kind="duplicate").inc()
            metrics.counter("exec_shared_saved_total").inc(duplicates)
    return results


def _try_translate(db, sql: str) -> SelectStatement | None:
    try:
        return db.xdriver.translate(parse_sql(sql)).statement
    except QueryError:
        return None


def _family_column(db, statement: SelectStatement | None) -> str | None:
    """The scan column a statement can share a pass on, or None.

    Membership is deliberately narrow — exactly one comparison predicate
    on a sequential-scan column, full shard fan-out, no per-shard top-k —
    so the shared pass is provably equivalent to the member's own
    :class:`~repro.query.plan.FullScan` plan."""
    if statement is None:
        return None
    where = statement.where
    if not isinstance(where, ComparisonPredicate):
        return None
    if where.column == db.config.schema.tenant_field:
        return None
    if where.column not in db.config.scan_columns:
        return None
    if statement.limit is not None or statement.order_by is not None:
        return None
    return where.column


def _execute_family(db, column: str, members: list) -> list:
    """One shared scan for every member statement; returns their results
    in member order. Each member still passes admission and is charged
    for what its own filter matched."""
    governor = db.governor
    # A member filters one non-tenant column (_family_column): it names no
    # tenant, so it is admitted and charged as cross-tenant.
    if governor is not None:
        for _ in members:
            governor.admit_query(None, db.now)
    predicates = []
    for statement in members:
        base = _scan_predicate(statement.where.op, statement.where.value)
        predicates.append(lambda v, base=base: v is not None and base(v))
    shard_ids = list(range(db.cluster.num_shards))

    def run_fanout() -> list:
        per_shard = []
        for shard_id in shard_ids:
            engine = db.engines[shard_id]
            per_shard.append([
                ([doc.source for doc in engine.fetch(rows)], len(rows))
                for rows in engine.multi_full_scan(column, predicates)
            ])
        return per_shard

    ctx = db._new_trace("execute_batch")
    if ctx is not None:
        # The shared pass gets its own trace; every member statement gets
        # its own context, attached as span links — SharedDB's attribution
        # fix: the scan's cost is creditable to all N statements, not just
        # whichever one happened to trigger the group.
        member_contexts = [db._new_trace("query") for _ in members]
        with db.telemetry.tracer.trace(
            f"batch.scan[{column}]",
            ctx,
            sampler=db.trace_sampler,
            members=len(members),
        ) as span:
            for member_ctx in member_contexts:
                span.add_link(member_ctx.trace_id)
            per_shard = run_fanout()
    else:
        per_shard = run_fanout()

    metrics = db.telemetry.metrics
    results = []
    for i, statement in enumerate(members):
        aggregator = ResultAggregator(
            columns=statement.columns,
            order_by=statement.order_by,
            limit=statement.limit,
            group_by=statement.group_by,
            having=statement.having,
        )
        result = aggregator.aggregate_shards(
            [per_shard[shard_id][i] for shard_id in shard_ids]
        )
        metrics.counter("esdb_queries_total").inc()
        if governor is not None:
            governor.charge_query(None, db.now, scanned=result.total_hits)
        results.append(result)
    metrics.counter("esdb_subqueries_total").inc(len(shard_ids))
    return results
