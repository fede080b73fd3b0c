"""Seller analytics: multi-column ad-hoc SQL with the rule-based optimizer.

Loads a Zipf-skewed transaction corpus, balancing as it goes so the hot
sellers spread over more shards, then runs the kinds of ad-hoc queries
sellers issue — multi-column filters, full-text search, time windows,
sub-attribute filters — showing the physical plans the RBO picks
(composite index, sequential scan, single-column index), the shards each
statement fans out to and why, and comparing intermediate work against
Lucene's rigid one-index-per-predicate plan. Every answer is checked
against the same plan run on every shard.

Run:  python examples/seller_analytics.py
"""

import time

from repro import ESDB, EsdbConfig
from repro.balancer import BalancerConfig
from repro.cluster import ClusterTopology
from repro.query import QueryExecutor, RuleBasedOptimizer, Xdriver4ES, parse_sql
from repro.query.optimizer import CatalogInfo
from repro.telemetry import NULL_TELEMETRY
from repro.workload import TransactionLogGenerator, WorkloadConfig


def build_database() -> ESDB:
    db = ESDB(
        EsdbConfig(
            topology=ClusterTopology(num_nodes=4, num_shards=16),
            auto_refresh_every=4096,
            # A hot seller spreads over at most half the shards.
            balancer=BalancerConfig(max_offset=8),
        )
    )
    generator = TransactionLogGenerator(WorkloadConfig(num_tenants=200, theta=1.0, seed=5))
    print("loading 10,000 transaction logs ...")
    for i in range(10_000):
        db.write(generator.generate(created_time=i * 0.01))
        if i % 1000 == 999:
            db.rebalance()
    db.refresh()
    return db


QUERIES = [
    # The paper's Figure 6 template: tenant + time window + status OR group.
    # The second disjunct names no seller, so every shard is read.
    "SELECT * FROM transaction_logs WHERE tenant_id = 1 "
    "AND created_time BETWEEN 0 AND 50 AND status = 1 OR group = 666 LIMIT 20",
    # Time windows: seller 1 spreads over 8 shards from t = 14.99 on, so
    # its earlier records sit on one shard. An upper bound before the
    # spread prunes the fan-out to that shard; a lower bound cannot prune.
    "SELECT status, COUNT(*) FROM transaction_logs WHERE tenant_id = 1 "
    "AND created_time <= 12 GROUP BY status",
    "SELECT status, COUNT(*) FROM transaction_logs WHERE tenant_id = 1 "
    "AND created_time >= 80 GROUP BY status",
    # Predicate merge: many ORs on one column collapse into IN, which
    # reads each listed seller's shards.
    "SELECT transaction_id FROM transaction_logs "
    "WHERE tenant_id = 1 OR tenant_id = 2 OR tenant_id = 3 LIMIT 10",
    # Full-text + structured filter.
    "SELECT transaction_id, auction_title FROM transaction_logs "
    "WHERE tenant_id = 2 AND MATCH(auction_title, 'cotton shirt') LIMIT 5",
    # Sub-attribute filter (the 'attributes' column of §2.1).
    "SELECT transaction_id FROM transaction_logs "
    "WHERE tenant_id = 1 AND ATTR(attr_0001) = 'v3' LIMIT 5",
]


def explain(db: ESDB, sql: str) -> None:
    """Show Xdriver4ES's rewrite, the RBO's plan and the fan-out for one
    query, run it, and check its answer against its plan run on every
    shard."""
    print()
    print(db.explain(sql))
    result = db.execute_sql(sql)
    print(f"rows={len(result.rows)} hits={result.total_hits} "
          f"subqueries={result.subqueries}")
    for row in result.rows[:3]:
        print(f"  {row}")
    _, plan, _ = db.coordinator.prepare(NULL_TELEMETRY.tracer, sql)
    everywhere = sum(
        len(QueryExecutor(engine).execute(plan)[0]) for engine in db.engines.values()
    )
    assert result.total_hits == everywhere, f"{result.total_hits} hits, {everywhere} expected"


TEMPLATES = [
    "SELECT status, COUNT(*) FROM transaction_logs "
    "WHERE tenant_id = {seller} AND created_time <= {until} GROUP BY status",
    "SELECT transaction_id FROM transaction_logs "
    "WHERE tenant_id = {seller} AND ATTR(attr_0001) = 'v{seller}' LIMIT 5",
]


def repeat_templates(db: ESDB) -> None:
    """Sellers re-issue the same templates with their own values: only the
    first statement of each shape is parsed, rewritten and planned; the
    rest bind their literals into its compiled statement and plan."""
    def outcomes() -> dict:
        metrics = db.telemetry.metrics
        return {o: metrics.value("query_shapes_total", outcome=o) for o in ("bind", "compile")}

    before = outcomes()
    sellers = range(1, 9)
    for seller in sellers:
        for template in TEMPLATES:
            db.execute_sql(template.format(seller=seller, until=10.0 + seller))
    after = outcomes()
    binds, compiles = (after[o] - before[o] for o in ("bind", "compile"))
    print(f"{len(TEMPLATES)} templates x {len(sellers)} sellers: "
          f"{compiles:.0f} compiled, {binds:.0f} bound")
    assert binds > 0 and compiles <= len(TEMPLATES), (binds, compiles)


def compare_optimizer(db: ESDB) -> None:
    """Total intermediate posting-list work: RBO vs the rigid plan."""
    catalog = CatalogInfo(
        schema=db.config.schema,
        composite_indexes=db.config.composite_columns,
        scan_columns=db.config.scan_columns,
    )
    sql = (
        "SELECT * FROM transaction_logs WHERE tenant_id = 1 "
        "AND created_time BETWEEN 0 AND 80 AND status = 1 AND quantity >= 2"
    )
    translated = Xdriver4ES().translate(parse_sql(sql))
    shard_ids = list(db.policy.query_shards(1))
    totals = {}
    for label, enabled in (("with RBO", True), ("without RBO", False)):
        plan = RuleBasedOptimizer(catalog, enabled=enabled).plan(translated.statement)
        work = 0
        start = time.perf_counter()
        for shard_id in shard_ids:
            _, trace = QueryExecutor(db.engines[shard_id]).execute(plan)
            work += trace.total_postings
        elapsed = (time.perf_counter() - start) * 1000
        totals[label] = (work, elapsed)
        print(f"{label:>12}: {work:6d} intermediate postings, {elapsed:6.2f} ms")
    saved = 1 - totals["with RBO"][0] / max(totals["without RBO"][0], 1)
    print(f"RBO eliminated {saved:.0%} of intermediate posting-list work")


def main() -> None:
    db = build_database()
    for sql in QUERIES:
        explain(db, sql)
    print("\n-- statement shapes: repeated templates bind --")
    repeat_templates(db)
    print("\n-- optimizer comparison (Figure 7 vs Figure 8 plans) --")
    compare_optimizer(db)


if __name__ == "__main__":
    main()
