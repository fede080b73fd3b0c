"""Micro-benchmarks of the core data structures.

Not tied to a paper figure: these are the perf-regression gates an
open-source release of the system would ship — routing decisions, rule
matching, posting-list algebra, index search, SQL parsing + planning.
pytest-benchmark runs each kernel many times and reports ops/second.
"""

from __future__ import annotations

from repro.query import RuleBasedOptimizer, Xdriver4ES, parse_sql
from repro.query.optimizer import CatalogInfo
from repro.routing import DynamicSecondaryHashRouting, HashRouting, RuleList
from repro.storage import (
    EngineConfig,
    PostingList,
    Schema,
    ShardEngine,
    SortedIndex,
)
from repro.workload import TransactionLogGenerator, WorkloadConfig

N = 512


def test_micro_route_write_hashing(benchmark):
    policy = HashRouting(N)

    def kernel():
        total = 0
        for i in range(1000):
            total += policy.route_write(i % 100, i)
        return total

    assert benchmark(kernel) >= 0


def test_micro_route_write_dynamic_with_rules(benchmark):
    policy = DynamicSecondaryHashRouting(N)
    for tenant in range(50):
        policy.rules.update(float(tenant), 2 ** (tenant % 6 + 1) or 2, tenant)

    def kernel():
        total = 0
        for i in range(1000):
            total += policy.route_write(i % 100, i, created_time=100.0)
        return total

    assert benchmark(kernel) >= 0


def test_micro_rule_match(benchmark):
    rules = RuleList()
    for tenant in range(2000):
        rules.update(float(tenant % 32), [2, 4, 8, 16][tenant % 4], tenant)

    def kernel():
        total = 0
        for tenant in range(0, 2000, 3):
            total += rules.match(tenant, 50.0)
        return total

    assert benchmark(kernel) > 0


def test_micro_posting_intersect(benchmark):
    a = PostingList(range(0, 100_000, 3))
    b = PostingList(range(0, 100_000, 7))

    result = benchmark(lambda: a.intersect(b))
    assert len(result) == len(range(0, 100_000, 21))


def test_micro_posting_union(benchmark):
    a = PostingList(range(0, 50_000, 2))
    b = PostingList(range(1, 50_000, 2))

    result = benchmark(lambda: a.union(b))
    assert len(result) == 50_000


def test_micro_sorted_index_range(benchmark):
    index = SortedIndex()
    for row in range(100_000):
        index.add(float(row % 10_000), row)
    index.seal()

    result = benchmark(lambda: index.range(2_000, 2_100))
    assert len(result) > 0


def test_micro_sql_parse(benchmark):
    sql = (
        "SELECT transaction_id, status FROM transaction_logs "
        "WHERE tenant_id = 10086 AND created_time BETWEEN "
        "'2021-09-16 00:00:00' AND '2021-09-17 00:00:00' "
        "AND status = 1 OR group = 666 ORDER BY created_time DESC LIMIT 100"
    )
    statement = benchmark(lambda: parse_sql(sql))
    assert statement.limit == 100


def test_micro_translate_and_plan(benchmark):
    statement = parse_sql(
        "SELECT * FROM t WHERE tenant_id = 1 AND created_time BETWEEN 0 AND 9 "
        "AND status = 1 AND quantity >= 2 OR group = 7"
    )
    catalog = CatalogInfo(
        schema=Schema.transaction_logs(),
        composite_indexes=(("tenant_id", "created_time"),),
        scan_columns=frozenset({"status", "quantity"}),
    )
    xdriver = Xdriver4ES()
    optimizer = RuleBasedOptimizer(catalog)

    def kernel():
        translated = xdriver.translate(statement)
        return optimizer.plan(translated.statement)

    plan = benchmark(kernel)
    assert plan.root is not None


def test_micro_engine_indexing_throughput(benchmark):
    config = EngineConfig(
        schema=Schema.transaction_logs(),
        composite_columns=(("tenant_id", "created_time"),),
        auto_refresh_every=None,
    )
    generator = TransactionLogGenerator(WorkloadConfig(num_tenants=100, seed=0))
    docs = [generator.generate(float(i)) for i in range(200)]

    def kernel():
        engine = ShardEngine(config)
        for doc in docs:
            engine.index(doc)
        engine.refresh()
        return engine.doc_count()

    assert benchmark(kernel) == 200
