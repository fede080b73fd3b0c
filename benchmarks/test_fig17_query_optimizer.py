"""Figure 17: average (a) and quantile (b) query latencies of the top 100
tenants with and without ESDB's query optimizer.

Paper setup: 1000 random multi-column queries per top-100 tenant (3–10
columns each), single-threaded client. Paper shape: the optimizer improves
average latency 2.41x overall and up to 5.08x for the largest tenant; the
99th-percentile stays under 200 ms.

This reproduction times the same query mix against the real engine with the
rule-based optimizer enabled vs disabled (disabled = Lucene's rigid
one-index-search-per-predicate plan, Figure 7).
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import pytest

from benchmarks.conftest import fmt, print_table
from repro import ESDB, EsdbConfig
from repro.cluster import ClusterTopology
from repro.workload import TransactionLogGenerator, WorkloadConfig

NUM_SHARDS = 16
NUM_TENANTS = 500
NUM_DOCS = 25_000
TOP_TENANTS = 20
QUERIES_PER_TENANT = 25

TOPOLOGY = ClusterTopology(num_nodes=4, num_shards=NUM_SHARDS)


def _build(optimizer_enabled: bool) -> ESDB:
    db = ESDB(
        EsdbConfig(
            topology=TOPOLOGY,
            optimizer_enabled=optimizer_enabled,
            auto_refresh_every=4096,
        )
    )
    generator = TransactionLogGenerator(
        WorkloadConfig(num_tenants=NUM_TENANTS, theta=1.0, seed=17)
    )
    for i in range(NUM_DOCS):
        db.write(generator.generate(created_time=i * 0.001))
    db.refresh()
    return db


def _random_query(rng: random.Random, tenant: int) -> str:
    """The paper's benchmark: tenant + time range plus 1–8 extra filters
    (3–10 involved columns in total)."""
    filters = [
        f"tenant_id = {tenant}",
        "created_time BETWEEN 0 AND 100000",
    ]
    extra_pool = [
        lambda: f"status = {rng.randint(0, 3)}",
        lambda: f"group = {rng.randint(1, 1000)}",
        lambda: f"quantity >= {rng.randint(1, 5)}",
        lambda: f"amount <= {rng.randint(100, 5000)}",
        lambda: f"buyer_id != {rng.randint(1, 10_000_000)}",
        lambda: f"quantity IN ({rng.randint(1, 3)}, {rng.randint(4, 7)})",
        lambda: f"status != {rng.randint(0, 3)}",
        lambda: f"amount >= {rng.randint(1, 50)}",
    ]
    count = rng.randint(1, len(extra_pool))
    for make in rng.sample(extra_pool, count):
        filters.append(make())
    return "SELECT * FROM transaction_logs WHERE " + " AND ".join(filters) + " LIMIT 100"


def _latencies(dbs: list, seed: int) -> list:
    """Per-tenant mean latency (ms) plus the pooled latency list, for each
    of *dbs*. A tenant's statements run on one instance right after the
    other, so a slow spell of the machine falls on both sides of a ratio."""
    rng = random.Random(seed)
    queries = {
        tenant: [_random_query(rng, tenant) for _ in range(QUERIES_PER_TENANT)]
        for tenant in range(1, TOP_TENANTS + 1)
    }
    results = [{"per_tenant": {}, "pooled": []} for _ in dbs]
    for tenant, sqls in queries.items():
        for db, result in zip(dbs, results):
            samples = []
            for sql in sqls:
                start = time.perf_counter()
                db.execute_sql(sql)
                samples.append((time.perf_counter() - start) * 1000.0)
            result["per_tenant"][tenant] = statistics.fmean(samples)
            result["pooled"].extend(samples)
    return results


@pytest.fixture(scope="module")
def measurements():
    dbs = [_build(True), _build(False)]
    # The loaded corpora are not garbage: keep the collector from walking
    # them (tens of ms a pass) in the middle of one timed statement.
    gc.collect()
    gc.freeze()
    with_opt, without_opt = _latencies(dbs, seed=29)
    gc.unfreeze()
    return with_opt, without_opt


def _quantile(values: list, q: float) -> float:
    ordered = sorted(values)
    index = min(int(q * len(ordered)), len(ordered) - 1)
    return ordered[index]


def test_fig17a_average_latency_with_vs_without_optimizer(benchmark, measurements):
    with_opt, without_opt = measurements
    benchmark.pedantic(lambda: measurements, rounds=1, iterations=1)

    rows = []
    speedups = []
    for tenant in sorted(with_opt["per_tenant"]):
        on = with_opt["per_tenant"][tenant]
        off = without_opt["per_tenant"][tenant]
        speedups.append(off / on)
        if tenant <= 10:
            rows.append((tenant, fmt(off, 2), fmt(on, 2), fmt(off / on, 2) + "x"))
    print_table(
        "Figure 17a: avg query latency (ms) per top tenant — optimizer off/on",
        ["tenant rank", "without optimizer", "with optimizer", "speedup"],
        rows,
    )
    overall = statistics.fmean(without_opt["pooled"]) / statistics.fmean(with_opt["pooled"])
    print(f"overall average speedup: {overall:.2f}x (paper: 2.41x; "
          f"largest tenant {max(speedups):.2f}x, paper: 5.08x)")

    # Optimizer wins for the hot tenants (where posting lists are big).
    assert overall > 1.2
    top5 = [without_opt["per_tenant"][t] / with_opt["per_tenant"][t] for t in range(1, 6)]
    assert max(top5) > 1.5
    # The optimizer never makes any tenant dramatically worse.
    assert min(speedups) > 0.5


def test_fig17b_latency_quantiles(measurements, benchmark):
    with_opt, without_opt = measurements
    benchmark(lambda: None)

    rows = []
    for q in (0.50, 0.90, 0.99):
        rows.append(
            (
                f"p{int(q * 100)}",
                fmt(_quantile(without_opt["pooled"], q), 2),
                fmt(_quantile(with_opt["pooled"], q), 2),
            )
        )
    print_table(
        "Figure 17b: query latency quantiles (ms) — optimizer off/on",
        ["quantile", "without optimizer", "with optimizer"],
        rows,
    )

    for q in (0.50, 0.90, 0.99):
        assert _quantile(with_opt["pooled"], q) <= _quantile(without_opt["pooled"], q) * 1.1, q
    # Paper: p99 under 200 ms with the optimizer (our corpus is much smaller,
    # so this bound is comfortable but still meaningful as a regression gate).
    assert _quantile(with_opt["pooled"], 0.99) < 200.0
