"""Cache effectiveness: warm-pass latency and result parity with the three
query-cache levels (:mod:`repro.cache`) on vs. off.

Not a paper figure — ESDB inherits Elasticsearch's node-query/shard-request
caching (§2) and the paper's repeated per-tenant query templates (the
Figure 17 workload) are exactly the shape caches accelerate. This benchmark
replays a fixed template mix twice against two otherwise identical
instances (``EsdbConfig(cache=True)`` vs ``cache=False``) and checks:

* the warm (second) pass on the cached instance is at least 2x faster at
  the median than the same pass uncached;
* results are byte-identical between the two instances on every query of
  every pass — including after a secondary-hashing rule append lands
  mid-run (which must atomically retire cached fan-outs), and after a
  write + refresh (read-your-writes through the caches).

``test_cache_smoke_tiny`` is the CI smoke variant: a few hundred documents,
parity + hit assertions only (no timing, which would flake on shared
runners).
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro import ESDB, EsdbConfig
from repro.cluster import ClusterTopology
from repro.experiments.base import ExperimentResult, fmt
from repro.workload import TransactionLogGenerator, WorkloadConfig

NUM_SHARDS = 16
NUM_TENANTS = 400
NUM_DOCS = 20_000
TOP_TENANTS = 12
TEMPLATES_PER_TENANT = 4

TOPOLOGY = ClusterTopology(num_nodes=4, num_shards=NUM_SHARDS)


def _build(cache: bool, num_docs: int, num_tenants: int) -> ESDB:
    db = ESDB(
        EsdbConfig(topology=TOPOLOGY, cache=cache, auto_refresh_every=4096)
    )
    generator = TransactionLogGenerator(
        WorkloadConfig(num_tenants=num_tenants, theta=1.0, seed=23)
    )
    for i in range(num_docs):
        db.write(generator.generate(created_time=i * 0.001))
    db.refresh()
    return db


def _templates(top_tenants: int) -> list[str]:
    """The repeated per-tenant query mix (dashboards, retries, polling):
    every template recurs verbatim on the warm pass."""
    out = []
    for tenant in range(1, top_tenants + 1):
        out.extend(
            [
                f"SELECT * FROM transaction_logs WHERE tenant_id = {tenant} "
                "AND created_time BETWEEN 0 AND 100000 AND status = 1 LIMIT 100",
                f"SELECT * FROM transaction_logs WHERE tenant_id = {tenant} "
                "AND quantity >= 3 LIMIT 100",
                "SELECT COUNT(*) FROM transaction_logs "
                f"WHERE tenant_id = {tenant}",
                f"SELECT * FROM transaction_logs WHERE tenant_id = {tenant} "
                "ORDER BY created_time DESC LIMIT 10",
            ][:TEMPLATES_PER_TENANT]
        )
    return out


def _canonical(result) -> str:
    """Order-insensitive canonical rendering of a query result."""
    rows = sorted(repr(sorted(r.items(), key=str)) for r in result.rows)
    return f"hits={result.total_hits} rows={rows}"


def _run_pass(db: ESDB, sqls: list[str]) -> tuple[list[float], list[str]]:
    latencies, outputs = [], []
    for sql in sqls:
        start = time.perf_counter()
        result = db.execute_sql(sql)
        latencies.append((time.perf_counter() - start) * 1000.0)
        outputs.append(_canonical(result))
    return latencies, outputs


def _p50(values: list[float]) -> float:
    return statistics.median(values)


@pytest.fixture(scope="module")
def instances():
    cached = _build(True, NUM_DOCS, NUM_TENANTS)
    uncached = _build(False, NUM_DOCS, NUM_TENANTS)
    return cached, uncached


def test_warm_pass_speedup_and_parity(instances, benchmark):
    cached, uncached = instances
    sqls = _templates(TOP_TENANTS)

    cold_on, out_cold_on = _run_pass(cached, sqls)
    cold_off, out_cold_off = _run_pass(uncached, sqls)
    assert out_cold_on == out_cold_off  # parity before any cache effect
    benchmark.pedantic(lambda: _run_pass(cached, sqls), rounds=1, iterations=1)
    warm_on, out_warm_on = _run_pass(cached, sqls)
    warm_off, out_warm_off = _run_pass(uncached, sqls)
    assert out_warm_on == out_warm_off == out_cold_on  # parity stays

    print(ExperimentResult(
        "cache",
        "cache effectiveness: pass p50 latency (ms)",
        ["pass", "caches off", "caches on", "speedup"],
        [
            ("cold", fmt(_p50(cold_off), 3), fmt(_p50(cold_on), 3),
             fmt(_p50(cold_off) / _p50(cold_on), 2) + "x"),
            ("warm", fmt(_p50(warm_off), 3), fmt(_p50(warm_on), 3),
             fmt(_p50(warm_off) / _p50(warm_on), 2) + "x"),
        ],
    ).render())
    hits = cached.result_cache.stats.hits
    print(f"result-cache hits on warm pass: {hits}/{len(sqls)} "
          f"({cached.result_cache.stats.hit_rate * 100:.0f}% lifetime hit rate)")

    # The acceptance bar: >= 2x p50 reduction on the warm pass.
    assert _p50(warm_off) / _p50(warm_on) >= 2.0
    assert hits >= len(sqls)  # every warm query was served from cache


def test_parity_across_rule_append_and_writes(instances):
    """Byte-identical results with caches on vs off while routing rules and
    data change mid-run — the invalidation paths, not the happy path."""
    cached, uncached = instances
    sqls = _templates(6)
    _run_pass(cached, sqls)  # warm every level
    _run_pass(uncached, sqls)

    # A committed secondary-hashing rule widens tenant 1's fan-out. Apply
    # to BOTH instances; cached fan-outs must retire atomically.
    for db in (cached, uncached):
        db.policy.rules.update(0.0, 4, 1)
    _, out_on = _run_pass(cached, sqls)
    _, out_off = _run_pass(uncached, sqls)
    assert out_on == out_off

    # Read-your-writes through the caches: new documents are visible on
    # the very next query after refresh.
    generator = TransactionLogGenerator(
        WorkloadConfig(num_tenants=NUM_TENANTS, theta=1.0, seed=99)
    )
    for _ in range(200):
        doc = generator.generate(created_time=1000.0)
        cached.write(dict(doc))
        uncached.write(dict(doc))
    cached.refresh()
    uncached.refresh()
    _, out_on = _run_pass(cached, sqls)
    _, out_off = _run_pass(uncached, sqls)
    assert out_on == out_off


def test_cache_smoke_tiny(benchmark):
    """CI smoke: tiny corpus, asserts cached-vs-uncached parity (including
    across mid-run rule appends) and that the warm passes actually hit: the
    second pass in the result cache, and the pass after the second rule
    append in the request entries the pass before it stored."""
    cached = _build(True, num_docs=400, num_tenants=50)
    uncached = _build(False, num_docs=400, num_tenants=50)
    sqls = _templates(4)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for pass_no in range(2):
        _, out_on = _run_pass(cached, sqls)
        _, out_off = _run_pass(uncached, sqls)
        assert out_on == out_off, f"pass {pass_no}"
    assert cached.result_cache.stats.hits >= len(sqls)
    for db in (cached, uncached):
        db.policy.rules.update(0.0, 2, 1)
    _, out_on = _run_pass(cached, sqls)
    _, out_off = _run_pass(uncached, sqls)
    assert out_on == out_off
    # The request cache stores a statement from its second fan-out on: the
    # pass above stored, and this one — a result-cache miss, because the
    # rule version moved again — hits what it stored.
    for db in (cached, uncached):
        db.policy.rules.update(0.0, 2, 2)
    _, out_on = _run_pass(cached, sqls)
    _, out_off = _run_pass(uncached, sqls)
    assert out_on == out_off
    assert cached.request_cache.stats.hits > 0
