"""Query-side experiments (Figures 16–18) on the real engine.

At ``Scale.SMALL`` each figure builds the corpora and runs the statements
its ``benchmarks/test_figNN_*`` file asserts on. Engine-backed figures clamp
the corpus to what one Python process holds; the measured quantity is real
end-to-end SQL latency on the real storage engine.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

from repro.cluster import ClusterTopology
from repro.esdb import ESDB, EsdbConfig
from repro.experiments.base import ExperimentResult, Scale, experiment, fmt
from repro.routing import DoubleHashRouting, DynamicSecondaryHashRouting, HashRouting
from repro.sim import commit_paper_scale_rules, model_query_throughput
from repro.workload import TransactionLogGenerator, WorkloadConfig
from repro.workload.zipf import ZipfSampler

QUANTILES = (0.50, 0.90, 0.99)


def _build_instance(
    docs: int, *, tenants: int, seed: int, shards: int, nodes: int, policy=None,
    second_wave: bool = False, **config_overrides,
) -> tuple[ESDB, int]:
    """Load *docs* generated transaction logs into a fresh instance; returns
    it with the rules committed. With *second_wave*, let the balancer split
    the hot tenants, then write a quarter more documents so large tenants
    occupy their widened ranges."""
    db = ESDB(
        EsdbConfig(
            topology=ClusterTopology(num_nodes=nodes, num_shards=shards),
            auto_refresh_every=4096,
            **config_overrides,
        ),
        policy=policy,
    )
    generator = TransactionLogGenerator(
        WorkloadConfig(num_tenants=tenants, theta=1.0, seed=seed)
    )
    for i in range(docs):
        db.write(generator.generate(created_time=i * 0.001))
    committed = db.rebalance() if second_wave else []
    if committed:
        start = db.now + max(t for _, _, t in committed)
        for i in range(docs // 4):
            db.write(generator.generate(created_time=start + 1.0 + i * 0.001))
    db.refresh()
    return db, len(committed)


def _run(db: ESDB, queries: dict) -> dict:
    """Time every statement once: per-tenant mean latency (ms) and the
    pooled latency list."""
    per_tenant = {}
    pooled = []
    for tenant, sqls in queries.items():
        samples = []
        for sql in sqls:
            start = time.perf_counter()
            db.execute_sql(sql)
            samples.append((time.perf_counter() - start) * 1000.0)
        per_tenant[tenant] = statistics.fmean(samples)
        pooled.extend(samples)
    return {"per_tenant": per_tenant, "pooled": pooled}


def _quantiles(runs: dict) -> dict:
    """label → {q: latency (ms)} over each run's pooled latency list."""
    table = {}
    for label, run in runs.items():
        ordered = sorted(run["pooled"])
        table[label] = {
            q: ordered[min(int(q * len(ordered)), len(ordered) - 1)] for q in QUANTILES
        }
    return table


def _quantile_note(quantiles: dict) -> str:
    return "latency p50/p90/p99 (ms): " + "; ".join(
        f"{label} " + " / ".join(fmt(value, 2) for value in by_q.values())
        for label, by_q in quantiles.items()
    )


def _model_small_tenant_gain() -> float:
    """Dynamic secondary hashing's QPS over double hashing's for a small
    (rank 2000) tenant at the paper's full scale — 512 shards, 100K tenants,
    40M docs — from the analytic work model in repro.sim.querymodel."""
    dynamic = DynamicSecondaryHashRouting(512)
    commit_paper_scale_rules(dynamic)
    qps = [
        float(model_query_throughput(policy, ranks=[2000]).qps[0])
        for policy in (dynamic, DoubleHashRouting(512, offset=8))
    ]
    return qps[0] / qps[1] - 1.0


@experiment("fig16")
def fig16_query_throughput(scale: Scale) -> ExperimentResult:
    """Single-client query throughput and subquery fan-out of ranked tenants
    under the three routing policies (the paper's tenant + time template
    query with LIMIT 100)."""
    docs = scale.pick(4_000, 40_000, 80_000)
    ranks = (1, 5, 20, 100, 500, 2000)
    per_rank = 8
    policies = {
        "hashing": HashRouting(64),
        "double-hashing": DoubleHashRouting(64, offset=8),
        "dynamic-secondary-hashing": DynamicSecondaryHashRouting(64),
    }
    built = {
        name: _build_instance(
            docs, tenants=5_000, seed=11, shards=64, nodes=8, policy=policy,
            second_wave=True,
        )
        for name, policy in policies.items()
    }
    instances = {name: db for name, (db, _) in built.items()}
    committed = built["dynamic-secondary-hashing"][1]
    qps = {name: {} for name in instances}
    for name, db in instances.items():
        for rank in ranks:
            sql = (
                f"SELECT * FROM transaction_logs WHERE tenant_id = {rank} "
                "AND created_time BETWEEN 0 AND 100000 LIMIT 100"
            )
            start = time.perf_counter()
            for _ in range(per_rank):
                db.execute_sql(sql)
            qps[name][rank] = per_rank / (time.perf_counter() - start)
    fanout = {
        name: {rank: db.tenant_fanout(rank) for rank in ranks}
        for name, db in instances.items()
    }
    return ExperimentResult(
        figure="fig16",
        title=f"query throughput (QPS, single client) and subquery fan-out by "
        f"ranked tenant, 64 shards / 5K tenants / {docs:,} docs",
        headers=["rank"]
        + [f"qps {n}" for n in instances]
        + [f"fanout {n}" for n in instances],
        rows=[
            (
                rank,
                *(fmt(qps[n][rank], 0) for n in instances),
                *(fanout[n][rank] for n in instances),
            )
            for rank in ranks
        ],
        notes=[
            f"{committed} rules committed for the head tenants",
            f"small-tenant gain over double hashing at the paper's scale "
            f"(analytic model): {_model_small_tenant_gain():+.0%} (paper: +63%)",
        ],
        values={"qps": qps, "fanout": fanout, "rules_committed": committed},
    )


def _random_query(rng: random.Random, tenant: int) -> str:
    """The paper's benchmark: tenant + time range plus 1–8 extra filters
    (3–10 involved columns in total)."""
    filters = [
        f"tenant_id = {tenant}",
        "created_time BETWEEN 0 AND 100000",
    ]
    pool = [
        lambda: f"status = {rng.randint(0, 3)}",
        lambda: f"group = {rng.randint(1, 1000)}",
        lambda: f"quantity >= {rng.randint(1, 5)}",
        lambda: f"amount <= {rng.randint(100, 5000)}",
        lambda: f"buyer_id != {rng.randint(1, 10_000_000)}",
        lambda: f"quantity IN ({rng.randint(1, 3)}, {rng.randint(4, 7)})",
        lambda: f"status != {rng.randint(0, 3)}",
        lambda: f"amount >= {rng.randint(1, 50)}",
    ]
    for make in rng.sample(pool, rng.randint(1, len(pool))):
        filters.append(make())
    return "SELECT * FROM transaction_logs WHERE " + " AND ".join(filters) + " LIMIT 100"


@experiment("fig17")
def fig17_query_optimizer(scale: Scale) -> ExperimentResult:
    """Avg and quantile query latency per top tenant, rule-based optimizer
    on vs off (off = one index search per predicate, Figure 7)."""
    top = scale.pick(5, 20, 20)
    per_tenant = scale.pick(8, 25, 30)
    docs = scale.pick(4_000, 25_000, 60_000)
    dbs = [
        _build_instance(
            docs, tenants=500, seed=17, shards=16, nodes=4, optimizer_enabled=enabled
        )[0]
        for enabled in (True, False)
    ]
    rng = random.Random(29)
    queries = {
        tenant: [_random_query(rng, tenant) for _ in range(per_tenant)]
        for tenant in range(1, top + 1)
    }
    # The loaded corpora are not garbage: keep the collector from walking
    # them (tens of ms a pass) in the middle of one timed statement. A
    # tenant's statements run on one instance right after the other, so a
    # slow spell of the machine falls on both sides of a ratio.
    gc.collect()
    gc.freeze()
    try:
        runs = [{"per_tenant": {}, "pooled": []} for _ in dbs]
        for tenant, sqls in queries.items():
            for db, run in zip(dbs, runs):
                timed = _run(db, {tenant: sqls})
                run["per_tenant"].update(timed["per_tenant"])
                run["pooled"].extend(timed["pooled"])
    finally:
        gc.unfreeze()
    with_opt, without_opt = runs
    speedups = {
        tenant: without_opt["per_tenant"][tenant] / with_opt["per_tenant"][tenant]
        for tenant in queries
    }
    overall = statistics.fmean(without_opt["pooled"]) / statistics.fmean(with_opt["pooled"])
    quantiles = _quantiles({"without": without_opt, "with": with_opt})
    return ExperimentResult(
        figure="fig17",
        title="avg query latency (ms) per top tenant — optimizer off/on",
        headers=["tenant rank", "without optimizer", "with optimizer", "speedup"],
        rows=[
            (
                tenant,
                fmt(without_opt["per_tenant"][tenant], 2),
                fmt(with_opt["per_tenant"][tenant], 2),
                f"{speedup:.2f}x",
            )
            for tenant, speedup in speedups.items()
        ],
        notes=[
            f"overall speedup {overall:.2f}x, mean per tenant "
            f"{statistics.fmean(speedups.values()):.2f}x, best "
            f"{max(speedups.values()):.2f}x (paper: 2.41x avg, 5.08x best)",
            _quantile_note(quantiles),
        ],
        values={
            "with": with_opt,
            "without": without_opt,
            "speedups": speedups,
            "quantiles": quantiles,
        },
    )


@experiment("fig18")
def fig18_frequency_indexing(scale: Scale) -> ExperimentResult:
    """Avg query latency with/without frequency-based sub-attribute indices
    (the top 30 of 1500 Zipf-ranked names), and their storage cost."""
    top = scale.pick(4, 15, 15)
    per_tenant = scale.pick(6, 12, 20)
    docs = scale.pick(4_000, 20_000, 60_000)
    rng = random.Random(31)
    sampler = ZipfSampler(1500, 1.0, seed=31)
    queries = {}
    for tenant in range(1, top + 1):
        sqls = []
        for _ in range(per_tenant):
            name = TransactionLogGenerator.subattribute_name(sampler.sample_rank())
            sqls.append(
                f"SELECT * FROM transaction_logs WHERE tenant_id = {tenant} "
                f"AND created_time BETWEEN 0 AND 100000 "
                f"AND ATTR({name}) = 'v{rng.randint(0, 9)}' LIMIT 100"
            )
        queries[tenant] = sqls
    top30 = frozenset(
        TransactionLogGenerator.subattribute_name(rank) for rank in range(1, 31)
    )
    # Top-30 indexed, none indexed, and (None) every one of the 1500 names.
    instances = {
        label: _build_instance(
            docs, tenants=500, seed=23, shards=16, nodes=4, indexed_subattributes=indexed
        )[0]
        for label, indexed in (("with", top30), ("without", frozenset()), ("full", None))
    }
    with_index = _run(instances["with"], queries)
    without_index = _run(instances["without"], queries)
    memory = {
        label: sum(engine.index_memory() for engine in db.engines.values())
        for label, db in instances.items()
    }
    added = memory["with"] - memory["without"]
    # vs_baseline: index memory the top-30 indices add over no sub-attribute
    # indexing (the paper's 6.7% is of the *total* production footprint; our
    # synthetic docs hold far less besides attributes, so this runs higher).
    # vs_full: that cost as a fraction of indexing all 1500 names.
    storage = {
        "vs_baseline": added / max(memory["without"], 1),
        "vs_full": added / max(memory["full"] - memory["without"], 1),
    }
    reductions = {
        tenant: 1 - with_index["per_tenant"][tenant] / without_index["per_tenant"][tenant]
        for tenant in queries
    }
    overall = 1 - statistics.fmean(with_index["pooled"]) / statistics.fmean(
        without_index["pooled"]
    )
    quantiles = _quantiles({"without": without_index, "with": with_index})
    return ExperimentResult(
        figure="fig18",
        title="avg query latency (ms) per top tenant — frequency indices off/on",
        headers=["tenant rank", "no subattr index", "top-30 indexed", "reduction"],
        rows=[
            (
                tenant,
                fmt(without_index["per_tenant"][tenant], 2),
                fmt(with_index["per_tenant"][tenant], 2),
                f"{reduction * 100:.0f}%",
            )
            for tenant, reduction in reductions.items()
        ],
        notes=[
            f"overall latency reduction {overall:.1%}, mean per tenant "
            f"{statistics.fmean(reductions.values()):.0%} (paper: up to 94.1% "
            "with 6.7% storage overhead)",
            f"index memory over no sub-attribute indexing: "
            f"{storage['vs_baseline']:.1%}; top-30 = {storage['vs_full']:.1%} of "
            "the full-1500 index cost",
            _quantile_note(quantiles),
        ],
        values={
            "with": with_index,
            "without": without_index,
            "quantiles": quantiles,
            "storage": storage,
        },
    )
