"""Runs one workload in this process: set-up, the timed open-loop and
closed-loop phases with tracing off, the checks, and — with ``trace`` — a
further traced closed-loop slice that gives the per-layer numbers.

Without ``trace`` the whole workload is repeated on fresh, identical inputs
and each end-to-end metric is the best of the repetitions (set-up time: the
median), which filters the machine's noise and nothing else (same inputs,
same work).
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro import ESDB, EsdbConfig
from repro.cluster import ClusterTopology
from repro.obsv import ObsvConfig
from repro.telemetry import TraceConfig

from bench import layers
from bench.loadgen import (
    ClosedLoopResult,
    GcWatch,
    MachineClock,
    Op,
    OpenLoopResult,
    capped_mean,
    percentile,
    run_closed_loop,
    run_open_loop,
    supported_percentiles,
)
from bench.metrics import BETTER, END_TO_END, PER_LAYER
from bench.oracle import Oracle
from bench.tracer import Tracer, aggregate, self_sum_error
from bench.workloads import (
    NUM_NODES,
    NUM_SHARDS,
    REFERENCE_SECONDS,
    WORKLOADS,
    DocStream,
    Inputs,
    point_query,
)

REPETITIONS = 3
CHECK_EVERY = 25  # every 25th timed query is re-checked against the oracle
READ_YOUR_WRITES_SAMPLES = 200
SMOKE_SCALE = 1 / 20


def new_db(**overrides) -> ESDB:
    """The instance a user gets: default ``EsdbConfig`` on 8 nodes, 64 shards."""
    topology = ClusterTopology(num_nodes=NUM_NODES, num_shards=NUM_SHARDS)
    return ESDB(EsdbConfig(topology=topology, **overrides))


class Driver:
    """Executes operations against one instance and keeps what the checks
    need: acknowledged documents (in the oracle), their shards, sampled query
    results, and the failure count."""

    def __init__(self, db: ESDB) -> None:
        self.db = db
        self.oracle = Oracle()
        self.visible = 0  # acknowledged documents a query may see
        self.shards: list[int] = []  # shard of each acknowledged document
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.queries = 0
        self.fanout = 0
        self.check_every = CHECK_EVERY
        self.samples: list[tuple] = []  # (spec, result, visible)
        self._handlers = {
            "write": self._write, "bulk": self._bulk, "query": self._query,
            "refresh": self._refresh, "rebalance": self._rebalance,
        }

    def __call__(self, op: Op) -> None:
        self._handlers[op.kind](op)

    def _fail(self, count: int, what: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(what)

    def _write(self, op: Op) -> None:
        self.attempted += 1
        try:
            shard = self.db.write(op.payload)
        except Exception:  # the benchmark must survive a failing op and count it
            self._fail(1, traceback.format_exc())
            return
        self.oracle.add(op.payload)
        self.shards.append(shard)

    def _bulk(self, op: Op) -> None:
        docs = op.payload
        self.attempted += len(docs)
        try:
            items = self.db.bulk_write(docs).items
        except Exception:
            self._fail(len(docs), traceback.format_exc())
            return
        for doc, item in zip(docs, items):
            if item.ok:
                self.oracle.add(doc)
                self.shards.append(item.shard_id)
            else:
                self._fail(1, f"bulk item {item.position}: {item.error!r}")

    def _query(self, op: Op) -> None:
        self.attempted += 1
        try:
            result = self.db.execute_sql(op.payload)
        except Exception:
            self._fail(1, traceback.format_exc())
            return
        self.queries += 1
        self.fanout += result.subqueries
        if self.queries % self.check_every == 0:
            self.samples.append((op.spec, result, self.visible))

    def _refresh(self, op: Op) -> None:
        self.db.refresh()
        self.visible = len(self.oracle.docs)

    def _rebalance(self, op: Op) -> None:
        self.db.rebalance()

    # -- checks, all outside the timed phases -------------------------------
    def verify_samples(self) -> None:
        """Re-check the sampled query results against the oracle."""
        for spec, result, visible in self.samples:
            self.attempted += 1
            problem = self.oracle.check(spec, result, visible)
            if problem is not None:
                self._fail(1, f"{spec.sql()}: {problem}")
        self.samples.clear()

    def verify_writes(self, first: int) -> None:
        """After a final refresh: the instance holds exactly the acknowledged
        documents, and documents sampled at even spacing from those written
        since position *first* come back from a tenant-scoped query
        (read-your-writes across the rule commits the run caused)."""
        self._refresh(Op("refresh"))
        docs = self.oracle.docs
        self.attempted += 1
        if self.db.doc_count() != len(docs):
            self._fail(1, f"doc_count {self.db.doc_count()}, acknowledged {len(docs)}")
        step = max(1, (len(docs) - first) // READ_YOUR_WRITES_SAMPLES)
        self.check_every = 1
        for position in range(first, len(docs), step)[:READ_YOUR_WRITES_SAMPLES]:
            spec = point_query(docs[position])
            self._query(Op("query", spec.sql(), spec))
        self.verify_samples()

    def durability_probe(self) -> float:
        """Crash the hottest shard and three others (losing what they had not
        refreshed), recover from the translog, and require every document
        acknowledged on them to be readable again. Returns ms per 1,000
        documents recovered."""
        by_shard: dict[int, list[dict]] = {}
        for doc, shard in zip(self.oracle.docs, self.shards):
            by_shard.setdefault(shard, []).append(doc)
        ranked = sorted(by_shard, key=lambda shard: (-len(by_shard[shard]), shard))
        picks = {ranked[0], ranked[1], ranked[len(ranked) // 2], ranked[-1]}
        seconds = 0.0
        replayed = 0
        for shard in sorted(picks):
            engine = self.db.engines[shard]
            engine.simulate_crash()
            started = time.perf_counter()
            replayed += engine.recover_from_translog()
            engine.refresh()
            seconds += time.perf_counter() - started
            self.attempted += 1
            lost = [
                doc["transaction_id"] for doc in by_shard[shard]
                if not engine.contains(doc["transaction_id"])
                or engine.get(doc["transaction_id"]).source != doc
            ]
            if lost or engine.doc_count() != len(by_shard[shard]):
                self._fail(1, f"shard {shard}: {len(lost)} acknowledged documents lost")
        return 1e3 * seconds / (replayed / 1000)

    def node_load_max_over_mean(self) -> float:
        """Acknowledged writes on the busiest node over the mean per node."""
        node_of = {s: self.db.cluster.shard(s).node_id for s in range(NUM_SHARDS)}
        per_node: dict[int, int] = {}
        for shard in self.shards:
            node = node_of[shard]
            per_node[node] = per_node.get(node, 0) + 1
        return max(per_node.values()) / (len(self.shards) / NUM_NODES)


@dataclass
class Repetition:
    """One pass over a workload: set-up, open loop, closed loop, checks."""

    driver: Driver
    inputs: Inputs
    setup: tuple[float, float]  # wall-clock instants set-up began and ended
    open: OpenLoopResult
    closed: ClosedLoopResult
    gc: GcWatch
    setup_docs: int
    caches_after_setup: dict = field(default_factory=dict)
    timed_queries: int = 0
    timed_fanout: int = 0
    recovery_ms_per_kdoc: float = 0.0
    final_refresh_ms: float = 0.0

    def query_fanout_mean(self) -> float:
        """Mean shard subqueries per timed query. ``ingest_skew`` times no
        query, so there it is over the read-your-writes queries of the
        checks, the only reads its data gets."""
        if self.timed_queries:
            return self.timed_fanout / self.timed_queries
        return self.driver.fanout / self.driver.queries


def _timed_phases(name: str, seed: int, sizes, machine: MachineClock) -> Repetition:
    started = machine.probe()
    inputs = WORKLOADS[name].build(seed, sizes)
    machine.probe()
    driver = Driver(new_db())
    for op in inputs.setup:
        driver(op)
        machine.tick(time.perf_counter())
    gc.collect()
    setup = (started, machine.probe())
    setup_docs = len(driver.oracle.docs)
    caches = layers.cache_counters(driver.db)
    driver.queries = driver.fanout = 0  # fan-out is over timed queries only
    watch = GcWatch()
    with watch:
        open_result = run_open_loop(inputs.open_loop, driver, machine=machine)
    gc.collect()
    with watch:
        closed_result = run_closed_loop(inputs.closed_loop, driver, machine=machine)
    return Repetition(driver, inputs, setup, open_result, closed_result,
                      watch, setup_docs, caches, driver.queries, driver.fanout)


def _checks(name: str, rep: Repetition) -> None:
    driver = rep.driver
    driver.verify_samples()
    if name == "ingest_skew":
        rep.recovery_ms_per_kdoc = driver.durability_probe()
    started = time.perf_counter()
    driver.db.refresh()
    rep.final_refresh_ms = 1e3 * (time.perf_counter() - started)
    if name in ("ingest_skew", "mixed_realtime"):
        driver.queries = driver.fanout = 0
        driver.verify_writes(rep.setup_docs)


def _ms(values: list[float], q: float) -> float:
    return 1e3 * percentile(sorted(values), q)


def run_end_to_end(
    name: str, seed: int, sizes, repetitions: int, import_seconds: float
) -> dict:
    """The timed phases, *repetitions* times over identical fresh inputs.
    *import_seconds*, what importing the program cost, is part of set-up."""
    reps: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    pooled: list[float] = []
    machine = MachineClock()
    for _ in range(repetitions):
        rep = _timed_phases(name, seed, sizes, machine)
        timeline = machine.timeline()
        _checks(name, rep)
        pooled += rep.open.all_latencies()
        latencies = rep.open.reference_latencies(timeline)
        ordered = sorted(v for values in latencies.values() for v in values)
        reps.append({
            "setup_s": import_seconds + timeline.between(*rep.setup),
            "ops_per_s": rep.closed.units
            / timeline.between(rep.closed.started, rep.closed.ended),
            "latency_p50_ms": 1e3 * percentile(ordered, 50),
            "latency_capped_mean_ms": 1e3 * capped_mean(latencies),
            "node_load_max_over_mean": rep.driver.node_load_max_over_mean(),
            "query_fanout_mean": rep.query_fanout_mean(),
        })
        attempted += rep.driver.attempted
        failed += rep.driver.failed
        problems += rep.driver.problems
        del rep
        gc.collect()
    # Identical inputs, identical work: the least disturbed repetition is the
    # measurement (what the reference clock did not already take out).
    values = {
        key: (max if BETTER[key] == "higher" else min)(r[key] for r in reps)
        for key in reps[0]
    }
    values["setup_s"] = statistics.median(r["setup_s"] for r in reps)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pooled.sort()
    notes = [
        f"open_loop.wall_p{q:g}_ms {1e3 * percentile(pooled, q):.6g} ms "
        f"(samples={len(pooled)} repetitions={repetitions})"
        for q in supported_percentiles(len(pooled))
    ]
    notes.append(
        f"machine.slowdown {statistics.median(timeline.slowdowns):.6g} ratio "
        f"(probes={len(machine.marks)})"
    )
    return {"values": {name: values[name] for name, *_ in END_TO_END}, "notes": notes,
            "attempted": attempted, "failed": failed, "problems": problems}


def _telemetry_overhead(seed: int) -> float:
    """Share of write throughput the default telemetry, observer, time series
    and tracing cost: two fresh instances, five interleaved 1,000-document
    slices each, 1 - median docs/s with them over median docs/s without."""
    stream = DocStream(seed + 7)
    docs = [stream.at(i / 2000.0) for i in range(5000)]
    default = new_db()
    bare = new_db(telemetry_enabled=False, obsv=ObsvConfig.off(),
                  timeseries_enabled=False, tracing=TraceConfig.off())
    rates: dict[int, list[float]] = {id(default): [], id(bare): []}
    for first in range(0, len(docs), 1000):
        for db in (default, bare):
            started = time.perf_counter()
            for doc in docs[first:first + 1000]:
                db.write(doc)
            rates[id(db)].append(1000 / (time.perf_counter() - started))
    return 1 - statistics.median(rates[id(default)]) / statistics.median(rates[id(bare)])


def run_traced(name: str, seed: int, sizes, spans_path: Path | None) -> dict:
    """The timed phases once, then the traced slice and the per-layer metrics."""
    machine = MachineClock()
    rep = _timed_phases(name, seed, sizes, machine)
    driver = rep.driver
    driver.verify_samples()
    driver.check_every = 1  # every traced query is re-checked
    tracer = Tracer()
    with tracer:
        traced = run_closed_loop(rep.inputs.traced, driver)
    values = dict.fromkeys((name for name, *_ in PER_LAYER), 0.0)
    values.update(layers.span_metrics(
        layers.SpanTable(aggregate(tracer.spans, tracer.names)),
        layers.TracedOps.of(rep.inputs.traced),
    ))
    # Read before the checks: the durability probe re-indexes whole shards.
    values.update(layers.state_metrics(driver.db, rep.caches_after_setup))
    _checks(name, rep)
    values["storage.final_refresh_ms"] = rep.final_refresh_ms
    values["storage.recovery.ms_per_kdoc"] = rep.recovery_ms_per_kdoc
    if name == "ingest_skew":
        values["telemetry.overhead_ratio"] = _telemetry_overhead(seed)

    by_class: dict[str, list[float]] = {}
    for op, seconds in zip(rep.inputs.closed_loop, rep.closed.durations):
        if op.kind == "query":
            by_class.setdefault(op.spec.kind, []).append(seconds)
    for kind, seconds in by_class.items():
        values[f"query.class.{kind}.p50_ms"] = _ms(seconds, 50)

    values["runtime.gc.pause_ms_total"] = 1e3 * rep.gc.pause_total
    values["runtime.gc.pause_max_ms"] = 1e3 * rep.gc.pause_max
    values["runtime.gc.gen2_count"] = rep.gc.gen2_count

    latencies = rep.open.latencies
    samples = sum(len(v) for v in latencies.values())
    values["loadgen.samples"] = samples
    values["loadgen.busy_ratio"] = rep.open.busy / rep.open.elapsed
    values["loadgen.lateness_p99_ms"] = _ms(rep.open.lateness, 99) if rep.open.lateness else 0.0
    values["loadgen.backlog_max"] = rep.open.backlog_max
    values["loadgen.over_limit_ratio"] = rep.open.over_limit() / samples
    values["loadgen.latency_p99_ms"] = 1e3 * percentile(rep.open.all_latencies(), 99)
    writes = latencies["write"] + latencies["bulk"]
    for label, seconds in (("write", writes), ("query", latencies["query"])):
        if seconds:
            values[f"loadgen.{label}_p50_ms"] = _ms(seconds, 50)
            values[f"loadgen.{label}_p99_ms"] = _ms(seconds, 99)
    values["loadgen.machine_slowdown"] = statistics.median(machine.timeline().slowdowns)
    values["loadgen.stream_crc32"] = rep.inputs.crc32()
    values["trace.overhead_ratio"] = 1 - traced.units_per_s / rep.closed.units_per_s
    values["trace.self_sum_error"] = self_sum_error(tracer.spans)
    values["trace.spans"] = len(tracer.spans)
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(spans_path)
    return {"values": values, "notes": [], "attempted": driver.attempted,
            "failed": driver.failed, "problems": driver.problems}


def run_workload(
    name: str,
    seed: int = 1,
    seconds: float = REFERENCE_SECONDS,
    trace: bool = False,
    smoke: bool = False,
    spans_path: Path | None = None,
    import_seconds: float = 0.0,
) -> dict:
    """Run workload *name* and return ``{"values", "notes", "attempted",
    "failed", "problems"}``; ``values`` holds every end-to-end metric, or with
    *trace* every per-layer metric; ``notes`` are further lines to print."""
    sizes = WORKLOADS[name].sizes.scaled(
        seconds / REFERENCE_SECONDS, SMOKE_SCALE if smoke else 1.0, traced=trace
    )
    if trace:
        return run_traced(name, seed, sizes, spans_path)
    return run_end_to_end(name, seed, sizes, 1 if smoke else REPETITIONS, import_seconds)
