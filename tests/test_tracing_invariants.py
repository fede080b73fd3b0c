"""Invariants of the tracer's representation.

Ids are derived when read and a span tree is held only from its root, so
these tests pin what that must never change: every id a seeded scenario
records, the absence of reference cycles among retained spans, and the id
of a child span read through a handle kept past its root's close.
"""

from __future__ import annotations

import gc
import hashlib

from repro.cluster import ClusterTopology
from repro.esdb import ESDB, EsdbConfig
from repro.obsv import ObsvConfig
from repro.telemetry import Span, TraceIdGenerator, Tracer, derive_span_id
from repro.workload.generator import TransactionLogGenerator, WorkloadConfig

#: sha256 over every (name, trace_id, span_id) of the scenario below, its
#: explain_analyze tree and its slow-log trace ids, in order. Recorded on
#: the tracer that hashed every id eagerly when a root closed.
PINNED_IDS_SHA256 = "5dc7942c45899c2aa1edd40ffdb03db23f23f7f9aec36a0a18af1f4347448a1b"


def _docs(count: int, seed: int, start: float = 0.0) -> list[dict]:
    generator = TransactionLogGenerator(WorkloadConfig(num_tenants=20, seed=seed))
    return [generator.generate(created_time=start + i * 0.05) for i in range(count)]


def _span_rows(root: Span) -> list[tuple]:
    return [(span.name, span.trace_id, span.span_id) for span in root.walk()]


def test_seeded_scenario_ids_are_pinned():
    db = ESDB(
        EsdbConfig(
            topology=ClusterTopology(num_nodes=2, num_shards=4, replicas_per_shard=0),
            consensus_interval=1.0,
            # Zero info thresholds: every operation enters its slow log, so
            # the logged trace ids do not depend on the clock.
            obsv=ObsvConfig(index_info_seconds=0.0, search_info_seconds=0.0),
        )
    )
    for doc in _docs(20, seed=3):
        db.write(doc)
    db.bulk_write(_docs(5, seed=4, start=1.0))
    db.refresh()
    sql = "SELECT COUNT(*) FROM transaction_logs WHERE quantity >= 2"
    db.execute_sql(sql)
    db.execute_sql(sql)
    db.rebalance()
    explained = db.explain_analyze("SELECT * FROM transaction_logs WHERE quantity >= 5")

    traces = db.telemetry.tracer.recent_traces()
    assert traces[-2].find("cache.hit") is not None  # the repeat was a hit
    rows = [row for root in traces for row in _span_rows(root)]
    rows += _span_rows(explained)
    rows += [("index-slowlog", e.trace_id) for e in db.obsv.index_slowlog.tail(128)]
    rows += [("search-slowlog", e.trace_id) for e in db.obsv.search_slowlog.tail(128)]
    digest = hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()
    assert digest == PINNED_IDS_SHA256

    # Which operation an exemplar names depends on the clock (the latest
    # observation per bucket), so exemplars are checked against the pinned
    # ids rather than hashed.
    write_ids = {r.trace_id for r in traces if r.name in ("write", "bulk_write")}
    query_ids = {r.trace_id for r in traces + [explained] if r.name == "query"}
    histograms = db.telemetry.metrics.snapshot()["histograms"]
    exemplars = {
        entry["name"]: {trace_id for _, _, trace_id in entry.get("exemplars", [])}
        for entry in histograms
    }
    assert exemplars["esdb_write_seconds"] and exemplars["esdb_write_seconds"] <= write_ids
    assert exemplars["esdb_query_seconds"] and exemplars["esdb_query_seconds"] <= query_ids


def test_retained_traces_form_no_reference_cycles():
    """With the collector off, only reference counting frees spans: a span
    that referenced its parent, its root or its tracer would keep every
    evicted tree (and every dropped ``explain_analyze`` tree) alive."""
    db = ESDB(
        EsdbConfig(
            topology=ClusterTopology(num_nodes=2, num_shards=4, replicas_per_shard=0),
            auto_refresh_every=None,
        )
    )
    docs = _docs(1_000, seed=9)
    gc.collect()
    gc.disable()
    try:
        for doc in docs:
            db.write(doc)
        db.refresh()
        for i in range(1_000):
            # Forty distinct statements: misses first, then result hits.
            db.execute_sql(
                f"SELECT COUNT(*) FROM transaction_logs WHERE quantity >= {i % 40}"
            )
        for i in range(20):
            # Each records into its own tracer; the caller drops the tree.
            db.explain_analyze(
                f"SELECT * FROM transaction_logs WHERE quantity >= {i}"
            ).render()
        live = sum(isinstance(obj, Span) for obj in gc.get_objects())
    finally:
        gc.enable()
    roots = db.telemetry.tracer.recent_traces()
    assert len(roots) == 128
    for log in (db.obsv.index_slowlog, db.obsv.search_slowlog):
        roots += [entry.trace for entry in log.tail(128)]
    retained = {id(span) for root in roots for span in root.walk()}
    # A few module-level spans aside, every live span is one the ring or a
    # slow log still holds.
    assert live <= len(retained) + 8


def test_kept_child_handle_reads_its_derived_id():
    tracer = Tracer()
    ctx = TraceIdGenerator(seed=11).next_context("query")
    with tracer.trace("query", ctx) as root:
        with tracer.span("query.plan"):
            pass
        with tracer.span("query.shard[2]") as shard:
            with tracer.span("cache.hit", level="request") as hit:
                pass
    assert shard.span_id == derive_span_id(ctx.trace_id, ctx.span_id, 1, "query.shard[2]")
    assert hit.span_id == derive_span_id(ctx.trace_id, shard.span_id, 0, "cache.hit")
    assert hit.trace_id == root.trace_id == ctx.trace_id
