"""The benchmark's metric names: the one place they are listed.
``BENCHMARK.json`` carries the same lists (``bench/tests/test_manifest.py`` keeps
the two equal)."""

from __future__ import annotations

#: (name, unit, better, bound): what a user of the system sees. ``bound`` is
#: the share of the parent's median by which the metric may get worse.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_capped_mean_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("node_load_max_over_mean", "ratio", "lower", 0.05),
    ("query_fanout_mean", "shards", "lower", 0.05),
)

#: (name, unit, better): single layers, from the traced pass and from public
#: counters. Times are self time per operation unless the name says total.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # esdb: the facade
    ("esdb.write.total_us", "us", "lower"),
    ("esdb.write.self_us", "us", "lower"),
    ("esdb.bulk_write.self_us_per_doc", "us", "lower"),
    ("esdb.query.self_us", "us", "lower"),
    ("esdb.rebalance.ms_per_round", "ms", "lower"),
    # routing
    ("routing.route_write.us", "us", "lower"),
    ("routing.query_shards.us", "us", "lower"),
    ("routing.rule_match.us", "us", "lower"),
    ("routing.rule_count", "count", "lower"),
    ("routing.rule_version", "count", "lower"),
    # balancer, consensus
    ("balancer.record_write.us", "us", "lower"),
    ("balancer.rebalance.ms_per_round", "ms", "lower"),
    ("balancer.proposals", "count", "lower"),
    ("consensus.propose.ms_per_round", "ms", "lower"),
    ("consensus.commits", "count", "higher"),
    ("consensus.aborts", "count", "lower"),
    # storage, write side
    ("storage.index.us", "us", "lower"),
    ("storage.bulk_index.us_per_doc", "us", "lower"),
    ("storage.translog_append.us", "us", "lower"),
    ("storage.parse_attributes.calls_per_write", "count", "lower"),
    ("storage.parse_attributes.us_per_write", "us", "lower"),
    ("storage.refresh.count", "count", "lower"),
    ("storage.refresh.ms_total", "ms", "lower"),
    ("storage.refresh.max_ms", "ms", "lower"),
    ("storage.merge.count", "count", "lower"),
    ("storage.merge.ms_total", "ms", "lower"),
    ("storage.merge.docs_rewritten_per_doc", "ratio", "lower"),
    ("storage.segments_final", "count", "lower"),
    ("storage.index_entries_per_doc", "count", "lower"),
    ("storage.final_refresh_ms", "ms", "lower"),
    ("storage.recovery.ms_per_kdoc", "ms", "lower"),
    # storage, read side
    ("storage.postings.us_per_query", "us", "lower"),
    ("storage.scan_filter.us_per_query", "us", "lower"),
    ("storage.scan_filter.rows_per_query", "count", "lower"),
    ("storage.top_k.us_per_query", "us", "lower"),
    ("storage.fetch.us_per_query", "us", "lower"),
    ("storage.fetch.docs_per_query", "count", "lower"),
    # query
    ("query.parse.us", "us", "lower"),
    ("query.rewrite.us", "us", "lower"),
    ("query.plan.us", "us", "lower"),
    ("query.execute.self_us_per_query", "us", "lower"),
    ("query.execute.calls_per_query", "count", "lower"),
    ("query.aggregate.us", "us", "lower"),
    ("query.postings_per_row", "ratio", "lower"),
    ("query.class.filter.p50_ms", "ms", "lower"),
    ("query.class.topk.p50_ms", "ms", "lower"),
    ("query.class.subattr.p50_ms", "ms", "lower"),
    ("query.class.agg.p50_ms", "ms", "lower"),
    # cache
    ("cache.result.hit_ratio", "ratio", "higher"),
    ("cache.request.hit_ratio", "ratio", "higher"),
    ("cache.filter.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.us_per_query", "us", "lower"),
    # indexing, obsv, telemetry
    ("indexing.record.us_per_op", "us", "lower"),
    ("obsv.record_write.us", "us", "lower"),
    ("obsv.record_search.us", "us", "lower"),
    ("telemetry.timeseries_sample.us_per_op", "us", "lower"),
    ("telemetry.overhead_ratio", "ratio", "lower"),
    # runtime: the interpreter's collector, timed phases
    ("runtime.gc.pause_ms_total", "ms", "lower"),
    ("runtime.gc.pause_max_ms", "ms", "lower"),
    ("runtime.gc.gen2_count", "count", "lower"),
    ("runtime.gc.traced_us_per_op", "us", "lower"),
    # loadgen, trace: validity of the run, not the program
    ("loadgen.samples", "count", "higher"),
    ("loadgen.busy_ratio", "ratio", "lower"),
    ("loadgen.lateness_p99_ms", "ms", "lower"),
    ("loadgen.backlog_max", "count", "lower"),
    ("loadgen.over_limit_ratio", "ratio", "lower"),
    ("loadgen.latency_p99_ms", "ms", "lower"),
    ("loadgen.write_p50_ms", "ms", "lower"),
    ("loadgen.write_p99_ms", "ms", "lower"),
    ("loadgen.query_p50_ms", "ms", "lower"),
    ("loadgen.query_p99_ms", "ms", "lower"),
    ("loadgen.machine_slowdown", "ratio", "lower"),
    ("loadgen.stream_crc32", "id", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.self_sum_error", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

#: Per-layer metrics that are counts of work: equal inputs must give equal
#: values, on any machine (the determinism test holds them to that).
COUNT_METRICS: frozenset[str] = (
    frozenset(name for name, unit, _ in PER_LAYER if unit in ("count", "id"))
    | {
        "cache.result.hit_ratio", "cache.request.hit_ratio", "cache.filter.hit_ratio",
        "storage.merge.docs_rewritten_per_doc", "query.postings_per_row",
    }
) - {"loadgen.backlog_max", "runtime.gc.gen2_count"}  # these two follow the clock

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
BOUNDS = {name: bound for name, _, _, bound in END_TO_END}
BETTER = {name: better for name, _, better, _ in END_TO_END}
