"""Per-layer metrics: self times from the traced pass, counts from the
program's public state. Every name in ``metrics.PER_LAYER`` gets a value;
one whose callable never ran on a workload reads 0."""

from __future__ import annotations

from dataclasses import dataclass

from bench.loadgen import Op
from bench.tracer import SpanStats

WRITE_ROOTS = ("esdb.write", "esdb.bulk_write")
QUERY_ROOT = ("esdb.execute_sql",)
POSTINGS = ("storage.term_postings", "storage.numeric_range",
            "storage.composite_search", "storage.subattribute_postings")
CACHE = ("cache.result_get", "cache.result_put", "cache.request_get",
         "cache.request_put", "cache.filter_get", "cache.filter_put",
         "cache.sql_fingerprint", "cache.statement_fingerprint")


@dataclass(frozen=True)
class TracedOps:
    """What the traced slice contained."""

    single_docs: int
    bulk_docs: int
    queries: int
    rounds: int  # rebalance ticks

    @classmethod
    def of(cls, ops: list[Op]) -> "TracedOps":
        return cls(
            single_docs=sum(1 for op in ops if op.kind == "write"),
            bulk_docs=sum(len(op.payload) for op in ops if op.kind == "bulk"),
            queries=sum(1 for op in ops if op.kind == "query"),
            rounds=sum(1 for op in ops if op.kind == "rebalance"),
        )

    @property
    def docs(self) -> int:
        return self.single_docs + self.bulk_docs

    @property
    def units(self) -> int:
        return self.docs + self.queries


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class SpanTable:
    """Sums over the ``(root, span)`` table ``tracer.aggregate`` builds."""

    def __init__(self, stats: dict[tuple[str, str], SpanStats]) -> None:
        self.stats = stats

    def sum(self, field: str, spans: tuple[str, ...], roots: tuple[str, ...] | None = None) -> float:
        return sum(
            getattr(entry, field)
            for (root, span), entry in self.stats.items()
            if span in spans and (roots is None or root in roots)
        )

    def longest(self, span: str) -> float:
        return max(
            (entry.longest for (_, name), entry in self.stats.items() if name == span),
            default=0.0,
        )


def cache_counters(db) -> dict[str, int]:
    """Hits, misses and evictions of the three cache levels, from their
    public ``stats``."""
    levels = {
        "result": [db.result_cache.stats],
        "request": [db.request_cache.stats],
        "filter": [engine.filter_cache.stats for engine in db.engines.values()],
    }
    out = {"evictions": 0}
    for level, stats in levels.items():
        out[f"{level}.hits"] = sum(s.hits for s in stats)
        out[f"{level}.misses"] = sum(s.misses for s in stats)
        out["evictions"] += sum(s.evictions for s in stats)
    return out


def span_metrics(table: SpanTable, ops: TracedOps) -> dict[str, float]:
    us, ms = 1e6, 1e3

    def self_time(*spans: str, roots=None) -> float:
        return table.sum("self_time", spans, roots)

    write_calls = table.sum("calls", ("esdb.write",))
    fetched = table.sum("measured", ("storage.fetch",))
    return {
        "esdb.write.total_us": us * _ratio(table.sum("total", ("esdb.write",)), write_calls),
        "esdb.write.self_us": us * _ratio(self_time("esdb.write"), write_calls),
        "esdb.bulk_write.self_us_per_doc": us * _ratio(self_time("esdb.bulk_write"), ops.bulk_docs),
        "esdb.query.self_us": us * _ratio(self_time("esdb.execute_sql"), ops.queries),
        "esdb.rebalance.ms_per_round": ms * _ratio(self_time("esdb.rebalance"), ops.rounds),
        "routing.route_write.us": us * _ratio(self_time("routing.route_write"), ops.docs),
        "routing.query_shards.us": us * _ratio(self_time("routing.query_shards"), ops.queries),
        "routing.rule_match.us": us * _ratio(self_time("routing.rule_match"), ops.units),
        "balancer.record_write.us": us * _ratio(self_time("balancer.record_write"), ops.docs),
        "balancer.rebalance.ms_per_round": ms * _ratio(self_time("balancer.rebalance"), ops.rounds),
        "consensus.propose.ms_per_round": ms * _ratio(self_time("consensus.propose"), ops.rounds),
        "storage.index.us": us * _ratio(self_time("storage.index"), ops.single_docs),
        "storage.bulk_index.us_per_doc": us * _ratio(self_time("storage.bulk_index"), ops.bulk_docs),
        "storage.translog_append.us": us * _ratio(self_time("storage.translog_append"), ops.docs),
        "storage.parse_attributes.calls_per_write": _ratio(
            table.sum("calls", ("storage.parse_attributes",), WRITE_ROOTS), ops.docs),
        "storage.parse_attributes.us_per_write": us * _ratio(
            self_time("storage.parse_attributes", roots=WRITE_ROOTS), ops.docs),
        "storage.refresh.ms_total": ms * self_time("storage.refresh"),
        "storage.refresh.max_ms": ms * table.longest("storage.refresh"),
        "storage.merge.ms_total": ms * table.sum("total", ("storage.maybe_merge",)),
        "storage.postings.us_per_query": us * _ratio(self_time(*POSTINGS), ops.queries),
        "storage.scan_filter.us_per_query": us * _ratio(self_time("storage.scan_filter"), ops.queries),
        "storage.scan_filter.rows_per_query": _ratio(
            table.sum("measured", ("storage.scan_filter",)), ops.queries),
        "storage.top_k.us_per_query": us * _ratio(self_time("storage.top_k"), ops.queries),
        "storage.fetch.us_per_query": us * _ratio(self_time("storage.fetch"), ops.queries),
        "storage.fetch.docs_per_query": _ratio(fetched, ops.queries),
        "query.parse.us": us * _ratio(self_time("query.parse_sql"), ops.queries),
        "query.rewrite.us": us * _ratio(self_time("query.translate"), ops.queries),
        "query.plan.us": us * _ratio(self_time("query.plan"), ops.queries),
        "query.execute.self_us_per_query": us * _ratio(self_time("query.execute"), ops.queries),
        "query.execute.calls_per_query": _ratio(table.sum("calls", ("query.execute",)), ops.queries),
        "query.aggregate.us": us * _ratio(self_time("query.aggregate"), ops.queries),
        "query.postings_per_row": _ratio(table.sum("measured", ("query.execute",)), fetched),
        "cache.us_per_query": us * _ratio(self_time(*CACHE, roots=QUERY_ROOT), ops.queries),
        "indexing.record.us_per_op": us * _ratio(
            self_time("indexing.record_write", "indexing.record_query"), ops.units),
        "obsv.record_write.us": us * _ratio(self_time("obsv.record_write"), ops.docs),
        "obsv.record_search.us": us * _ratio(self_time("obsv.record_search"), ops.queries),
        "telemetry.timeseries_sample.us_per_op": us * _ratio(
            self_time("telemetry.timeseries_sample"), ops.units),
        "runtime.gc.traced_us_per_op": us * _ratio(table.sum("total", ("runtime.gc",)), ops.units),
    }


def state_metrics(db, caches_before: dict[str, int]) -> dict[str, float]:
    """Counts read from the instance's public state at the end of the run
    (cache counters as the change since set-up finished)."""
    engines = list(db.engines.values())
    writes = sum(engine.stats.writes for engine in engines)
    registry = db.telemetry.metrics
    rounds = {
        outcome: getattr(registry.get("consensus_rounds_total", outcome=outcome), "value", 0)
        for outcome in ("committed", "aborted")
    }
    caches = cache_counters(db)
    delta = {key: caches[key] - caches_before[key] for key in caches}
    out = {
        "routing.rule_count": len(db.policy.rules),
        "routing.rule_version": db.policy.rules.version,
        "balancer.proposals": registry.total("balancer_proposals_total"),
        "consensus.commits": rounds["committed"],
        "consensus.aborts": rounds["aborted"],
        "storage.refresh.count": sum(engine.stats.refreshes for engine in engines),
        "storage.merge.count": sum(engine.stats.merges for engine in engines),
        "storage.merge.docs_rewritten_per_doc": _ratio(
            sum(engine.stats.merge_cost for engine in engines), writes),
        "storage.segments_final": sum(engine.segment_count() for engine in engines),
        "storage.index_entries_per_doc": _ratio(
            sum(engine.stats.indexing_cost for engine in engines), writes),
        "cache.evictions": delta["evictions"],
    }
    for level in ("result", "request", "filter"):
        hits, misses = delta[f"{level}.hits"], delta[f"{level}.misses"]
        out[f"cache.{level}.hit_ratio"] = _ratio(hits, hits + misses)
    return out
