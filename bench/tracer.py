"""Outside-in tracer: wraps the program's public callables from the
benchmark's side, so the per-layer numbers need no change to the program.

Class attributes are replaced on the class; module functions are rebound in
every ``repro`` module namespace that imported them (``from x import f``
copies the reference, so patching the defining module alone would miss the
callers). ``uninstall`` puts every original object back.

Spans live in memory as ``(parent, name_id, start, end, measure)`` tuples in
start order, so a parent always precedes its children. A span's self time is
its duration minus the durations of its direct children (one thread, so
children never overlap); per request the self times sum to the root span.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``owner`` is ``module`` or ``module:Class``."""

    span: str  # "<layer>.<callable>", the layer is the repo package it lives in
    owner: str
    attr: str
    #: optional ``measure(args, result) -> number`` stored on the span
    measure: Callable | None = None

    @property
    def layer(self) -> str:
        return self.span.split(".", 1)[0]


def _len_result(args, result):
    return len(result)


def _len_rows_arg(args, result):
    return len(args[2])  # scan_filter(self, field_name, rows, predicate)


def _total_postings(args, result):
    return result[1].total_postings  # execute() -> (rows, ExecutionTrace)


TARGETS: tuple[Target, ...] = (
    Target("esdb.write", "repro.esdb:ESDB", "write"),
    Target("esdb.bulk_write", "repro.esdb:ESDB", "bulk_write"),
    Target("esdb.execute_sql", "repro.esdb:ESDB", "execute_sql"),
    Target("esdb.refresh", "repro.esdb:ESDB", "refresh"),
    Target("esdb.rebalance", "repro.esdb:ESDB", "rebalance"),
    Target("routing.route_write", "repro.routing.policies:DynamicSecondaryHashRouting", "route_write"),
    Target("routing.query_shards", "repro.routing.policies:DynamicSecondaryHashRouting", "query_shards"),
    Target("routing.rule_match", "repro.routing.rules:RuleList", "match"),
    Target("balancer.record_write", "repro.balancer.monitor:WorkloadMonitor", "record_write"),
    Target("balancer.rebalance", "repro.balancer.balancer:LoadBalancer", "rebalance"),
    Target("consensus.propose", "repro.consensus.protocol:ConsensusMaster", "propose"),
    Target("storage.index", "repro.storage.engine:ShardEngine", "index"),
    Target("storage.bulk_index", "repro.storage.engine:ShardEngine", "bulk_index"),
    Target("storage.refresh", "repro.storage.engine:ShardEngine", "refresh"),
    Target("storage.maybe_merge", "repro.storage.engine:ShardEngine", "maybe_merge"),
    Target("storage.term_postings", "repro.storage.engine:ShardEngine", "term_postings"),
    Target("storage.numeric_range", "repro.storage.engine:ShardEngine", "numeric_range"),
    Target("storage.composite_search", "repro.storage.engine:ShardEngine", "composite_search"),
    Target("storage.subattribute_postings", "repro.storage.engine:ShardEngine", "subattribute_postings"),
    Target("storage.scan_filter", "repro.storage.engine:ShardEngine", "scan_filter", _len_rows_arg),
    Target("storage.top_k", "repro.storage.engine:ShardEngine", "top_k"),
    Target("storage.fetch", "repro.storage.engine:ShardEngine", "fetch", _len_result),
    Target("storage.translog_append", "repro.storage.translog:Translog", "append"),
    Target("storage.parse_attributes", "repro.storage.document", "parse_attributes"),
    Target("query.parse_sql", "repro.query.sql_parser", "parse_sql"),
    Target("query.translate", "repro.query.xdriver:Xdriver4ES", "translate"),
    Target("query.plan", "repro.query.optimizer:RuleBasedOptimizer", "plan"),
    Target("query.execute", "repro.query.executor:QueryExecutor", "execute", _total_postings),
    Target("query.aggregate", "repro.query.aggregator:ResultAggregator", "aggregate_shards"),
    Target("cache.result_get", "repro.cache.result_cache:CoordinatorResultCache", "get"),
    Target("cache.result_put", "repro.cache.result_cache:CoordinatorResultCache", "put"),
    Target("cache.request_get", "repro.cache.request_cache:ShardRequestCache", "get"),
    Target("cache.request_put", "repro.cache.request_cache:ShardRequestCache", "put"),
    Target("cache.filter_get", "repro.cache.filter_cache:SegmentFilterCache", "get"),
    Target("cache.filter_put", "repro.cache.filter_cache:SegmentFilterCache", "put"),
    Target("cache.sql_fingerprint", "repro.cache.fingerprint", "sql_fingerprint"),
    Target("cache.statement_fingerprint", "repro.cache.fingerprint", "statement_fingerprint"),
    Target("indexing.record_write", "repro.indexing.frequency:FrequencyTracker", "record_write"),
    Target("indexing.record_query", "repro.indexing.frequency:FrequencyTracker", "record_query"),
    Target("obsv.record_write", "repro.obsv.observer:Observer", "record_write"),
    Target("obsv.record_search", "repro.obsv.observer:Observer", "record_search"),
    Target("obsv.roll", "repro.obsv.observer:Observer", "roll"),
    Target("telemetry.timeseries_sample", "repro.telemetry.timeseries:TimeSeriesStore", "maybe_sample"),
)

#: Span recorded around each garbage collection by the ``gc.callbacks`` hook,
#: so a pause is charged to ``runtime`` and not to whichever layer it hit.
GC_SPAN = "runtime.gc"


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Installs wrappers over ``targets`` and collects their spans."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.names: list[str] = [t.span for t in targets] + [GC_SPAN]
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []  # (namespace, attr, original)
        self._gc_started = 0.0

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn: Callable, name_id: int, measure: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            measured = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    measured = measure(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (parent, name_id, start, end, measured)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(
                (parent, len(self.names) - 1, self._gc_started, time.perf_counter(),
                 info["generation"])
            )

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for name_id, target in enumerate(self.targets):
            owner = _resolve(target.owner)
            original = vars(owner)[target.attr]
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"{target.owner}.{target.attr} is not a plain function")
            wrapper = self._wrap(original, name_id, target.measure)
            if isinstance(owner, type):
                namespaces = [owner]
            else:
                namespaces = [
                    module
                    for module_name, module in list(sys.modules.items())
                    if module_name.split(".")[0] == "repro"
                    and vars(module).get(target.attr) is original
                ]
            for namespace in namespaces:
                self._patched.append((namespace, target.attr, original))
                setattr(namespace, target.attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        """One span per line: ``id, parent, request, name, layer, start, end``
        (seconds on the ``perf_counter`` clock; ``request`` is the id of the
        root span, shared by every span of one public call)."""
        roots = request_ids(self.spans)
        with open(path, "w", encoding="utf-8") as out:
            for span_id, (parent, name_id, start, end, measured) in enumerate(self.spans):
                name = self.names[name_id]
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "request": roots[span_id],
                    "name": name, "layer": name.split(".", 1)[0],
                    "start": start, "end": end, "measure": measured,
                }) + "\n")


def request_ids(spans: list[tuple]) -> list[int]:
    """Root span id of every span (parents precede children)."""
    roots = []
    for span_id, span in enumerate(spans):
        parent = span[0]
        roots.append(span_id if parent < 0 else roots[parent])
    return roots


def self_times(spans: list[tuple]) -> list[float]:
    """Self time per span: duration minus the direct children's durations."""
    out = [end - start for _, _, start, end, _ in spans]
    for parent, _, start, end, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0  # inclusive seconds
    self_time: float = 0.0
    measured: float = 0.0
    longest: float = 0.0


def aggregate(spans: list[tuple], names: list[str]) -> dict[tuple[str, str], SpanStats]:
    """Sum spans by ``(root span name, span name)``: the root name says which
    public call the work was done for (an auto-refresh inside a write is
    ``("esdb.write", "storage.refresh")``)."""
    roots = request_ids(spans)
    own = self_times(spans)
    stats: dict[tuple[str, str], SpanStats] = {}
    for span_id, (_, name_id, start, end, measured) in enumerate(spans):
        key = (names[spans[roots[span_id]][1]], names[name_id])
        entry = stats.get(key)
        if entry is None:
            entry = stats[key] = SpanStats()
        entry.calls += 1
        entry.total += end - start
        entry.self_time += own[span_id]
        entry.measured += measured
        entry.longest = max(entry.longest, end - start)
    return stats


def self_sum_error(spans: list[tuple]) -> float:
    """Largest relative gap, over requests, between the root span's duration
    and the sum of the self times of the spans under it."""
    roots = request_ids(spans)
    own = self_times(spans)
    sums: dict[int, float] = {}
    for span_id, root in enumerate(roots):
        sums[root] = sums.get(root, 0.0) + own[span_id]
    worst = 0.0
    for root, total in sums.items():
        duration = spans[root][3] - spans[root][2]
        if duration > 0:
            worst = max(worst, abs(total - duration) / duration)
    return worst
