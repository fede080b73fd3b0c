"""Plan executor: interprets physical plans against one shard engine.

Every operator returns a :class:`PostingList`; the executor also keeps an
operator trace (operator name, produced list size) so tests and benchmarks
can verify plan behaviour, e.g. that Figure 8's plan produces fewer and
smaller intermediate posting lists than Figure 7's.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Any

from repro.errors import PlanningError
from repro.query.planner import (
    CompositeSearch,
    Exclude,
    FullScan,
    Intersect,
    MatchAll,
    PhysicalPlan,
    PlanNode,
    RangeSearch,
    SequentialScanFilter,
    SubAttributeScan,
    SubAttributeSearch,
    TermSearch,
    TermsSearch,
    TextMatch,
    Union,
    WildcardScan,
)
from repro.storage.document import FieldType, parse_attributes
from repro.storage.engine import ShardEngine
from repro.storage.postings import PostingList
from repro.telemetry.runtime import NULL_TELEMETRY


@dataclass
class ExecutionTrace:
    """Per-operator accounting for one plan execution."""

    steps: list = field(default_factory=list)

    def record(self, operator: str, produced: int) -> None:
        self.steps.append((operator, produced))

    @property
    def total_postings(self) -> int:
        """Sum of intermediate posting-list sizes — the overhead metric the
        paper's optimizer reduces (large lists are what make Figure 7 slow)."""
        return sum(size for _, size in self.steps)

    @property
    def operator_count(self) -> int:
        return len(self.steps)


@functools.lru_cache(maxsize=512)
def _like_to_regex(pattern: str) -> re.Pattern:
    """Compile a LIKE/wildcard pattern to a regex, memoized per pattern —
    uncached this recompiled on every WildcardScan/like-scan construction,
    once per query per shard for the workload's repeated templates."""
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE)


class QueryExecutor:
    """Executes physical plans on one :class:`ShardEngine`."""

    def __init__(self, engine: ShardEngine, telemetry=None) -> None:
        self.engine = engine
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Counters are bound once per executor (one per operator type, on its
        # first use), not looked up by label per operator per execution.
        self._operator_counters: dict[str, Any] = {}
        self._postings_counter = self.telemetry.metrics.counter("executor_postings_total")

    def execute(self, plan: PhysicalPlan) -> tuple[PostingList, ExecutionTrace]:
        """Run *plan*; returns the matched rows and the operator trace."""
        trace = ExecutionTrace()
        rows = self._run(plan.root, trace)
        if self.telemetry.enabled:
            counters = self._operator_counters
            for operator, _ in trace.steps:
                counter = counters.get(operator)
                if counter is None:
                    counter = counters[operator] = self.telemetry.metrics.counter(
                        "executor_operators_total", operator=operator
                    )
                counter.inc()
            self._postings_counter.inc(trace.total_postings)
        return rows, trace

    # -- operator dispatch -----------------------------------------------------
    def _run(self, node: PlanNode, trace: ExecutionTrace) -> PostingList:
        if isinstance(node, MatchAll):
            rows = self._all_rows()
        elif isinstance(node, TermSearch):
            rows = self._term(node.column, node.value)
        elif isinstance(node, TermsSearch):
            rows = PostingList.union_all(
                [self._term(node.column, v) for v in node.values]
            )
        elif isinstance(node, RangeSearch):
            rows = self.engine.numeric_range(
                node.column,
                node.low,
                node.high,
                include_low=node.include_low,
                include_high=node.include_high,
            )
        elif isinstance(node, TextMatch):
            rows = self.engine.text_postings(node.column, node.text)
        elif isinstance(node, WildcardScan):
            rows = self._full_scan(node.column, "like", node.pattern)
        elif isinstance(node, SubAttributeSearch):
            rows = self.engine.subattribute_postings(node.key, node.value)
        elif isinstance(node, SubAttributeScan):
            rows = self._full_scan("attributes", "attr", (node.key, node.value))
        elif isinstance(node, CompositeSearch):
            kwargs: dict[str, Any] = {}
            if node.range_column is not None:
                kwargs = {
                    "range_column": node.range_column,
                    "low": node.low,
                    "high": node.high,
                    "include_low": node.include_low,
                    "include_high": node.include_high,
                }
            rows = self.engine.composite_search(
                node.index_name, dict(node.equalities), **kwargs
            )
        elif isinstance(node, SequentialScanFilter):
            child_rows = self._run(node.child, trace)
            rows = self._scan_filter(child_rows, node.column, node.op, node.value)
        elif isinstance(node, FullScan):
            rows = self._full_scan(node.column, node.op, node.value)
        elif isinstance(node, Intersect):
            rows = PostingList.intersect_all(
                [self._run(child, trace) for child in node.children]
            )
        elif isinstance(node, Union):
            rows = PostingList.union_all(
                [self._run(child, trace) for child in node.children]
            )
        elif isinstance(node, Exclude):
            keep = self._run(node.child, trace)
            drop = self._run(node.excluded, trace)
            rows = keep.difference(drop)
        else:
            raise PlanningError(f"executor has no operator for {type(node).__name__}")
        trace.record(type(node).__name__, len(rows))
        return rows

    # -- helpers -----------------------------------------------------------------
    def _all_rows(self) -> PostingList:
        return PostingList.union_all(
            [
                segment.filter_live(PostingList(segment.row_ids(), presorted=True))
                for segment in self.engine.segments
            ]
        )

    def _term(self, column: str, value: Any) -> PostingList:
        ftype = self.engine.config.schema.type_of(column)
        if ftype is FieldType.NUMERIC:
            return self.engine.numeric_range(column, value, value)
        return self.engine.term_postings(column, value)

    def _scan_filter(self, rows: PostingList, column: str, op: str, value: Any) -> PostingList:
        predicate = _scan_predicate(op, value)
        return self.engine.scan_filter(column, rows, predicate)

    def _full_scan(self, column: str, op: str, value: Any) -> PostingList:
        return self.engine.full_scan(column, _scan_predicate(op, value))


def _scan_predicate(op: str, value: Any):
    """The doc-values predicate for one scan operator. Every one is false for
    a missing value (SQL's NULL rule), on a scan over candidates and on a
    whole-shard scan alike."""
    if op == "=":
        return lambda v: v == value
    if op == "!=":
        return lambda v: v is not None and v != value
    if op == "<":
        return lambda v: v is not None and v < value
    if op == "<=":
        return lambda v: v is not None and v <= value
    if op == ">":
        return lambda v: v is not None and v > value
    if op == ">=":
        return lambda v: v is not None and v >= value
    if op == "in":
        allowed = set(value)
        return lambda v: v in allowed
    if op == "between":
        low, high = value
        return lambda v: v is not None and low <= v <= high
    if op == "like":
        regex = _like_to_regex(value)
        return lambda v: v is not None and regex.match(str(v)) is not None
    if op == "attr":
        key, wanted = value
        return lambda v: v is not None and parse_attributes(str(v)).get(key) == wanted
    raise PlanningError(f"unknown scan op {op!r}")
