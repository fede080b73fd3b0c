"""Coordinator-side result aggregation (§3.2).

During query execution the coordinator first collects row ids from every
involved shard, fetches the raw documents, then performs global operations:
sort, limit, scalar-function projection, aggregates (count/sum/avg/min/max)
and GROUP BY. This module implements that second phase over the per-shard
results the executor returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.errors import QueryError
from repro.query.ast import (
    AggregateProjection,
    FunctionProjection,
    OrderBy,

)


@dataclass(frozen=True)
class QueryResult:
    """Final result of a distributed query.

    Attributes:
        rows: projected row dicts after global sort/limit (or one row per
            group for aggregate queries).
        total_hits: matched rows before LIMIT/aggregation.
        subqueries: how many shard subqueries ran (the fan-out metric that
            drives Figure 16's throughput differences).
    """

    rows: tuple
    total_hits: int
    subqueries: int

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self) -> Any:
        """Convenience for single-aggregate queries: the one result value."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise QueryError("scalar() requires exactly one row and one column")
        return next(iter(self.rows[0].values()))


class ResultAggregator:
    """Merges per-shard row sets into a global result."""

    def __init__(
        self,
        columns: tuple = ("*",),
        order_by: OrderBy | None = None,
        limit: int | None = None,
        group_by: tuple = (),
        having: tuple = (),
    ) -> None:
        self.columns = columns
        self.order_by = order_by
        self.limit = limit
        self.group_by = tuple(group_by)
        self.having = tuple(having)
        self._aggregates = [c for c in columns if isinstance(c, AggregateProjection)]
        if self.having and not self._aggregates and not self.group_by:
            raise QueryError("HAVING requires aggregates or GROUP BY")

    def aggregate(self, shard_rows: Iterable[list[Mapping[str, Any]]]) -> QueryResult:
        """Combine rows from each shard subquery into the final result."""
        return self.aggregate_shards((rows, len(rows)) for rows in shard_rows)

    def aggregate_shards(
        self, shard_results: Iterable[tuple[list[Mapping[str, Any]], int]]
    ) -> QueryResult:
        """Like :meth:`aggregate`, but each shard reports ``(rows, matched)``
        where *matched* is its true hit count — rows may already be truncated
        by per-shard LIMIT/top-k pushdown, yet ``total_hits`` stays exact."""
        merged: list[Mapping[str, Any]] = []
        subqueries = 0
        total = 0
        for rows, matched in shard_results:
            subqueries += 1
            merged.extend(rows)
            total += matched
        if self._aggregates or self.having:
            out_rows = self._aggregate_groups(merged)
        else:
            if self.order_by is not None:
                merged = self._global_sort(merged, self.order_by)
            if self.limit is not None:
                merged = merged[: self.limit]
            out_rows = [self._project(row) for row in merged]
        if self._aggregates and self.order_by is not None:
            out_rows = self._global_sort(out_rows, self.order_by)
        if self._aggregates and self.limit is not None:
            out_rows = out_rows[: self.limit]
        return QueryResult(rows=tuple(out_rows), total_hits=total, subqueries=subqueries)

    # -- plain projection --------------------------------------------------------
    def _project(self, row: Mapping[str, Any]) -> dict:
        if self.columns == ("*",):
            return dict(row)
        out = {}
        for item in self.columns:
            if isinstance(item, FunctionProjection):
                out[item.output_name] = apply_function(item, row)
            else:
                out[str(item)] = row.get(str(item))
        return out

    # -- grouped aggregation --------------------------------------------------------
    def _aggregate_groups(self, rows: list) -> list[dict]:
        groups: dict[tuple, list] = {}
        for row in rows:
            key = tuple(row.get(column) for column in self.group_by)
            groups.setdefault(key, []).append(row)
        if not self.group_by and not groups:
            groups[()] = []  # global aggregate over an empty result set
        out = []
        for key, members in groups.items():
            if not all(
                condition.holds(_evaluate_aggregate(condition.aggregate, members))
                for condition in self.having
            ):
                continue
            result_row: dict[str, Any] = dict(zip(self.group_by, key))
            for item in self.columns:
                if isinstance(item, AggregateProjection):
                    result_row[item.output_name] = _evaluate_aggregate(item, members)
                elif isinstance(item, FunctionProjection):
                    sample = members[0] if members else {}
                    result_row[item.output_name] = apply_function(item, sample)
                elif str(item) not in result_row:
                    result_row[str(item)] = members[0].get(str(item)) if members else None
            out.append(result_row)
        # Deterministic order: by group key (None-safe).
        out.sort(key=lambda r: tuple(_sort_key(r.get(c)) for c in self.group_by))
        return out

    @staticmethod
    def _global_sort(rows: list, order_by: OrderBy) -> list:
        column = order_by.column

        def key(row: Mapping[str, Any]):
            return _sort_key(row.get(column))

        try:
            return sorted(rows, key=key, reverse=order_by.descending)
        except TypeError as exc:
            raise QueryError(
                f"cannot sort mixed-type values in column {column!r}"
            ) from exc


def _sort_key(value: Any) -> tuple:
    """None sorts first ascending, last descending (MySQL behaviour)."""
    return (value is not None, value) if value is not None else (False, 0)


def _evaluate_aggregate(item: AggregateProjection, rows: list) -> Any:
    if item.func == "count":
        if item.column == "*":
            return len(rows)
        return sum(1 for row in rows if row.get(item.column) is not None)
    values = [row[item.column] for row in rows if row.get(item.column) is not None]
    if not values:
        return None  # SQL: aggregates over empty/NULL-only input yield NULL
    if item.func == "sum":
        return sum(values)
    if item.func == "avg":
        return sum(values) / len(values)
    if item.func == "min":
        return min(values)
    return max(values)


def apply_function(item: FunctionProjection, row: Mapping[str, Any]) -> Any:
    """Evaluate a scalar built-in over one row (Xdriver4ES mapping, §3.1)."""
    from repro.query.xdriver import date_format, ifnull

    value = row.get(item.column)
    if item.func == "ifnull":
        return ifnull(value, item.argument)
    if value is None:
        return None
    return date_format(value, item.argument or "%Y-%m-%d %H:%M:%S")
