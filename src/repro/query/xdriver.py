"""Xdriver4ES: the SQL↔ES-DSL bridge plugin (§3.1).

A "smart translator" that produces cost-effective ES-DSL from SQL:

* **DNF conversion** — queries viewed as boolean formulas are converted
  to disjunctive normal form to reduce AST depth (each disjunct plans
  independently);
* **predicate merge** — same-column predicates are folded
  (``tenant_id=1 OR tenant_id=2`` → ``tenant_id IN (1,2)``) to reduce AST
  width;
* **result mapping** — the built-in functions ``IFNULL`` and
  ``date_format``, which the aggregator applies on projection.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import Any

from repro.query.ast import (
    SelectStatement,
    depth,
    flatten,
    merge_predicates,
    to_dnf,
    width,
)
from repro.query.dsl import DslQuery, to_dsl


@dataclass(frozen=True)
class TranslatedQuery:
    """Output of Xdriver4ES: the rewritten statement and the WHERE tree it
    was rewritten from. The ES-DSL tree and the depth/width accounting are
    derived on demand, because only EXPLAIN reads them."""

    statement: SelectStatement
    original_where: object

    @property
    def dsl(self) -> DslQuery | None:
        where = self.statement.where
        return to_dsl(where) if where is not None else None

    @property
    def original_depth(self) -> int:
        return depth(self.original_where)

    @property
    def original_width(self) -> int:
        return width(self.original_where)

    @property
    def depth_reduction(self) -> int:
        if self.statement.where is None:
            return 0
        return self.original_depth - depth(self.statement.where)

    @property
    def width_reduction(self) -> int:
        if self.statement.where is None:
            return 0
        return self.original_width - width(self.statement.where)


class Xdriver4ES:
    """SQL → ES-DSL translator: flatten, DNF, predicate merge."""

    def translate(self, statement: SelectStatement) -> TranslatedQuery:
        """Rewrite *statement*'s WHERE tree (its ES-DSL tree is
        :attr:`TranslatedQuery.dsl`)."""
        where = statement.where
        if where is not None:
            where = merge_predicates(to_dnf(flatten(where)))
        rewritten = SelectStatement(
            columns=statement.columns,
            table=statement.table,
            where=where,
            order_by=statement.order_by,
            limit=statement.limit,
            group_by=statement.group_by,
            having=statement.having,
        )
        return TranslatedQuery(statement=rewritten, original_where=statement.where)

def ifnull(value: Any, default: Any) -> Any:
    """SQL ``IFNULL``: *default* when *value* is None, else *value*."""
    return default if value is None else value


def date_format(epoch_seconds: float, fmt: str = "%Y-%m-%d %H:%M:%S") -> str:
    """SQL ``date_format``: render an epoch-seconds timestamp (UTC).

    ES-DSL has no type-conversion expressions, so Xdriver4ES applies this in
    its mapping module on the way back to the SQL client.
    """
    moment = _dt.datetime.fromtimestamp(float(epoch_seconds), tz=_dt.timezone.utc)
    return moment.strftime(fmt)
