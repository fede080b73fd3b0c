"""Query AST: boolean trees of column predicates.

The AST mirrors what the SQL parser produces and what Xdriver4ES rewrites:
predicates (leaves) combined by AND/OR/NOT nodes. Normalization helpers
(flattening, DNF conversion, predicate merge) live here because they are
pure tree transforms; the cost-aware decisions live in the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import UnsupportedSqlError

# -- predicates (leaves) ------------------------------------------------------


class Predicate:
    """Base class for leaf predicates. Each knows its target column."""

    column: str

    def key(self) -> tuple:
        """Hashable identity used for deduplication during normalization."""
        raise NotImplementedError


@dataclass(frozen=True)
class ComparisonPredicate(Predicate):
    """``column <op> value`` with op in =, !=, <, <=, >, >=."""

    column: str
    op: str
    value: Any

    _VALID_OPS = ("=", "!=", "<", "<=", ">", ">=")

    def __post_init__(self) -> None:
        if self.op not in self._VALID_OPS:
            raise UnsupportedSqlError(f"unsupported comparison operator {self.op!r}")

    def key(self) -> tuple:
        return ("cmp", self.column, self.op, self.value)


@dataclass(frozen=True)
class BetweenPredicate(Predicate):
    """``column BETWEEN low AND high`` (inclusive both ends, like SQL)."""

    column: str
    low: Any
    high: Any

    def key(self) -> tuple:
        return ("between", self.column, self.low, self.high)


@dataclass(frozen=True)
class InPredicate(Predicate):
    """``column IN (v1, v2, ...)``."""

    column: str
    values: tuple

    def key(self) -> tuple:
        return ("in", self.column, self.values)


@dataclass(frozen=True)
class LikePredicate(Predicate):
    """``column LIKE pattern`` with SQL ``%``/``_`` wildcards."""

    column: str
    pattern: str

    def key(self) -> tuple:
        return ("like", self.column, self.pattern)


@dataclass(frozen=True)
class MatchPredicate(Predicate):
    """``MATCH(column, 'text')`` — full-text search on an analyzed field."""

    column: str
    text: str

    def key(self) -> tuple:
        return ("match", self.column, self.text)


@dataclass(frozen=True)
class SubAttributePredicate(Predicate):
    """``ATTR(key) = value`` — filter on one sub-attribute of the
    concatenated "attributes" column (§6.3.3)."""

    key_name: str
    value: str
    column: str = "attributes"

    def key(self) -> tuple:
        return ("subattr", self.key_name, self.value)


# -- boolean nodes --------------------------------------------------------------


@dataclass(frozen=True)
class AndNode:
    children: tuple

    def __post_init__(self) -> None:
        if not self.children:
            raise UnsupportedSqlError("empty AND")


@dataclass(frozen=True)
class OrNode:
    children: tuple

    def __post_init__(self) -> None:
        if not self.children:
            raise UnsupportedSqlError("empty OR")


@dataclass(frozen=True)
class NotNode:
    child: object


@dataclass(frozen=True)
class OrderBy:
    column: str
    descending: bool = False


@dataclass(frozen=True)
class AggregateProjection:
    """An aggregate in the SELECT list: COUNT/SUM/AVG/MIN/MAX.

    ``COUNT(*)`` is represented with column ``"*"``. The coordinator's
    result aggregator evaluates these globally (or per group) after fanning
    subqueries out to the shards (§3.2).
    """

    func: str  # "count" | "sum" | "avg" | "min" | "max"
    column: str

    _VALID = ("count", "sum", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.func not in self._VALID:
            raise UnsupportedSqlError(f"unsupported aggregate {self.func!r}")
        if self.column == "*" and self.func != "count":
            raise UnsupportedSqlError(f"{self.func.upper()}(*) is not valid SQL")

    @property
    def output_name(self) -> str:
        return f"{self.func}({self.column})"


@dataclass(frozen=True)
class FunctionProjection:
    """A scalar built-in in the SELECT list: IFNULL(col, default) or
    DATE_FORMAT(col, 'fmt').

    These are the SQL expressions ES-DSL cannot express; Xdriver4ES's
    mapping module applies them to rows on the way back to the client
    (§3.1).
    """

    func: str  # "ifnull" | "date_format"
    column: str
    argument: object = None

    _VALID = ("ifnull", "date_format")

    def __post_init__(self) -> None:
        if self.func not in self._VALID:
            raise UnsupportedSqlError(f"unsupported SQL function {self.func!r}")

    @property
    def output_name(self) -> str:
        return f"{self.func}({self.column})"


@dataclass(frozen=True)
class HavingCondition:
    """One HAVING conjunct: ``<aggregate> <op> <value>``."""

    aggregate: AggregateProjection
    op: str
    value: object

    _VALID_OPS = ("=", "!=", "<", "<=", ">", ">=")

    def __post_init__(self) -> None:
        if self.op not in self._VALID_OPS:
            raise UnsupportedSqlError(f"unsupported HAVING operator {self.op!r}")

    def holds(self, aggregate_value) -> bool:
        if aggregate_value is None:
            return False  # SQL: NULL compares to nothing
        ops = {
            "=": aggregate_value == self.value,
            "!=": aggregate_value != self.value,
            "<": aggregate_value < self.value,
            "<=": aggregate_value <= self.value,
            ">": aggregate_value > self.value,
            ">=": aggregate_value >= self.value,
        }
        return ops[self.op]


@dataclass(frozen=True)
class SelectStatement:
    """A parsed SFW statement.

    Attributes:
        columns: SELECT-list items — ``"*"``, plain column-name strings,
            :class:`AggregateProjection` or :class:`FunctionProjection`.
        table: table name (single table only — the paper's scope).
        where: boolean predicate tree, or None.
        group_by: optional grouping columns (requires aggregate projections).
        having: AND-connected aggregate filters applied per group.
        order_by: optional ordering.
        limit: optional row cap.
    """

    columns: tuple
    table: str
    where: object | None = None
    order_by: OrderBy | None = None
    limit: int | None = None
    group_by: tuple = ()
    having: tuple = ()

    @property
    def has_aggregates(self) -> bool:
        return any(isinstance(c, AggregateProjection) for c in self.columns)


# -- tree utilities ----------------------------------------------------------------


def iter_predicates(node: object) -> Iterator[Predicate]:
    """Yield every leaf predicate under *node* (pre-order)."""
    if node is None:
        return
    if isinstance(node, AndNode) or isinstance(node, OrNode):
        for child in node.children:
            yield from iter_predicates(child)
    elif isinstance(node, NotNode):
        yield from iter_predicates(node.child)
    else:
        yield node  # a Predicate


def depth(node: object) -> int:
    """Return the AST depth (the metric DNF conversion reduces)."""
    if node is None:
        return 0
    if isinstance(node, (AndNode, OrNode)):
        return 1 + max(depth(child) for child in node.children)
    if isinstance(node, NotNode):
        return 1 + depth(node.child)
    return 1


def width(node: object) -> int:
    """Return the number of leaf predicates (reduced by predicate merge)."""
    return sum(1 for _ in iter_predicates(node))


def flatten(node: object) -> object:
    """Collapse nested same-type boolean nodes and single-child wrappers."""
    if isinstance(node, AndNode):
        children = []
        for child in (flatten(c) for c in node.children):
            if isinstance(child, AndNode):
                children.extend(child.children)
            else:
                children.append(child)
        children = _dedupe(children)
        return children[0] if len(children) == 1 else AndNode(tuple(children))
    if isinstance(node, OrNode):
        children = []
        for child in (flatten(c) for c in node.children):
            if isinstance(child, OrNode):
                children.extend(child.children)
            else:
                children.append(child)
        children = _dedupe(children)
        return children[0] if len(children) == 1 else OrNode(tuple(children))
    if isinstance(node, NotNode):
        return NotNode(flatten(node.child))
    return node


def _dedupe(children: list) -> list:
    seen = set()
    out = []
    for child in children:
        key = child.key() if isinstance(child, Predicate) else id(child)
        if key not in seen:
            seen.add(key)
            out.append(child)
    return out


def push_down_not(node: object) -> object:
    """Apply De Morgan's laws so NOT appears only above leaves."""
    if isinstance(node, NotNode):
        inner = node.child
        if isinstance(inner, AndNode):
            return OrNode(tuple(push_down_not(NotNode(c)) for c in inner.children))
        if isinstance(inner, OrNode):
            return AndNode(tuple(push_down_not(NotNode(c)) for c in inner.children))
        if isinstance(inner, NotNode):
            return push_down_not(inner.child)
        if isinstance(inner, ComparisonPredicate):
            return _negate_comparison(inner)
        return node
    if isinstance(node, AndNode):
        return AndNode(tuple(push_down_not(c) for c in node.children))
    if isinstance(node, OrNode):
        return OrNode(tuple(push_down_not(c) for c in node.children))
    return node


_NEGATED_OP = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


def _negate_comparison(pred: ComparisonPredicate) -> ComparisonPredicate:
    return ComparisonPredicate(pred.column, _NEGATED_OP[pred.op], pred.value)


def to_dnf(node: object, *, max_terms: int = 256) -> object:
    """Convert to disjunctive normal form: OR of ANDs of leaves.

    DNF is what Xdriver4ES targets for OR-heavy queries — each disjunct
    becomes one independently-plannable conjunction. Conversion can explode
    exponentially, so it aborts (returning the flattened input) past
    *max_terms* disjuncts, mirroring a production cost guard.
    """
    node = flatten(push_down_not(node))
    result = _dnf(node)
    if len(result) > max_terms:
        return node
    conjunctions = []
    for conj in result:
        merged = _dedupe(list(conj))
        conjunctions.append(merged[0] if len(merged) == 1 else AndNode(tuple(merged)))
    return flatten(conjunctions[0] if len(conjunctions) == 1 else OrNode(tuple(conjunctions)))


def _dnf(node: object) -> list[tuple]:
    if isinstance(node, OrNode):
        out: list[tuple] = []
        for child in node.children:
            out.extend(_dnf(child))
        return out
    if isinstance(node, AndNode):
        product: list[tuple] = [()]
        for child in node.children:
            child_terms = _dnf(child)
            product = [p + c for p in product for c in child_terms]
            if len(product) > 4096:
                # Give up early; caller falls back to the flattened tree.
                return product
        return product
    return [(node,)]


def merge_predicates(node: object) -> object:
    """Predicate merge (§3.1): combine same-column predicates.

    * ``c = v1 OR c = v2``  →  ``c IN (v1, v2)`` (also folds INs together);
    * ``c >= a AND c <= b`` →  ``c BETWEEN a AND b`` under an AND node.

    Reduces AST width before translation to ES-DSL.
    """
    if isinstance(node, OrNode):
        children = [merge_predicates(c) for c in node.children]
        merged = _merge_or_equalities(children)
        return flatten(merged[0] if len(merged) == 1 else OrNode(tuple(merged)))
    if isinstance(node, AndNode):
        children = [merge_predicates(c) for c in node.children]
        merged = _merge_and_ranges(children)
        return flatten(merged[0] if len(merged) == 1 else AndNode(tuple(merged)))
    if isinstance(node, NotNode):
        return NotNode(merge_predicates(node.child))
    return node


def _merge_or_equalities(children: list) -> list:
    by_column: dict[str, list] = {}
    passthrough = []
    for child in children:
        if isinstance(child, ComparisonPredicate) and child.op == "=":
            by_column.setdefault(child.column, []).append(child.value)
        elif isinstance(child, InPredicate):
            by_column.setdefault(child.column, []).extend(child.values)
        else:
            passthrough.append(child)
    out = list(passthrough)
    for column, values in by_column.items():
        unique = tuple(dict.fromkeys(values))
        if len(unique) == 1:
            out.append(ComparisonPredicate(column, "=", unique[0]))
        else:
            out.append(InPredicate(column, unique))
    return out


def _merge_and_ranges(children: list) -> list:
    lows: dict[str, Any] = {}
    highs: dict[str, Any] = {}
    passthrough = []
    range_columns = []
    for child in children:
        if isinstance(child, ComparisonPredicate) and child.op in (">=", "<="):
            if child.op == ">=":
                if child.column in lows:
                    lows[child.column] = max(lows[child.column], child.value)
                else:
                    lows[child.column] = child.value
                    range_columns.append(child.column)
            else:
                if child.column in highs:
                    highs[child.column] = min(highs[child.column], child.value)
                else:
                    highs[child.column] = child.value
                    if child.column not in range_columns:
                        range_columns.append(child.column)
        elif isinstance(child, BetweenPredicate):
            if child.column in lows:
                lows[child.column] = max(lows[child.column], child.low)
            else:
                lows[child.column] = child.low
                range_columns.append(child.column)
            if child.column in highs:
                highs[child.column] = min(highs[child.column], child.high)
            else:
                highs[child.column] = child.high
        else:
            passthrough.append(child)
    out = list(passthrough)
    for column in range_columns:
        low = lows.get(column)
        high = highs.get(column)
        if low is not None and high is not None:
            out.append(BetweenPredicate(column, low, high))
        elif low is not None:
            out.append(ComparisonPredicate(column, ">=", low))
        else:
            out.append(ComparisonPredicate(column, "<=", high))
    return out
