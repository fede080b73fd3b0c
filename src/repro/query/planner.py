"""Physical query plans.

A physical plan is a tree of operators over posting lists — exactly the
shape of the paper's Figures 7 and 8: leaf operators produce posting lists
(index search, composite index search, full-text match), inner operators
combine them (intersect, union), and the sequential-scan operator filters an
incoming posting list through doc values.

Plans here are *descriptive*: the executor interprets them against a
:class:`~repro.storage.engine.ShardEngine`. Keeping them as data makes the
optimizer testable (assert the plan shape) and lets benchmarks count
operator costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class PlanNode:
    """Base class for physical plan operators."""

    def describe(self, indent: int = 0) -> str:
        raise NotImplementedError

    def leaf_operators(self) -> list["PlanNode"]:
        return [self]


@dataclass(frozen=True)
class TermSearch(PlanNode):
    """Single-column inverted-index lookup (Figure 7's "Index Search")."""

    column: str
    value: Any

    def describe(self, indent: int = 0) -> str:
        return " " * indent + f"IndexSearch {self.column} = {self.value!r}"


@dataclass(frozen=True)
class TermsSearch(PlanNode):
    """Multi-value index lookup (IN list), a union of term lookups."""

    column: str
    values: tuple

    def describe(self, indent: int = 0) -> str:
        return " " * indent + f"IndexSearch {self.column} IN {self.values!r}"


@dataclass(frozen=True)
class RangeSearch(PlanNode):
    """Sorted-index range lookup on a numeric column."""

    column: str
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    def describe(self, indent: int = 0) -> str:
        lo = "(" if not self.include_low else "["
        hi = ")" if not self.include_high else "]"
        return " " * indent + f"RangeSearch {self.column} {lo}{self.low}, {self.high}{hi}"


@dataclass(frozen=True)
class TextMatch(PlanNode):
    """Analyzed full-text match on a TEXT column."""

    column: str
    text: str

    def describe(self, indent: int = 0) -> str:
        return " " * indent + f"TextMatch {self.column} ~ {self.text!r}"


@dataclass(frozen=True)
class WildcardScan(PlanNode):
    """LIKE evaluation — a scan over doc values with a compiled pattern."""

    column: str
    pattern: str

    def describe(self, indent: int = 0) -> str:
        return " " * indent + f"WildcardScan {self.column} LIKE {self.pattern!r}"


@dataclass(frozen=True)
class SubAttributeSearch(PlanNode):
    """Lookup in the sub-attribute index of the "attributes" column."""

    key: str
    value: str

    def describe(self, indent: int = 0) -> str:
        return " " * indent + f"SubAttrSearch {self.key}:{self.value}"


@dataclass(frozen=True)
class SubAttributeScan(PlanNode):
    """Fallback when a sub-attribute is not frequency-indexed: parse and scan
    the raw "attributes" doc values (the slow path Figure 18 quantifies)."""

    key: str
    value: str

    def describe(self, indent: int = 0) -> str:
        return " " * indent + f"SubAttrScan {self.key}:{self.value} (unindexed)"


@dataclass(frozen=True)
class CompositeSearch(PlanNode):
    """Composite-index search: equality prefix + optional range (Figure 8)."""

    index_name: str
    equalities: tuple  # ((column, value), ...)
    range_column: str | None = None
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    def describe(self, indent: int = 0) -> str:
        eq = ", ".join(f"{c}={v!r}" for c, v in self.equalities)
        text = f"CompositeIndexSearch {self.index_name} [{eq}]"
        if self.range_column:
            text += f" range {self.range_column} in [{self.low}, {self.high}]"
        return " " * indent + text


@dataclass(frozen=True)
class SequentialScanFilter(PlanNode):
    """Filter an input plan's posting list by scanning doc values (§5.1)."""

    child: PlanNode
    column: str
    op: str  # a comparison, "in", "between", "like", or "attr" with (key, value)
    value: Any

    def describe(self, indent: int = 0) -> str:
        head = " " * indent + f"SeqScanFilter {self.column} {self.op} {self.value!r}"
        return head + "\n" + self.child.describe(indent + 2)

    def leaf_operators(self) -> list[PlanNode]:
        return self.child.leaf_operators()


@dataclass(frozen=True)
class FullScan(PlanNode):
    """Whole-column scan — the last resort for a predicate no index answers
    (``!=``, a comparison on a KEYWORD column) when nothing narrows first."""

    column: str
    op: str
    value: Any

    def describe(self, indent: int = 0) -> str:
        return " " * indent + f"FullScan {self.column} {self.op} {self.value!r}"


@dataclass(frozen=True)
class Intersect(PlanNode):
    children: tuple

    def describe(self, indent: int = 0) -> str:
        lines = [" " * indent + "Intersect"]
        lines.extend(child.describe(indent + 2) for child in self.children)
        return "\n".join(lines)

    def leaf_operators(self) -> list[PlanNode]:
        out = []
        for child in self.children:
            out.extend(child.leaf_operators())
        return out


@dataclass(frozen=True)
class Union(PlanNode):
    children: tuple

    def describe(self, indent: int = 0) -> str:
        lines = [" " * indent + "Union"]
        lines.extend(child.describe(indent + 2) for child in self.children)
        return "\n".join(lines)

    def leaf_operators(self) -> list[PlanNode]:
        out = []
        for child in self.children:
            out.extend(child.leaf_operators())
        return out


@dataclass(frozen=True)
class Exclude(PlanNode):
    """Set difference: rows of *child* not matched by *excluded*."""

    child: PlanNode
    excluded: PlanNode

    def describe(self, indent: int = 0) -> str:
        lines = [" " * indent + "Exclude"]
        lines.append(self.child.describe(indent + 2))
        lines.append(" " * (indent + 2) + "NOT:")
        lines.append(self.excluded.describe(indent + 4))
        return "\n".join(lines)

    def leaf_operators(self) -> list[PlanNode]:
        return self.child.leaf_operators() + self.excluded.leaf_operators()


@dataclass(frozen=True)
class MatchAll(PlanNode):
    """Every live row of the shard (SELECT without WHERE)."""

    def describe(self, indent: int = 0) -> str:
        return " " * indent + "MatchAll"


@dataclass(frozen=True)
class PhysicalPlan:
    """A complete per-shard plan plus the projection/ordering envelope."""

    root: PlanNode
    columns: tuple = ("*",)
    order_by: object | None = None
    limit: int | None = None

    def describe(self) -> str:
        return self.root.describe()

    def access_path_counts(self) -> dict[str, int]:
        """Count leaf operators by type — the metric Figures 7/8 contrast."""
        counts: dict[str, int] = {}
        for leaf in self.root.leaf_operators():
            name = type(leaf).__name__
            counts[name] = counts.get(name, 0) + 1
        return counts
