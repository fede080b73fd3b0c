"""The rule-based optimizer (RBO) of §5.1.

For AND-connected predicates the RBO ranks access paths:

1. **Composite index** — when equality predicates cover a leftmost prefix of
   some composite index, pick the longest match; a range predicate on the
   next index column folds into the same search.
2. **Sequential scan** — remaining predicates on columns in the *scan list*
   become :class:`SequentialScanFilter` operators layered on the chosen
   index plan (cheap: they only touch rows already selected). So does any
   predicate that has no index at all (a comparison on a KEYWORD column,
   ``!=``, ``LIKE``, an unindexed sub-attribute, a ``NOT`` over ``IN``,
   ``BETWEEN``, ``LIKE`` or ``ATTR``): it is scanned over the
   rows the other parts selected, never over the shard (Figure 8). And so
   does a range on a NUMERIC column once a composite search leads: its
   index search would sort every match in the shard by row id.
3. **Single-column index** — everything else gets its own index search and
   is intersected (the Lucene/Figure-7 default).

OR branches are planned independently and unioned. With the optimizer
disabled, every predicate becomes a single-column access — exactly
Lucene's rigid plan — which is what Figure 17's "without optimizer" baseline
measures. A whole-shard scan therefore remains only where nothing narrows
first: at the plan root, under a ``Union``, or with the optimizer off.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from repro.errors import PlanningError
from repro.query.ast import (
    AndNode,
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    LikePredicate,
    MatchPredicate,
    NotNode,
    OrNode,
    Predicate,
    SelectStatement,
    SubAttributePredicate,
    flatten,
    push_down_not,
)
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
from repro.storage.document import FieldType, Schema
from repro.telemetry.runtime import NULL_TELEMETRY


class AccessPath(enum.Enum):
    """The three access paths the RBO ranks (§5.1)."""

    COMPOSITE_INDEX = "composite-index"
    SEQUENTIAL_SCAN = "sequential-scan"
    SINGLE_COLUMN_INDEX = "single-column-index"


@dataclass(frozen=True)
class CatalogInfo:
    """What the optimizer knows about a shard's indexes.

    Attributes:
        schema: field types.
        composite_indexes: tuples of column names, one per composite index.
        scan_columns: the scan list (low-cardinality columns suited to
            sequential scan over doc values).
        indexed_subattributes: frequency-indexed sub-attribute names, or None
            when every sub-attribute is indexed.
    """

    schema: Schema
    composite_indexes: tuple = ()
    scan_columns: frozenset = frozenset()
    indexed_subattributes: frozenset | None = None


class RuleBasedOptimizer:
    """Builds :class:`PhysicalPlan` trees from rewritten SELECT statements."""

    def __init__(
        self, catalog: CatalogInfo, *, enabled: bool = True, telemetry=None
    ) -> None:
        self.catalog = catalog
        self.enabled = enabled
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        metrics = self.telemetry.metrics
        self._pick_counters = {
            path: metrics.counter("optimizer_plan_picks_total", path=path.value)
            for path in AccessPath
        }

    def plan(self, statement: SelectStatement) -> PhysicalPlan:
        """Plan one statement (whose WHERE tree Xdriver4ES already rewrote)."""
        picks: list[AccessPath] = []
        if statement.where is None:
            root: PlanNode = MatchAll()
        else:
            root = self._plan_node(flatten(statement.where), picks)
        plan = PhysicalPlan(
            root=root,
            columns=statement.columns,
            order_by=statement.order_by,
            limit=statement.limit,
            picks=tuple(Counter(picks).items()),
        )
        self.count_picks(plan.picks)
        return plan

    def count_picks(self, picks: tuple) -> None:
        """Add one plan's :attr:`~PhysicalPlan.picks` to
        ``optimizer_plan_picks_total``."""
        for path, count in picks:
            self._pick_counters[path].inc(count)

    # -- recursive planning ----------------------------------------------------
    def _plan_node(self, node: object, picks: list) -> PlanNode:
        if isinstance(node, OrNode):
            return Union(tuple(self._plan_node(child, picks) for child in node.children))
        if isinstance(node, AndNode):
            return self._plan_conjunction(list(node.children), picks)
        return self._plan_conjunction([node], picks)

    def _plan_conjunction(self, predicates: list, picks: list) -> PlanNode:
        """Plan AND-connected predicates with the three-path ranking."""
        # De Morgan until every NOT sits on a leaf no comparison negates;
        # such a negated leaf is planned as one more leaf (see _scan_terms).
        predicates = [push_down_not(p) if isinstance(p, NotNode) else p for p in predicates]
        nested = [p for p in predicates if isinstance(p, (AndNode, OrNode))]
        leaves = [p for p in predicates if not isinstance(p, (AndNode, OrNode))]
        parts: list[PlanNode] = [self._plan_node(n, picks) for n in nested]

        if not self.enabled:
            for p in leaves:
                picks.append(AccessPath.SINGLE_COLUMN_INDEX)
                parts.append(self._single_column_plan(p))
            return _combine_intersect(parts)

        remaining = list(leaves)
        base: PlanNode | None = None

        composite_pick = self._pick_composite(remaining)
        if composite_pick is not None:
            base, used = composite_pick
            remaining = [p for p in remaining if p not in used]
            picks.append(AccessPath.COMPOSITE_INDEX)

        if base is not None:
            parts.append(base)
        scan_predicates = []
        whole_shard = []  # (predicate, plan) whose only access path walks the shard
        for p in remaining:
            if self._scannable(p) or (base is not None and self._numeric_range(p)):
                scan_predicates.append(p)
                continue
            part = self._single_column_plan(p)
            if isinstance(part, _WHOLE_SHARD_SCANS):
                whole_shard.append((p, part))
            else:
                picks.append(AccessPath.SINGLE_COLUMN_INDEX)
                parts.append(part)
        # Cheapest per row first: a comparison, then a pattern, then a parse.
        whole_shard.sort(key=lambda pair: _WHOLE_SHARD_SCANS.index(type(pair[1])))
        if whole_shard and not parts:
            # Nothing narrows first: one predicate has to walk the shard.
            picks.append(AccessPath.SINGLE_COLUMN_INDEX)
            parts.append(whole_shard.pop(0)[1])
        plan = _combine_intersect(parts)

        # Layer sequential scans over the selected rows — cheapest last stage:
        # the scan list first, then the predicates that have no index (Fig 8).
        for predicate in scan_predicates + [p for p, _ in whole_shard]:
            picks.append(AccessPath.SEQUENTIAL_SCAN)
            plan = SequentialScanFilter(plan, *_scan_terms(predicate))
        return plan

    # -- composite index selection ------------------------------------------------
    def _pick_composite(self, predicates: list):
        """Return ``(CompositeSearch, used_predicates)`` for the longest-match
        composite index, or None when no index is applicable."""
        equalities: dict[str, Predicate] = {}
        ranges: dict[str, Predicate] = {}
        for predicate in predicates:
            if isinstance(predicate, ComparisonPredicate) and predicate.op == "=":
                equalities.setdefault(predicate.column, predicate)
            elif isinstance(predicate, BetweenPredicate):
                ranges.setdefault(predicate.column, predicate)
            elif isinstance(predicate, ComparisonPredicate) and predicate.op in (
                "<",
                "<=",
                ">",
                ">=",
            ):
                ranges.setdefault(predicate.column, predicate)

        best = None
        best_score = (0, 0)  # (equality match length, has range)
        for columns in self.catalog.composite_indexes:
            match_len = 0
            for column in columns:
                if column in equalities:
                    match_len += 1
                else:
                    break
            if match_len == 0:
                continue
            range_column = None
            if match_len < len(columns) and columns[match_len] in ranges:
                range_column = columns[match_len]
            score = (match_len, 1 if range_column else 0)
            if score > best_score:
                best_score = score
                best = (columns, match_len, range_column)
        if best is None:
            return None

        columns, match_len, range_column = best
        used: list[Predicate] = [equalities[c] for c in columns[:match_len]]
        eq_pairs = tuple((c, equalities[c].value) for c in columns[:match_len])
        low = high = None
        include_low = include_high = True
        if range_column is not None:
            range_pred = ranges[range_column]
            used.append(range_pred)
            if isinstance(range_pred, BetweenPredicate):
                low, high = range_pred.low, range_pred.high
            else:
                if range_pred.op in (">", ">="):
                    low = range_pred.value
                    include_low = range_pred.op == ">="
                else:
                    high = range_pred.value
                    include_high = range_pred.op == "<="
        search = CompositeSearch(
            index_name="_".join(columns),
            equalities=eq_pairs,
            range_column=range_column,
            low=low,
            high=high,
            include_low=include_low,
            include_high=include_high,
        )
        return search, used

    # -- sequential scan ------------------------------------------------------------
    def _scannable(self, predicate) -> bool:
        if isinstance(predicate, NotNode):
            predicate = predicate.child
        if isinstance(predicate, SubAttributePredicate):
            return False
        if isinstance(predicate, MatchPredicate):
            return False
        return predicate.column in self.catalog.scan_columns

    def _numeric_range(self, predicate: Predicate) -> bool:
        """A range over a NUMERIC column. Its index search sorts every match
        in the shard by row id, so under a composite search it is compared
        over the rows that search selected instead."""
        if isinstance(predicate, ComparisonPredicate):
            if predicate.op not in ("<", "<=", ">", ">="):
                return False
        elif not isinstance(predicate, BetweenPredicate):
            return False
        return self.catalog.schema.type_of(predicate.column) is FieldType.NUMERIC

    # -- single-column paths -----------------------------------------------------------
    def _single_column_plan(self, predicate) -> PlanNode:
        schema = self.catalog.schema
        if isinstance(predicate, NotNode):
            child = predicate.child
            if isinstance(child, MatchPredicate):
                # No doc-values scan analyzes text: the rows that hold the
                # column, minus the matches.
                present = FullScan(child.column, "exists", None)
                return Exclude(present, self._single_column_plan(child))
            return FullScan(*_scan_terms(predicate))
        if isinstance(predicate, SubAttributePredicate):
            allowed = self.catalog.indexed_subattributes
            if allowed is None or predicate.key_name in allowed:
                return SubAttributeSearch(predicate.key_name, predicate.value)
            return SubAttributeScan(predicate.key_name, predicate.value)
        if isinstance(predicate, MatchPredicate):
            return TextMatch(predicate.column, predicate.text)
        if isinstance(predicate, LikePredicate):
            return WildcardScan(predicate.column, predicate.pattern)
        if isinstance(predicate, InPredicate):
            return TermsSearch(predicate.column, predicate.values)
        if isinstance(predicate, BetweenPredicate):
            if schema.type_of(predicate.column) is not FieldType.NUMERIC:
                return FullScan(predicate.column, "between", (predicate.low, predicate.high))
            return RangeSearch(predicate.column, predicate.low, predicate.high)
        if isinstance(predicate, ComparisonPredicate):
            ftype = schema.type_of(predicate.column)
            if predicate.op == "=":
                if ftype is FieldType.NUMERIC:
                    return RangeSearch(predicate.column, predicate.value, predicate.value)
                return TermSearch(predicate.column, predicate.value)
            if predicate.op == "!=" or ftype is not FieldType.NUMERIC:
                # No index answers these. ``!=`` is a scan on every path so
                # that it has one NULL rule (SQL's: a row lacking the column
                # does not match), which ``all rows minus the term`` broke.
                return FullScan(predicate.column, predicate.op, predicate.value)
            low = high = None
            include_low = include_high = True
            if predicate.op in (">", ">="):
                low = predicate.value
                include_low = predicate.op == ">="
            else:
                high = predicate.value
                include_high = predicate.op == "<="
            return RangeSearch(
                predicate.column,
                low,
                high,
                include_low=include_low,
                include_high=include_high,
            )
        raise PlanningError(f"no access path for {type(predicate).__name__}")


def _scan_terms(predicate) -> tuple:
    """``(column, op, value)`` of the doc-values scan that evaluates
    *predicate* (:func:`~repro.query.executor._scan_predicate`). A negated
    leaf scans with ``"not <op>"``, which, like ``!=``, keeps only rows that
    hold the column (SQL's NULL rule)."""
    if isinstance(predicate, NotNode):
        column, op, value = _scan_terms(predicate.child)
        return column, "not " + op, value
    if isinstance(predicate, ComparisonPredicate):
        return predicate.column, predicate.op, predicate.value
    if isinstance(predicate, BetweenPredicate):
        return predicate.column, "between", (predicate.low, predicate.high)
    if isinstance(predicate, InPredicate):
        return predicate.column, "in", predicate.values
    if isinstance(predicate, LikePredicate):
        return predicate.column, "like", predicate.pattern
    if isinstance(predicate, SubAttributePredicate):
        return predicate.column, "attr", (predicate.key_name, predicate.value)
    raise PlanningError(f"cannot scan-filter {type(predicate).__name__}")


#: Access paths that evaluate a predicate over every row of the shard, in
#: ascending order of what one row costs.
_WHOLE_SHARD_SCANS = (FullScan, WildcardScan, SubAttributeScan)


def _combine_intersect(parts: list[PlanNode]) -> PlanNode:
    if not parts:
        return MatchAll()
    if len(parts) == 1:
        return parts[0]
    return Intersect(tuple(parts))
