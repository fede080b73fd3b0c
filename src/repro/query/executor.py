"""Plan executor: compiles a physical plan once and runs it on each shard.

:func:`compile_plan` turns a :class:`~repro.query.planner.PhysicalPlan`
into two flat tapes. The *bind* tape builds, once per statement, every
constant the plan's operators read: each engine call's arguments, each
scan's predicate (LIKE regex included), each composite search's encoded
key bounds and each sub-attribute search's index term. The *steps*, one
per operator in post-order, are what :meth:`QueryExecutor.execute` runs
on every shard a statement fans out to: an engine call or a posting-list
merge, chosen when the plan compiled, so no shard dispatches on node type
or rebuilds what its siblings share. A statement shape compiles its plan
once (:mod:`repro.query.shapes`); any other plan compiles where it is
executed.

Both tapes hold only ints, strings, numbers and tuples of them — a step
names its function by position in ``_STEPS`` — so the cyclic collector
stops tracking a compiled shape's program after a collection or two.

Every operator returns a :class:`PostingList`; the executor also keeps an
operator trace (operator name, produced list size) so tests and benchmarks
can verify plan behaviour, e.g. that Figure 8's plan produces fewer and
smaller intermediate posting lists than Figure 7's.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import PlanningError
from repro.query.optimizer import CatalogInfo
from repro.query.planner import (
    CompositeSearch,
    Exclude,
    FullScan,
    Intersect,
    MatchAll,
    PhysicalPlan,
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
from repro.storage.composite import key_bounds, leftmost
from repro.storage.document import FieldType, parse_attributes, subattribute_term
from repro.storage.engine import ShardEngine
from repro.storage.postings import PostingList


@dataclass
class ExecutionTrace:
    """Per-operator accounting for one plan execution: ``(operator,
    produced)`` per step, in the order the steps ran."""

    steps: list

    @property
    def total_postings(self) -> int:
        """Sum of intermediate posting-list sizes — the overhead metric the
        paper's optimizer reduces (large lists are what make Figure 7 slow)."""
        return sum(size for _, size in self.steps)


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


class BoundPlan:
    """A compiled plan bound to one statement: the steps each shard runs
    and the constants they read. It reads as its :class:`PhysicalPlan`
    (``root``, ``picks``, ``describe()``, ``repr``), which it rebuilds
    only when asked: ``decode(*plan)`` when *decode* is given, else *plan*
    is the plan itself."""

    __slots__ = ("steps", "constants", "_plan", "_decode")

    def __init__(self, steps: tuple, constants: list, plan, decode: Callable | None = None) -> None:
        self.steps = steps
        self.constants = constants
        self._plan = plan
        self._decode = decode

    @property
    def plan(self) -> PhysicalPlan:
        if self._decode is not None:
            self._plan = self._decode(*self._plan)
            self._decode = None
        return self._plan

    def __getattr__(self, name: str):
        return getattr(self.plan, name)

    def __repr__(self) -> str:
        return repr(self.plan)


class QueryExecutor:
    """Runs plans on one :class:`ShardEngine`."""

    __slots__ = ("engine",)

    def __init__(self, engine: ShardEngine) -> None:
        self.engine = engine

    def execute(self, plan: BoundPlan | PhysicalPlan) -> tuple[PostingList, ExecutionTrace]:
        """Run *plan*'s steps; returns the matched rows and the operator
        trace. A :class:`PhysicalPlan` is compiled and bound here first."""
        engine = self.engine
        if isinstance(plan, PhysicalPlan):
            plan = bind_plan(plan, CatalogInfo(engine.config.schema, engine.composite_indexes()))
        constants = plan.constants
        produced: list = []
        steps = []
        for step in plan.steps:
            rows = _STEPS[step[0]](engine, step, constants, produced)
            produced.append(rows)
            steps.append((step[1], len(rows)))
        return rows, ExecutionTrace(steps)


# -- compile: once per plan ---------------------------------------------------

#: Bind-tape instruction kinds besides a tuple's (``-1``, as in
#: :mod:`repro.query.shapes`' tapes): the builders of a scan's, of a
#: composite search's and of a sub-attribute search's arguments.
_TUPLE, _SCAN_ARGS, _COMPOSITE_ARGS, _SUBATTR_ARGS = -1, -2, -3, -4


def compile_plan(
    plan: PhysicalPlan, catalog: CatalogInfo, encode: Callable | None = None
) -> tuple[tuple, tuple]:
    """*plan*, planned against *catalog* (its schema and composite indexes
    are read), as ``(bind tape, steps)``. *encode(value, tape)* appends the
    instructions that build a field's value from the statement's slot
    values and returns its reference (:func:`repro.query.shapes._encode`),
    or None for a value used as is — every value, without *encode*.
    Raises :class:`PlanningError` for an operator no step runs."""
    compiler = _Compiler(catalog, encode or (lambda value, tape: None))
    compiler.node(plan.root)
    return tuple(compiler.tape), tuple(compiler.steps)


def bind_plan(plan: PhysicalPlan, catalog: CatalogInfo) -> BoundPlan:
    """Compile *plan*, which holds its values, and bind it to them."""
    tape, steps = compile_plan(plan, catalog)
    constants = [
        fields if kind == _TUPLE else BUILDERS[kind](*fields) for kind, fields, _ in tape
    ]
    return BoundPlan(steps, constants, plan)


class _Compiler:
    def __init__(self, catalog: CatalogInfo, encode: Callable) -> None:
        self.schema = catalog.schema
        self.indexes = {"_".join(columns): tuple(columns) for columns in catalog.composite_indexes}
        self.encode = encode
        self.tape: list = []
        self.steps: list = []

    def node(self, node) -> int:
        """Append the steps of *node*'s subtree, children first; returns
        the position of its own step."""
        kind = type(node)
        if kind is SequentialScanFilter:
            child = self.node(node.child)
            step = (_SCAN, child, self.constant(_SCAN_ARGS, node.column, node.op, node.value))
        elif kind is Intersect or kind is Union:
            children = tuple(self.node(child) for child in node.children)
            step = (_INTERSECT if kind is Intersect else _UNION, children)
        elif kind is Exclude:
            step = (_EXCLUDE, self.node(node.child), self.node(node.excluded))
        elif kind is MatchAll:
            step = (_MATCH_ALL,)
        elif kind is TermsSearch:
            calls = [self.term(node.column, value) for value in node.values]
            method = calls[0][0] if calls else "term_postings"
            step = (_CALLS, method, tuple(arguments for _, arguments in calls))
        else:
            step = (_CALL, *self.call(node))
        self.steps.append((step[0], kind.__name__, *step[1:]))
        return len(self.steps) - 1

    def call(self, node) -> tuple[str, int]:
        """The engine method that answers the leaf *node*, and the position
        of its arguments in the bind tape."""
        kind, constant = type(node), self.constant
        if kind is TermSearch:
            return self.term(node.column, node.value)
        if kind is RangeSearch:
            return "numeric_range", constant(
                _TUPLE, node.column, node.low, node.high, node.include_low, node.include_high
            )
        if kind is TextMatch:
            return "text_postings", constant(_TUPLE, node.column, node.text)
        if kind is SubAttributeSearch:
            return "subattribute_postings", constant(_SUBATTR_ARGS, node.key, node.value)
        if kind is FullScan:
            return "full_scan", constant(_SCAN_ARGS, node.column, node.op, node.value)
        if kind is WildcardScan:
            return "full_scan", constant(_SCAN_ARGS, node.column, "like", node.pattern)
        if kind is SubAttributeScan:
            return "full_scan", constant(_SCAN_ARGS, "attributes", "attr", (node.key, node.value))
        if kind is CompositeSearch:
            # The catalog knows the index's columns; an index it does not
            # know is keyed by the columns the search names.
            named = tuple(column for column, _ in node.equalities) + (
                (node.range_column,) if node.range_column is not None else ()
            )
            columns = self.indexes.get(node.index_name, named)
            prefix = leftmost(columns, dict(node.equalities), node.range_column)
            return "composite_search", constant(
                _COMPOSITE_ARGS, node.index_name, tuple(prefix), node.range_column is not None,
                node.low, node.high, node.include_low, node.include_high,
            )
        raise PlanningError(f"executor has no operator for {kind.__name__}")

    def term(self, column: str, value) -> tuple[str, int]:
        if self.schema.type_of(column) is FieldType.NUMERIC:
            return "numeric_range", self.constant(_TUPLE, column, value, value)
        return "term_postings", self.constant(_TUPLE, column, value)

    def constant(self, kind: int, *items) -> int:
        """Append the instruction that builds ``kind(*items)`` per statement;
        returns its position in the bind tape."""
        fields, refs = list(items), []
        for position, item in enumerate(items):
            reference = self.encode(item, self.tape)
            if reference is not None:
                fields[position] = None
                refs += (position, reference)
        self.tape.append((kind, tuple(fields), tuple(refs)))
        return len(self.tape) - 1


# -- bind: once per statement -------------------------------------------------

def _scan_args(column: str, op: str, value: Any) -> tuple:
    return column, _scan_predicate(op, value)


def _composite_args(index_name: str, *request) -> tuple:
    return index_name, key_bounds(*request)


def _subattr_args(key: str, value: str) -> tuple:
    return key, value, subattribute_term(key, value)


#: The builder of each bind-tape kind but a tuple's.
BUILDERS = {
    _SCAN_ARGS: _scan_args, _COMPOSITE_ARGS: _composite_args, _SUBATTR_ARGS: _subattr_args,
}


def _scan_predicate(op: str, value: Any):
    """The doc-values predicate for one scan operator. Every one is false for
    a missing value (SQL's NULL rule), on a scan over candidates and on a
    whole-shard scan alike. ``"not <op>"`` negates *op* over the rows that
    hold a value; ``"exists"`` is those rows."""
    if op == "exists":
        return lambda v: v is not None
    if op == "not attr":
        key, wanted = value
        # ATTR(key) of a row without the sub-attribute is NULL too.
        return lambda v: v is not None and parse_attributes(str(v)).get(key, wanted) != wanted
    if op.startswith("not "):
        matches = _scan_predicate(op[4:], value)
        return lambda v: v is not None and not matches(v)
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


# -- run: once per shard ------------------------------------------------------
# A step is ``(function, operator, operands...)``; *produced* holds the rows
# of the steps before it, which its child operands index.

def _call(engine, step, constants, produced):
    return getattr(engine, step[2])(*constants[step[3]])


def _calls(engine, step, constants, produced):
    read = getattr(engine, step[2])
    return PostingList.union_all([read(*constants[i]) for i in step[3]])


def _scan(engine, step, constants, produced):
    column, predicate = constants[step[3]]
    return engine.scan_filter(column, produced[step[2]], predicate)


def _intersect(engine, step, constants, produced):
    return PostingList.intersect_all([produced[i] for i in step[2]])


def _union(engine, step, constants, produced):
    return PostingList.union_all([produced[i] for i in step[2]])


def _exclude(engine, step, constants, produced):
    return produced[step[2]].difference(produced[step[3]])


def _match_all(engine, step, constants, produced):
    return PostingList.union_all([
        segment.filter_live(PostingList(segment.row_ids(), presorted=True))
        for segment in engine.segments
    ])


_STEPS = (_call, _calls, _scan, _intersect, _union, _exclude, _match_all)
_CALL, _CALLS, _SCAN, _INTERSECT, _UNION, _EXCLUDE, _MATCH_ALL = range(len(_STEPS))
