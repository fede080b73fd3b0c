"""Statement shapes: compile a statement's template once, bind its literals
per call.

Applications generate their statements from a handful of templates (§5.1):
two statements of one template differ only in the literals of their WHERE
clauses. :func:`lift` splits a statement into its *shape* — the text with
each WHERE literal replaced by a slot of the literal's kind — and those
literals. The first statement of a shape is parsed, and its WHERE values
are replaced by slots (:func:`slot_where`) before it is rewritten and
planned; the resulting :class:`Shape` binds every later statement's literals
into that rewritten statement and into the plan's compiled program
(:mod:`repro.query.executor`), so parse, rewrite, plan and compile do not
run again.

What stays in the shape (so it selects the compiled template rather than
being bound into it):

* everything outside the WHERE clause — projection, ``GROUP BY``,
  ``HAVING`` and ``LIMIT``, literals included — and the keys of ``ATTR``;
* column names, operators, the length of each ``IN`` list and each
  literal's kind (int, float or string).

A template is value-independent only when the WHERE clause names each
column in one predicate (an ``ATTR`` key counting as its own column) and no
``IN`` list repeats a value: otherwise the rewrite compares values — it
drops duplicate predicates, merges ``=`` into ``IN`` and folds ranges — and
:func:`slot_where` declines the statement, which is then compiled on every
call.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import fields, is_dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.query import ast as query_ast
from repro.query import planner
from repro.query.ast import (
    AndNode,
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    LikePredicate,
    MatchPredicate,
    NotNode,
    OrNode,
    SelectStatement,
    SubAttributePredicate,
    iter_predicates,
)
from repro.query.executor import BUILDERS, BoundPlan, compile_plan
from repro.query.planner import PhysicalPlan
from repro.query.sql_parser import literal_value, unquote

if TYPE_CHECKING:
    from repro.query.optimizer import CatalogInfo

#: Most shapes one instance keeps compiled; the least recently used goes.
MAX_SHAPES = 512

_WORD_END = r"(?![A-Za-z0-9_.])"
#: A string or number literal, as the parser's lexer reads one: a number
#: never starts inside a word (``col1``), but ``-`` always starts one.
#: (Each alternative starts with a character class, so the engine skips
#: ahead to candidates.)
_LITERAL_RE = re.compile(r"('(?:[^']|'')*'|-\d+(?:\.\d+)?|\d(?<![A-Za-z0-9_.]\d)\d*(?:\.\d+)?)")
#: ``FROM <table> WHERE``: the one place the parser reads a WHERE keyword.
_WHERE_RE = re.compile(
    r"(?<![A-Za-z0-9_.])from\s+[A-Za-z_][A-Za-z0-9_.]*\s+where" + _WORD_END, re.IGNORECASE
)
#: What ends a WHERE clause. A predicate ends in a literal or ``)``, and
#: only there does the parser read one of these words as a keyword rather
#: than as a column named ``limit``.
_WHERE_END_RE = re.compile(
    r"(?:^|\))\s*(?:group\s+by|having|order\s+by|limit)" + _WORD_END, re.IGNORECASE
)
_ATTR_KEY_RE = re.compile(r"(?<![A-Za-z0-9_.])attr\s*\(\s*$", re.IGNORECASE)


def lift(sql: str) -> tuple[tuple, list[str]]:
    """Split *sql* into its shape and its WHERE literals, as written.

    The shape is the tuple of the text's pieces between literals, with each
    WHERE literal replaced by ``?s``, ``?i`` or ``?f`` (string, int,
    float); every other literal stays as written."""
    pieces = _LITERAL_RE.split(sql)  # literals at the odd positions
    literals = []
    in_where = False
    for i in range(1, len(pieces), 2):
        before = pieces[i - 1]
        if in_where:
            end = _WHERE_END_RE.search(before)
        else:
            start = _WHERE_RE.search(before)
            if start is None:
                continue
            in_where = True
            # From a later position "^" never matches: right after WHERE
            # the word is a column.
            end = _WHERE_END_RE.search(before, start.end())
        if end is not None:
            break
        literal = pieces[i]
        if literal[0] == "'":
            if before.rstrip().endswith("(") and _ATTR_KEY_RE.search(before):
                continue  # ATTR('key') names a column
            pieces[i] = "?s"
        else:
            pieces[i] = "?f" if "." in literal else "?i"
        literals.append(literal)
    return tuple(pieces), literals


class _Slot:
    """Stands in for the value of the WHERE literal at ``index`` while a
    shape is rewritten and planned."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"?{self.index}"


def _attr_value(literal: str) -> str:
    return str(literal_value(literal))


#: The fields of each leaf that hold a WHERE literal, and the conversion
#: the parser applies to that literal (an ``IN`` list holds its own).
_LEAF_LITERALS: dict[type, tuple[tuple[str, ...], Callable]] = {
    ComparisonPredicate: (("value",), literal_value),
    BetweenPredicate: (("low", "high"), literal_value),
    LikePredicate: (("pattern",), unquote),
    MatchPredicate: (("text",), unquote),
    SubAttributePredicate: (("value",), _attr_value),
}


class _ValueDependent(Exception):
    """The statement's rewrite would depend on its values."""


class SlottedStatement:
    """A parsed statement whose WHERE values are slots, with the conversion
    of each slot's literal and the slot ranges that form ``IN`` lists."""

    def __init__(self, statement: SelectStatement, literals: list[str]) -> None:
        self._literals = literals
        self.converters: list[Callable] = []
        self.in_lists: list[tuple[int, int]] = []
        self._columns: set = set()
        self.statement = replace(statement, where=self._node(statement.where))
        if len(self.converters) != len(literals):
            raise _ValueDependent

    def _slot(self, convert: Callable) -> _Slot:
        index = len(self.converters)
        if index >= len(self._literals):
            raise _ValueDependent  # the parser read more values than the lift
        self.converters.append(convert)
        return _Slot(index)

    def _node(self, node):
        if node is None:
            return None
        if isinstance(node, (AndNode, OrNode)):
            return type(node)(tuple(self._node(child) for child in node.children))
        if isinstance(node, NotNode):
            return NotNode(self._node(node.child))
        column = (
            ("attr", node.key_name) if isinstance(node, SubAttributePredicate) else node.column
        )
        if column in self._columns:
            raise _ValueDependent  # the one-column rule
        self._columns.add(column)
        if isinstance(node, InPredicate):
            if len(set(node.values)) < len(node.values):
                raise _ValueDependent
            start = len(self.converters)
            values = tuple(self._slot(literal_value) for _ in node.values)
            self.in_lists.append((start, len(self.converters)))
            return replace(node, values=values)
        names, convert = _LEAF_LITERALS[type(node)]
        return replace(node, **{name: self._slot(convert) for name in names})


def slot_where(statement: SelectStatement, literals: list[str]) -> SlottedStatement | None:
    """*statement* (parsed from SQL whose :func:`lift` gave *literals*) with
    every WHERE value replaced by its slot, in the order the parser read
    them, or None when its rewrite would depend on the values — a column
    named in two predicates, an ``IN`` list repeating a value — or when the
    parser read a different number of WHERE values than the lift."""
    try:
        return SlottedStatement(statement, literals)
    except _ValueDependent:
        return None


#: Every node class a statement or plan is built from. A tape names a
#: node's class by its position here, so that it holds nothing but ints,
#: strings, numbers and tuples of them.
_NODE_TYPES = tuple(
    cls
    for module in (query_ast, planner)
    for cls in vars(module).values()
    if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == module.__name__
)
_NODE_KINDS = {cls: kind for kind, cls in enumerate(_NODE_TYPES)}
_NODE_FIELDS = tuple(tuple(f.name for f in fields(cls)) for cls in _NODE_TYPES)
_TUPLE = -1  # a tuple's kind; the other negative kinds are compiled plans' BUILDERS


def _encode(node, tape: list) -> int | None:
    """Append the instructions that rebuild *node* to *tape*, children
    first, and return the reference to its value: ``i >= 0`` for slot
    ``i``, ``~k`` for what instruction ``k`` builds. None when no slot lies
    under *node*: it is then used as is.

    An instruction is ``(kind, fields, refs)``: the node's class (its
    position in ``_NODE_TYPES``, or ``_TUPLE``), its fields with None where
    a slot lies under one, and ``(position, reference, ...)`` for those. A
    tape is flat and holds only ints, strings, numbers and shallow tuples of
    them, which the cyclic collector stops tracking after a collection or
    two. So a compiled shape adds a few objects to what every full
    collection walks, not several per template node (8 against 130 per
    shape of the benchmark's ``query_cold`` statements, when each node kept
    a closure)."""
    if isinstance(node, _Slot):
        return node.index
    if isinstance(node, tuple):
        kind, items = _TUPLE, node
    elif type(node) in _NODE_KINDS:
        kind = _NODE_KINDS[type(node)]
        items = tuple(getattr(node, name) for name in _NODE_FIELDS[kind])
    else:
        return None  # a value
    refs: list[int] = []
    for position, item in enumerate(items):
        reference = _encode(item, tape)
        if reference is not None:
            refs += (position, reference)
    if not refs:
        return None
    fields_ = list(items)
    for position in refs[::2]:
        fields_[position] = None
    tape.append((kind, tuple(fields_), tuple(refs)))
    return ~(len(tape) - 1)


def _run(tape: tuple, values: list) -> list:
    """Run *tape* (:func:`_encode`, or a compiled plan's bind tape,
    :func:`~repro.query.executor.compile_plan`) with the slot *values*:
    what each instruction builds, in order."""
    built: list = []
    for kind, fields_, refs in tape:
        items = list(fields_)
        for i in range(0, len(refs), 2):
            reference = refs[i + 1]
            items[refs[i]] = values[reference] if reference >= 0 else built[~reference]
        if kind < 0:
            built.append(tuple(items) if kind == _TUPLE else BUILDERS[kind](*items))
            continue
        # The fields were validated when the shape compiled, so the node is
        # filled in directly rather than through its (frozen) constructor.
        node = object.__new__(_NODE_TYPES[kind])
        node.__dict__.update(zip(_NODE_FIELDS[kind], items))
        built.append(node)
    return built


def _decode(template, values: list):
    """What a shape keeps of a node (:func:`_template`), rebuilt with the
    slot *values*."""
    return _run(template, values)[-1] if isinstance(template, tuple) else template


def _template(node) -> tuple | object:
    """What a shape keeps of *node*: the tape that rebuilds it, or *node*
    itself when it holds no slot."""
    tape: list = []
    return node if _encode(node, tape) is None else tuple(tape)


class Shape:
    """One compiled shape: the rewritten statement and plan built from its
    :class:`SlottedStatement`, kept as tapes, and the plan compiled
    (:func:`~repro.query.executor.compile_plan`) against the catalog it was
    planned with. :meth:`bind` rebuilds the statement and the plan's
    constants per call; the plan itself only when asked.

    Attributes:
        label: the shape's text, for spans.
        picks: the access paths planning chose (re-counted per bind).
        subattrs: the ``ATTR`` keys the rewritten statement filters on.
    """

    __slots__ = (
        "label", "picks", "subattrs", "_converters", "_in_lists", "_statement", "_plan",
        "_program",
    )

    def __init__(
        self,
        key: tuple,
        slotted: SlottedStatement,
        statement: SelectStatement,
        plan: PhysicalPlan,
        catalog: CatalogInfo,
    ) -> None:
        self.label = "".join(key)
        self.picks = plan.picks
        self.subattrs = subattribute_keys(statement.where)
        self._converters = tuple(slotted.converters)
        self._in_lists = tuple(slotted.in_lists)
        self._statement = _template(statement)
        self._plan = _template(plan)
        self._program = compile_plan(plan, catalog, _encode)

    def bind(self, literals: list[str]) -> tuple[SelectStatement, BoundPlan] | None:
        """The rewritten statement and bound plan of the statement whose
        WHERE literals are *literals*, or None when its ``IN`` lists repeat a
        value (compile it). A literal the parser cannot convert raises as the
        parser does."""
        values = [convert(literal) for convert, literal in zip(self._converters, literals)]
        for start, stop in self._in_lists:
            if len(set(values[start:stop])) < stop - start:
                return None
        tape, steps = self._program
        plan = BoundPlan(steps, _run(tape, values), (self._plan, values), _decode)
        return _decode(self._statement, values), plan


class ShapeMap:
    """One instance's compiled shapes — at most :data:`MAX_SHAPES`, the
    least recently bound evicted — and the counters of what each statement
    met: ``query_shapes_total{outcome="bind"|"compile"|"unstable"}`` and
    ``query_shape_evictions_total``."""

    def __init__(self, metrics) -> None:
        self._shapes: OrderedDict[tuple, Shape] = OrderedDict()
        self._outcomes = {
            outcome: metrics.counter("query_shapes_total", outcome=outcome)
            for outcome in ("bind", "compile", "unstable")
        }
        self._evictions = metrics.counter("query_shape_evictions_total")

    def __len__(self) -> int:
        return len(self._shapes)

    def bind(
        self, key: tuple, literals: list[str], tracer
    ) -> tuple[SelectStatement, PhysicalPlan, Shape] | None:
        """The rewritten statement and plan of shape *key* bound to
        *literals*, in one ``query.bind`` span, and the shape; None when the
        shape is not compiled or these literals do not bind."""
        shape = self._shapes.get(key)
        if shape is None:
            return None
        with tracer.span("query.bind", shape=shape.label):
            bound = shape.bind(literals)
        if bound is None:
            return None
        self._shapes.move_to_end(key)
        self._outcomes["bind"].inc()
        return (*bound, shape)

    def add(self, key: tuple, shape: Shape) -> Shape:
        """Keep a freshly compiled *shape*; returns it."""
        while len(self._shapes) >= MAX_SHAPES:
            self._shapes.popitem(last=False)
            self._evictions.inc()
        self._shapes[key] = shape
        self._outcomes["compile"].inc()
        return shape

    def count_unstable(self) -> None:
        """A statement :func:`slot_where` declined was compiled."""
        self._outcomes["unstable"].inc()

    def clear(self) -> None:
        self._shapes.clear()


def subattribute_keys(where: object) -> tuple[str, ...]:
    """The ``ATTR`` keys a WHERE tree filters on, one per predicate."""
    return tuple(
        p.key_name for p in iter_predicates(where) if isinstance(p, SubAttributePredicate)
    )
