"""SQL parser for the supported SFW subset.

Supports the statement shape the paper's workloads use::

    SELECT col1, col2 | *
    FROM table
    WHERE <predicates combined with AND/OR/NOT, parenthesized>
    [ORDER BY col [ASC|DESC]]
    [LIMIT n]

Predicates: ``=, !=, <>, <, <=, >, >=``, ``BETWEEN a AND b``,
``IN (v, ...)``, ``LIKE 'pattern'``, ``MATCH(col, 'text')`` (full-text) and
``ATTR(key) = 'value'`` (sub-attribute filter). Values are integers, floats
and single-quoted strings; timestamp strings like ``'2021-09-16 00:00:00'``
are converted to epoch seconds so they compare numerically with the
``created_time`` column.
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass
from typing import Any

from repro.errors import SqlSyntaxError, UnsupportedSqlError
from repro.query.ast import (
    AggregateProjection,
    AndNode,
    BetweenPredicate,
    ComparisonPredicate,
    FunctionProjection,
    InPredicate,
    LikePredicate,
    MatchPredicate,
    NotNode,
    OrderBy,
    OrNode,
    SelectStatement,
    SubAttributePredicate,
)

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<string>'(?:[^']|'')*')"
    r"|(?P<number>-?\d+(?:\.\d+)?)"
    r"|(?P<op><>|<=|>=|!=|=|<|>)"
    r"|(?P<punct>[(),*])"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_.]*)"
    r")"
)

_TIMESTAMP_RE = re.compile(r"^\d{4}-\d{2}-\d{2}(?: \d{2}:\d{2}:\d{2})?$")

_AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})
_SCALAR_FUNCS = frozenset({"ifnull", "date_format"})

# Words that can never be a projected column name. "group" is excluded on
# purpose: the transaction-log template has a column literally named group.
_RESERVED_IN_PROJECTION = frozenset(
    "select from where and or not between in like order by asc desc limit having".split()
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "string" | "number" | "op" | "punct" | "word" | "eof"
    value: str
    position: int


def _lex(sql: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            remainder = sql[pos:].strip()
            if not remainder:
                break
            raise SqlSyntaxError(f"cannot tokenize SQL at position {pos}: {remainder[:20]!r}")
        pos = match.end()
        for kind in ("string", "number", "op", "punct", "word"):
            value = match.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value, match.start()))
                break
    tokens.append(_Token("eof", "", len(sql)))
    return tokens


def timestamp_to_epoch(text: str) -> float:
    """Convert ``YYYY-MM-DD [HH:MM:SS]`` to epoch seconds (UTC)."""
    fmt = "%Y-%m-%d %H:%M:%S" if " " in text else "%Y-%m-%d"
    moment = _dt.datetime.strptime(text, fmt).replace(tzinfo=_dt.timezone.utc)
    return moment.timestamp()


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, sql: str) -> None:
        self._sql = sql
        self._tokens = _lex(sql)
        self._index = 0

    # -- token helpers -------------------------------------------------------
    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def _expect_word(self, word: str) -> None:
        token = self._advance()
        if token.kind != "word" or token.value.lower() != word:
            raise SqlSyntaxError(
                f"expected {word.upper()!r} at position {token.position}, got {token.value!r}"
            )

    def _expect_punct(self, punct: str) -> None:
        token = self._advance()
        if token.kind != "punct" or token.value != punct:
            raise SqlSyntaxError(
                f"expected {punct!r} at position {token.position}, got {token.value!r}"
            )

    def _at_word(self, word: str) -> bool:
        token = self._peek()
        return token.kind == "word" and token.value.lower() == word

    # -- grammar ------------------------------------------------------------------
    def parse(self) -> SelectStatement:
        self._expect_word("select")
        columns = self._parse_projection()
        self._expect_word("from")
        table_token = self._advance()
        if table_token.kind != "word":
            raise SqlSyntaxError(f"expected table name, got {table_token.value!r}")
        table = table_token.value
        where = None
        if self._at_word("where"):
            self._advance()
            where = self._parse_or()
        group_by: tuple = ()
        if self._at_word("group"):
            self._advance()
            self._expect_word("by")
            group_columns = []
            while True:
                token = self._advance()
                if token.kind != "word":
                    raise SqlSyntaxError("expected column after GROUP BY")
                group_columns.append(token.value)
                if self._peek().kind == "punct" and self._peek().value == ",":
                    self._advance()
                    continue
                break
            group_by = tuple(group_columns)
        having: tuple = ()
        if self._at_word("having"):
            self._advance()
            conditions = [self._parse_having_condition()]
            while self._at_word("and"):
                self._advance()
                conditions.append(self._parse_having_condition())
            having = tuple(conditions)
        order_by = None
        if self._at_word("order"):
            self._advance()
            self._expect_word("by")
            column = self._advance()
            if column.kind != "word":
                raise SqlSyntaxError("expected column after ORDER BY")
            descending = False
            if self._at_word("desc"):
                self._advance()
                descending = True
            elif self._at_word("asc"):
                self._advance()
            order_by = OrderBy(column.value, descending)
        limit = None
        if self._at_word("limit"):
            self._advance()
            count = self._advance()
            if count.kind != "number" or "." in count.value:
                raise SqlSyntaxError("LIMIT expects an integer")
            limit = int(count.value)
            if limit < 0:
                raise SqlSyntaxError("LIMIT must be non-negative")
        tail = self._peek()
        if tail.kind != "eof":
            raise SqlSyntaxError(f"unexpected trailing token {tail.value!r}")
        statement = SelectStatement(
            columns=columns,
            table=table,
            where=where,
            order_by=order_by,
            limit=limit,
            group_by=group_by,
            having=having,
        )
        self._validate_grouping(statement)
        return statement

    def _parse_having_condition(self):
        from repro.query.ast import HavingCondition

        token = self._advance()
        if token.kind != "word" or token.value.lower() not in _AGGREGATES:
            raise SqlSyntaxError("HAVING expects an aggregate function")
        aggregate = self._parse_aggregate(token.value.lower())
        op = self._advance()
        if op.kind != "op":
            raise SqlSyntaxError("HAVING expects a comparison operator")
        value = self._parse_value()
        return HavingCondition(aggregate, "!=" if op.value == "<>" else op.value, value)

    @staticmethod
    def _validate_grouping(statement: SelectStatement) -> None:
        if statement.group_by and not statement.has_aggregates:
            raise UnsupportedSqlError("GROUP BY requires aggregate projections")
        if statement.having and not (statement.group_by or statement.has_aggregates):
            raise UnsupportedSqlError("HAVING requires GROUP BY or aggregates")
        if statement.has_aggregates:
            for item in statement.columns:
                if isinstance(item, str) and item not in statement.group_by:
                    raise UnsupportedSqlError(
                        f"non-aggregated column {item!r} must appear in GROUP BY"
                    )

    def _parse_projection(self) -> tuple:
        first = self._peek()
        if first.kind == "punct" and first.value == "*":
            self._advance()
            return ("*",)
        columns: list = []
        while True:
            columns.append(self._parse_projection_item())
            if self._peek().kind == "punct" and self._peek().value == ",":
                self._advance()
                continue
            break
        return tuple(columns)

    def _parse_projection_item(self):
        token = self._advance()
        if token.kind != "word":
            raise SqlSyntaxError(f"expected column name, got {token.value!r}")
        lowered = token.value.lower()
        if lowered in _AGGREGATES:
            return self._parse_aggregate(lowered)
        if lowered in _SCALAR_FUNCS:
            return self._parse_scalar_function(lowered)
        if lowered in _RESERVED_IN_PROJECTION:
            raise SqlSyntaxError(f"keyword {token.value!r} in projection")
        return token.value

    def _parse_aggregate(self, func: str) -> AggregateProjection:
        self._expect_punct("(")
        inner = self._advance()
        if inner.kind == "punct" and inner.value == "*":
            column = "*"
        elif inner.kind == "word":
            column = inner.value
        else:
            raise SqlSyntaxError(f"{func.upper()} expects a column or *")
        self._expect_punct(")")
        return AggregateProjection(func, column)

    def _parse_scalar_function(self, func: str) -> FunctionProjection:
        self._expect_punct("(")
        column = self._advance()
        if column.kind != "word":
            raise SqlSyntaxError(f"{func.upper()} expects a column name first")
        argument = None
        if self._peek().kind == "punct" and self._peek().value == ",":
            self._advance()
            argument = self._parse_value()
        self._expect_punct(")")
        if func == "ifnull" and argument is None:
            raise SqlSyntaxError("IFNULL requires a default value argument")
        return FunctionProjection(func, column.value, argument)

    def _parse_or(self):
        left = self._parse_and()
        children = [left]
        while self._at_word("or"):
            self._advance()
            children.append(self._parse_and())
        return children[0] if len(children) == 1 else OrNode(tuple(children))

    def _parse_and(self):
        left = self._parse_unary()
        children = [left]
        while self._at_word("and"):
            self._advance()
            children.append(self._parse_unary())
        return children[0] if len(children) == 1 else AndNode(tuple(children))

    def _parse_unary(self):
        if self._at_word("not"):
            self._advance()
            return NotNode(self._parse_unary())
        token = self._peek()
        if token.kind == "punct" and token.value == "(":
            self._advance()
            inner = self._parse_or()
            self._expect_punct(")")
            return inner
        return self._parse_predicate()

    def _parse_predicate(self):
        token = self._advance()
        if token.kind != "word":
            raise SqlSyntaxError(f"expected column or function, got {token.value!r}")
        name = token.value
        lowered = name.lower()
        if lowered == "match":
            return self._parse_match()
        if lowered == "attr":
            return self._parse_attr()
        return self._parse_column_predicate(name)

    def _parse_match(self):
        self._expect_punct("(")
        column = self._advance()
        if column.kind != "word":
            raise SqlSyntaxError("MATCH expects a column name")
        self._expect_punct(",")
        text = self._advance()
        if text.kind != "string":
            raise SqlSyntaxError("MATCH expects a quoted string")
        self._expect_punct(")")
        return MatchPredicate(column.value, unquote(text.value))

    def _parse_attr(self):
        self._expect_punct("(")
        key = self._advance()
        if key.kind == "string":
            key_name = unquote(key.value)
        elif key.kind == "word":
            key_name = key.value
        else:
            raise SqlSyntaxError("ATTR expects a sub-attribute name")
        self._expect_punct(")")
        op = self._advance()
        if op.kind != "op" or op.value not in ("=",):
            raise UnsupportedSqlError("ATTR only supports equality")
        value = self._parse_value()
        return SubAttributePredicate(key_name, str(value))

    def _parse_column_predicate(self, column: str):
        token = self._peek()
        if token.kind == "op":
            self._advance()
            op = "!=" if token.value == "<>" else token.value
            value = self._parse_value()
            return ComparisonPredicate(column, op, value)
        if self._at_word("between"):
            self._advance()
            low = self._parse_value()
            self._expect_word("and")
            high = self._parse_value()
            return BetweenPredicate(column, low, high)
        if self._at_word("in"):
            self._advance()
            self._expect_punct("(")
            values = [self._parse_value()]
            while self._peek().kind == "punct" and self._peek().value == ",":
                self._advance()
                values.append(self._parse_value())
            self._expect_punct(")")
            return InPredicate(column, tuple(values))
        if self._at_word("like"):
            self._advance()
            pattern = self._advance()
            if pattern.kind != "string":
                raise SqlSyntaxError("LIKE expects a quoted pattern")
            return LikePredicate(column, unquote(pattern.value))
        if self._at_word("not"):
            self._advance()
            if self._at_word("in"):
                self._advance()
                self._expect_punct("(")
                values = [self._parse_value()]
                while self._peek().kind == "punct" and self._peek().value == ",":
                    self._advance()
                    values.append(self._parse_value())
                self._expect_punct(")")
                return NotNode(InPredicate(column, tuple(values)))
            if self._at_word("like"):
                self._advance()
                pattern = self._advance()
                if pattern.kind != "string":
                    raise SqlSyntaxError("NOT LIKE expects a quoted pattern")
                return NotNode(LikePredicate(column, unquote(pattern.value)))
            raise UnsupportedSqlError("NOT must be followed by IN or LIKE here")
        raise SqlSyntaxError(f"expected operator after column {column!r}")

    def _parse_value(self) -> Any:
        token = self._advance()
        if token.kind == "number" or token.kind == "string":
            return literal_value(token.value)
        raise SqlSyntaxError(f"expected a value, got {token.value!r}")


def unquote(quoted: str) -> str:
    """The text of a quoted string literal (``''`` escapes a quote)."""
    return quoted[1:-1].replace("''", "'")


def literal_value(literal: str) -> Any:
    """The value of one number or string literal as written in SQL: an int,
    a float (the text has a decimal point), epoch seconds for a timestamp
    string, else the unquoted string. The one conversion the parser and
    :mod:`repro.query.shapes` share."""
    if literal[0] != "'":
        return float(literal) if "." in literal else int(literal)
    text = unquote(literal)
    if _TIMESTAMP_RE.match(text):
        return timestamp_to_epoch(text)
    return text


def parse_sql(sql: str) -> SelectStatement:
    """Parse *sql* into a :class:`SelectStatement`.

    Raises :class:`SqlSyntaxError` on malformed input and
    :class:`UnsupportedSqlError` for recognized-but-unsupported features.
    """
    if not sql or not sql.strip():
        raise SqlSyntaxError("empty SQL statement")
    return _Parser(sql.strip().rstrip(";")).parse()
