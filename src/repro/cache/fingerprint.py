"""Stable fingerprints for cache keys.

Three key spaces, each prefixed so they can never collide:

* ``sql:`` — whitespace-normalized SQL text. Computed *before* parsing, so
  a coordinator cache hit skips the whole parse → rewrite → plan → execute
  pipeline. Normalization is semantics-preserving only (whitespace outside
  string literals); two queries differing in a literal's case or spacing
  stay distinct.
* ``stmt:`` — a parsed (post-Xdriver4ES-rewrite) ``SelectStatement``. Used
  by the shard request cache: the statement fully determines the per-shard
  subquery (filters, projection, pushdown limit, order).
* ``filter:`` — one normalized leaf filter of a physical plan, the unit the
  segment filter cache stores posting lists under.

All fingerprints are short hex digests of deterministic ``repr``s — the
plan/AST nodes are frozen dataclasses whose reprs are stable within and
across processes for the literal types SQL can produce.
"""

from __future__ import annotations

import hashlib
import re
from typing import Any

_DIGEST_CHARS = 20

#: A SQL string literal, in the parser's own grammar ('' escapes a quote).
_LITERAL_RE = re.compile(r"('(?:[^']|'')*')")
_WHITESPACE_RE = re.compile(r"\s+")


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:_DIGEST_CHARS]


def normalize_sql(sql: str) -> str:
    """Collapse runs of whitespace outside string literals; the only
    rewrite safe without parsing."""
    collapsed = " ".join(sql.split())
    if collapsed == sql or "'" not in sql:
        return collapsed  # nothing changed, or no literal to protect
    pieces = _LITERAL_RE.split(sql)  # literals at the odd positions
    pieces[::2] = [_WHITESPACE_RE.sub(" ", piece) for piece in pieces[::2]]
    return "".join(pieces).strip()


def sql_fingerprint(sql: str) -> str:
    """Fingerprint of one SQL string (whitespace-insensitive)."""
    return "sql:" + _digest(normalize_sql(sql))


def statement_fingerprint(statement: Any) -> str:
    """Fingerprint of a parsed :class:`~repro.query.ast.SelectStatement`."""
    return "stmt:" + _digest(repr(statement))


def filter_key(kind: str, *parts: Any) -> tuple:
    """Normalized key for one leaf filter (segment filter cache).

    Kept as a plain tuple — leaf parts (column names, literals, bounds) are
    hashable, and tuple keys avoid digesting on the hottest path.
    """
    return (kind, *parts)
