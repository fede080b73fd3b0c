"""Stable fingerprints for cache keys.

Three key spaces, each prefixed so they can never collide:

* ``sql:`` — whitespace-normalized SQL text: a statement's *identity*, the
  key of both statement caches (the coordinator result cache and the shard
  request cache). Computed *before* parsing, so a result-cache hit skips
  the whole parse → rewrite → plan → execute pipeline, and memoized per
  text by its caller, so a repeated text is normalized and digested once.
  Normalization is semantics-preserving only (whitespace outside string
  literals); two queries differing in a literal's case or spacing stay
  distinct. Equal identities therefore parse to equal statements.
* ``stmt:`` — a parsed ``SelectStatement``, for a caller that holds a
  statement without its text. No cache level keys on it.
* ``filter:`` — one normalized leaf filter of a physical plan, the unit the
  segment filter cache stores posting lists under.

All fingerprints are short hex digests of deterministic ``repr``s — the
plan/AST nodes are frozen dataclasses whose reprs are stable within and
across processes for the literal types SQL can produce.
"""

from __future__ import annotations

import hashlib
import re
from collections import OrderedDict
from typing import Any

_DIGEST_CHARS = 20

#: Most SQL texts an identity memo remembers; the oldest goes.
SQL_IDENTITIES = 4096

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


def sql_fingerprint(sql: str, identities: OrderedDict | None = None) -> str:
    """Identity of one SQL string (whitespace-insensitive). *identities* is
    the caller's memo of text → identity, kept to :data:`SQL_IDENTITIES`
    texts; a text it holds is neither normalized nor digested again. Racing
    callers can at worst compute one identity twice."""
    identity = identities.get(sql) if identities is not None else None
    if identity is None:
        identity = "sql:" + _digest(normalize_sql(sql))
        if identities is not None:
            identities[sql] = identity
            if len(identities) > SQL_IDENTITIES:
                identities.popitem(last=False)
    return identity


def statement_fingerprint(statement: Any) -> str:
    """Fingerprint of a parsed :class:`~repro.query.ast.SelectStatement`."""
    return "stmt:" + _digest(repr(statement))


def filter_key(kind: str, *parts: Any) -> tuple:
    """Normalized key for one leaf filter (segment filter cache).

    Kept as a plain tuple — leaf parts (column names, literals, bounds) are
    hashable, and tuple keys avoid digesting on the hottest path.
    """
    return (kind, *parts)
