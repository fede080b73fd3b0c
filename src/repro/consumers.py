"""What the ESDB facade hands its recording consumers.

``ESDB.consumers`` holds the recording subsystems that are on — observer,
frequency tracker, tenant governor, SLO engine, history store, in that
order; one that is off is not built. Each write call, query and balance
round builds one record below and passes it to every consumer's
``on_writes``, ``on_query`` or ``on_round``. ``emit(kind, tenant=,
shard=, ctx=, **detail)`` is the facade's event emitter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:
    from repro.query.aggregator import QueryResult
    from repro.routing.rules import RuleList
    from repro.telemetry import Span, TraceContext


class WriteBatch(NamedTuple):
    """One ``write`` or ``bulk_write`` call, after its documents applied."""

    op: str  # "write" or "bulk_write"
    now: float  # the logical clock after the routing pass
    ctx: TraceContext | None
    emit: Callable
    span: Span  # the call's root span
    per_doc: float  # the call's seconds per submitted document
    tenants: list  # each position's tenant; None where routing refused it
    applied: list  # the applied documents' BulkItemResults, in position order
    refused: list  # (routing clock, error) per document the routing pass refused
    shards: list  # (documents, engine seconds, applied sub-attribute names) per shard


class Query(NamedTuple):
    """One query, executed or refused by admission."""

    now: float
    ctx: TraceContext | None
    emit: Callable
    tenant: object  # the statement's tenant; None when cross-tenant
    sql: str
    fingerprint: str
    subattrs: tuple  # the sub-attributes it filters on
    terms: tuple  # its filter terms, when the SLO profiler reads them
    root: Span
    result: QueryResult | None  # None: admission refused the query
    scanned: int  # documents the fan-out matched; 0 on a result-cache hit


class BalanceRound(NamedTuple):
    """One balance round, after its rules committed."""

    now: float
    ctx: TraceContext | None
    emit: Callable
    rules: RuleList
    committed: list  # (tenant, offset, effective time) per committed rule
    alerts: list  # skew alerts since the previous round; the observer adds them
