"""What a statement's WHERE tree pins down for routing, and the shards
that allows: one fan-out for execution and EXPLAIN alike."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple

from repro.query.ast import AndNode, BetweenPredicate, ComparisonPredicate, InPredicate, OrNode

if TYPE_CHECKING:
    from repro.routing.policies import RoutingPolicy
    from repro.storage import Schema


class RoutingBounds(NamedTuple):
    """What one disjunct of a WHERE tree pins down for routing: its tenant,
    the tightest numeric bounds on the creation time, and the record id."""

    tenant: object
    since: float | None = None
    until: float | None = None
    record_id: object = None


def _is_time_bound(value: object) -> bool:
    """A creation-time literal routing can compare: a number, not a bool,
    not NaN."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value == value


_LOWER_OPS = frozenset(("=", ">", ">="))
_UPPER_OPS = frozenset(("=", "<", "<="))


def routing_bounds(where: object, schema: Schema) -> tuple[RoutingBounds, ...] | None:
    """The distinct :class:`RoutingBounds` of the disjuncts of the
    rewritten (DNF) tree *where*, or None when a disjunct names no tenant:
    the statement is cross-tenant and visits every shard.

    A disjunct's bounds come from its top-level conjuncts only — each one
    holds for every row the disjunct matches — so a tenant equality under
    an OR never prunes: ``tenant_id = 1`` = the tenant, ``tenant_id IN (1,
    2)`` = one bound per listed tenant; ``=``, ``<``, ``<=`` and
    ``BETWEEN``'s high end on the time field = an upper bound (the smallest
    wins); ``=``, ``>``, ``>=`` and ``BETWEEN``'s low end = a lower bound;
    ``=`` on the id field = the record."""
    if where is None:
        return None
    time_field = schema.time_field
    bounds = []
    for disjunct in where.children if isinstance(where, OrNode) else (where,):
        tenants = record_id = since = until = None
        for predicate in disjunct.children if isinstance(disjunct, AndNode) else (disjunct,):
            low = high = None
            if isinstance(predicate, ComparisonPredicate):
                column, op = predicate.column, predicate.op
                if column == time_field:
                    low = predicate.value if op in _LOWER_OPS else None
                    high = predicate.value if op in _UPPER_OPS else None
                elif op == "=" and column == schema.tenant_field:
                    tenants = (predicate.value,) if tenants is None else tenants
                elif op == "=" and column == schema.id_field:
                    record_id = predicate.value if record_id is None else record_id
            elif isinstance(predicate, BetweenPredicate) and predicate.column == time_field:
                low, high = predicate.low, predicate.high
            elif isinstance(predicate, InPredicate) and predicate.column == schema.tenant_field:
                tenants = predicate.values if tenants is None else tenants
            if low is not None and _is_time_bound(low):
                since = low if since is None else max(since, low)
            if high is not None and _is_time_bound(high):
                until = high if until is None else min(until, high)
        if tenants is None:
            return None
        bounds.extend(RoutingBounds(tenant, since, until, record_id) for tenant in tenants)
    return tuple(dict.fromkeys(bounds))


def common_tenant(bounds: tuple[RoutingBounds, ...] | None) -> object:
    """The tenant every one of *bounds* names, or None for a cross-tenant
    statement: one whose disjuncts name different tenants or none."""
    if bounds is None or any(b.tenant != bounds[0].tenant for b in bounds[1:]):
        return None
    return bounds[0].tenant


def fanout(
    policy: RoutingPolicy, bounds: tuple[RoutingBounds, ...] | None, num_shards: int
) -> tuple[list | None, list[int]]:
    """Shard pruning through the rule list: the shards each of *bounds*
    allows, one :meth:`RoutingPolicy.query_shards` call per disjunct, and
    their union in disjunct order. A cross-tenant statement (*bounds* None)
    has no per-disjunct lists and visits every shard."""
    if bounds is None:
        return None, list(range(num_shards))
    per_bound = [
        policy.query_shards(
            bound.tenant, until=bound.until, record_id=bound.record_id, since=bound.since
        )
        for bound in bounds
    ]
    return per_bound, list(dict.fromkeys(itertools.chain.from_iterable(per_bound)))


def describe_fanout(
    policy: RoutingPolicy,
    schema: Schema,
    bounds: tuple[RoutingBounds, ...] | None,
    num_shards: int,
) -> str:
    """EXPLAIN's fan-out line: the shards :func:`fanout` picks —
    ``[first..last]`` when they are consecutive, else the list — and, per
    disjunct, the bounds that decided them and how far they pruned."""
    per_bound, shard_ids = fanout(policy, bounds, num_shards)
    first = shard_ids[0]
    consecutive = all(
        (shard - first) % num_shards == i for i, shard in enumerate(shard_ids)
    )
    shards = f"[{first}..{shard_ids[-1]}]" if consecutive else str(shard_ids)
    why = (
        "cross-tenant: a disjunct names no tenant"
        if bounds is None
        else "; ".join(
            _describe_bound(policy, schema, bound, len(visited))
            for bound, visited in zip(bounds, per_bound)
        )
    )
    return f"fan-out: {len(shard_ids)} shard(s) {shards} ({why})"


def _describe_bound(
    policy: RoutingPolicy, schema: Schema, bound: RoutingBounds, visited: int
) -> str:
    time_field = schema.time_field
    terms = [f"{schema.tenant_field} = {bound.tenant!r}"]
    # A lower bound narrows only a record's candidates.
    since = bound.since if bound.record_id is not None else None
    if since is not None and since == bound.until:
        terms.append(f"{time_field} = {since!r}")
    else:
        if since is not None:
            terms.append(f"{time_field} >= {since!r}")
        if bound.until is not None:
            terms.append(f"{time_field} <= {bound.until!r}")
    # The unbounded fan-out, read without a query_shards call so that
    # EXPLAIN adds to the fan-out counters only what execution would.
    widest = policy.span(bound.tenant)
    if bound.record_id is None:
        reach = f"offset {visited} of {widest}"
    else:
        terms.append(f"{schema.id_field} = {bound.record_id!r}")
        reach = f"{visited} of {widest} shard(s)"
    return f"{', '.join(terms)} -> {reach}"
