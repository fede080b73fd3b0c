"""Write- and read-routing policies (Eq. 1 and Eq. 2 of the paper).

All policies share the same interface: :meth:`RoutingPolicy.route_write`
returns the shard id for one write; :meth:`RoutingPolicy.query_shards`
returns the shards a tenant-scoped statement must fan out to, narrowed by
the statement's creation-time bounds and record id;
:meth:`RoutingPolicy.candidate_shards` returns the few shards a stored
record may sit on when its creation time is unknown. The number of shards
touched by a query is exactly the trade-off the paper studies — ``s = 1``
gives cheap queries but no balancing, ``s = N`` gives perfect balancing but
all-shard queries.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import ConfigurationError, DocumentNotFoundError
from repro.hashing import h1, h2
from repro.routing.rules import DEFAULT_OFFSET, RuleList
from repro.telemetry.runtime import NULL_METRIC, NULL_TELEMETRY


@dataclass(frozen=True)
class ShardRange:
    """A wrap-around range of consecutive shards ``[start, start + length)``.

    Dynamic secondary hashing always places a tenant on *consecutive* shards
    starting at ``h1(k1) mod N``; queries therefore fan out to a contiguous
    (modulo N) range rather than an arbitrary set.
    """

    start: int
    length: int
    total: int

    def __post_init__(self) -> None:
        if not 1 <= self.length <= self.total:
            raise ConfigurationError(
                f"range length {self.length} not in [1, {self.total}]"
            )
        if not 0 <= self.start < self.total:
            raise ConfigurationError(f"start {self.start} not in [0, {self.total})")

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        for offset in range(self.length):
            yield (self.start + offset) % self.total

    def __contains__(self, shard: int) -> bool:
        offset = (shard - self.start) % self.total
        return offset < self.length

class RoutingPolicy(ABC):
    """Maps writes to shards and tenant queries to shard ranges."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self.telemetry = NULL_TELEMETRY
        self._route_counter = NULL_METRIC
        self._fanout_counter = NULL_METRIC

    def instrument(self, telemetry) -> "RoutingPolicy":
        """Attach a :class:`~repro.telemetry.Telemetry` domain; the routed
        write and query-fanout counters are resolved once here so the
        per-write cost is a single ``inc()``. Returns self for chaining."""
        self.telemetry = telemetry
        self._route_counter = telemetry.metrics.counter(
            "routing_writes_total", policy=self.name
        )
        self._fanout_counter = telemetry.metrics.counter(
            "routing_query_fanout_total", policy=self.name
        )
        return self

    @property
    @abstractmethod
    def name(self) -> str:
        """Short policy name used in benchmark output."""

    @abstractmethod
    def route_write(self, tenant_id: object, record_id: object, created_time: float = 0.0) -> int:
        """Return the shard id for a write of (*tenant_id*, *record_id*)."""

    @abstractmethod
    def query_shards(
        self,
        tenant_id: object,
        until: float | None = None,
        record_id: object = None,
        since: float | None = None,
    ) -> ShardRange | tuple[int, ...]:
        """Return the shards a statement scoped to *tenant_id* must visit:
        every shard that may hold a record of the tenant created at or
        before *until* (no bound: ever) — consecutive from the base shard.
        With *record_id*, only the shards a record whose id ``==`` it may
        sit on (only a ``str``, ``int``, ``float`` or ``bool`` id that is
        not NaN narrows: the hashes encode those by value); *since* (a
        lower creation-time bound) narrows those further. The static
        policies ignore all three."""

    @abstractmethod
    def offsets(self, tenant_id: object) -> Iterable[int]:
        """Every offset a record of *tenant_id* may have been routed with."""

    def candidate_shards(self, tenant_id: object, record_id: object) -> tuple[int, ...]:
        """The distinct shards record *record_id* of *tenant_id* may have
        been written to, whatever its creation time: one per offset in
        :meth:`offsets`. UPDATE/DELETE locate a stored record by probing
        these, never through a per-document directory."""
        return self._shards_of(tenant_id, record_id, self.offsets(tenant_id))

    def _shards_of(
        self, tenant_id: object, record_id: object, offsets: Iterable[int]
    ) -> tuple[int, ...]:
        """The distinct shards ``(h1 + h2 mod L) mod N`` for ``L`` in *offsets*."""
        base = self.base_shard(tenant_id)
        digest = h2(record_id)
        return tuple(
            dict.fromkeys((base + digest % offset) % self.num_shards for offset in offsets)
        )

    def locate(
        self,
        tenant_id: object,
        record_id: object,
        created_time: float | None,
        holds: Callable[[int], bool],
    ) -> int:
        """The shard holding stored record *record_id* of *tenant_id*,
        re-derived from the routing state. With *created_time* it is the
        shard :meth:`route_write` placed the record on; without, the one
        of :meth:`candidate_shards` for which ``holds(shard)`` is true.

        Raises :class:`~repro.errors.DocumentNotFoundError` when no
        candidate holds the id, or when several do (the id was written
        again after a rule change; *created_time* picks the copy).
        """
        if created_time is not None:
            return self.route_write(tenant_id, record_id, float(created_time))
        held = [shard for shard in self.candidate_shards(tenant_id, record_id) if holds(shard)]
        if len(held) == 1:
            return held[0]
        if held:
            raise DocumentNotFoundError(
                f"doc {record_id!r} of tenant {tenant_id!r} is on shards {held}: "
                "pass created_time to pick one"
            )
        raise DocumentNotFoundError(f"doc {record_id!r} of tenant {tenant_id!r} not found")

    def base_shard(self, tenant_id: object) -> int:
        """Return ``h1(k1) mod N``, the first shard of the tenant's range."""
        return h1(tenant_id) % self.num_shards

    def span(self, tenant_id: object) -> int:
        """The shards an unbounded statement for *tenant_id* visits — the
        length of :meth:`query_shards` with no bounds — read without adding
        to the query fan-out counter, for introspection that runs no query."""
        return max(self.offsets(tenant_id))


class HashRouting(RoutingPolicy):
    """Plain hashing (Figure 2a): every record of a tenant goes to one shard.

    The baseline policy with no workload balancing — a hot tenant saturates
    exactly one shard (and its replica's node) while the rest idle.
    """

    @property
    def name(self) -> str:
        return "hashing"

    def route_write(self, tenant_id: object, record_id: object, created_time: float = 0.0) -> int:
        self._route_counter.inc()
        return self.base_shard(tenant_id)

    def query_shards(
        self, tenant_id: object, until=None, record_id=None, since=None
    ) -> ShardRange:
        shards = ShardRange(self.base_shard(tenant_id), 1, self.num_shards)
        self._fanout_counter.inc(len(shards))
        return shards

    def offsets(self, tenant_id: object) -> Iterable[int]:
        return (DEFAULT_OFFSET,)


class DoubleHashRouting(RoutingPolicy):
    """Static double hashing (Eq. 1, Figure 2b).

    Routes to ``(h1(k1) + h2(k2) mod s) mod N`` with a global static offset
    ``s``: every tenant — hot or cold — spreads over exactly ``s`` consecutive
    shards, so every tenant query costs ``s`` subqueries. The paper's
    evaluation uses ``s = 8``.
    """

    def __init__(self, num_shards: int, offset: int = 8) -> None:
        super().__init__(num_shards)
        if not 1 <= offset <= num_shards:
            raise ConfigurationError(
                f"offset must be in [1, {num_shards}], got {offset}"
            )
        self.offset = offset

    @property
    def name(self) -> str:
        return "double-hashing"

    def route_write(self, tenant_id: object, record_id: object, created_time: float = 0.0) -> int:
        self._route_counter.inc()
        return (self.base_shard(tenant_id) + h2(record_id) % self.offset) % self.num_shards

    def query_shards(
        self, tenant_id: object, until=None, record_id=None, since=None
    ) -> ShardRange:
        shards = ShardRange(self.base_shard(tenant_id), self.offset, self.num_shards)
        self._fanout_counter.inc(len(shards))
        return shards

    def offsets(self, tenant_id: object) -> Iterable[int]:
        return (self.offset,)


class DynamicSecondaryHashRouting(RoutingPolicy):
    """Dynamic secondary hashing (Eq. 2, Figure 2c) — the paper's contribution.

    The static offset is replaced with ``L(k1)``, looked up per record in the
    append-only :class:`RuleList`: rules are matched on (tenant, record
    creation time) so historical records keep routing to the shards that hold
    them (read-your-writes, §4.2) while new records of a hot tenant spread
    wider as the balancer commits larger offsets.
    """

    def __init__(self, num_shards: int, rules: RuleList | None = None) -> None:
        super().__init__(num_shards)
        self.rules = rules if rules is not None else RuleList()

    def instrument(self, telemetry) -> "DynamicSecondaryHashRouting":
        super().instrument(telemetry)
        self.rules.instrument(telemetry)
        return self

    @property
    def name(self) -> str:
        return "dynamic-secondary-hashing"

    def offset_for(self, tenant_id: object, created_time: float) -> int:
        """Return ``L(k1)`` for a record created at *created_time*."""
        return self.rules.match(tenant_id, created_time)

    def route_write(self, tenant_id: object, record_id: object, created_time: float = 0.0) -> int:
        self._route_counter.inc()
        offset = self.offset_for(tenant_id, created_time)
        if offset == 1:
            # (b + h mod 1) mod N = b: a write routed at offset 1 needs no
            # record-id hash.
            return self.base_shard(tenant_id)
        return (self.base_shard(tenant_id) + h2(record_id) % offset) % self.num_shards

    def query_shards(
        self,
        tenant_id: object,
        until: float | None = None,
        record_id: object = None,
        since: float | None = None,
    ) -> ShardRange | tuple[int, ...]:
        # A record created at c <= until was routed with an offset
        # s <= match(tenant, c) <= match(tenant, until): rules are only
        # appended, match takes the largest applicable offset and compact()
        # never changes it. The ranges nest from the base shard, so the one
        # of length match(tenant, until) holds every such record; with no
        # bound that is the union over all committed offsets, the largest.
        upper = (
            self.rules.max_offset(tenant_id)
            if until is None
            else self.rules.match(tenant_id, until)
        )
        # Only an id the hashes encode by value narrows: a str, int, float
        # or bool that is not NaN (None is no id).
        if not (isinstance(record_id, (str, int, float)) and record_id == record_id):
            shards = ShardRange(self.base_shard(tenant_id), upper, self.num_shards)
        else:
            # A stored record's offset is match(tenant, created_time) under
            # today's rules (DESIGN.md, Placement), so one created at or
            # after *since* has an offset of at least match(tenant, since).
            # Clamped to *upper*: an empty range (since > until) matches
            # nothing but still visits one shard.
            lower = (
                DEFAULT_OFFSET
                if since is None
                else min(self.rules.match(tenant_id, since), upper)
            )
            offsets = [o for o in self.offsets(tenant_id) if lower <= o <= upper]
            shards = self._shards_of(tenant_id, record_id, offsets)
        self._fanout_counter.inc(len(shards))
        return shards

    def offsets(self, tenant_id: object) -> Iterable[int]:
        # A record created before the tenant's first rule took effect was
        # routed with the default; every later one with some rule's offset.
        return sorted(
            {DEFAULT_OFFSET, *(rule.offset for rule in self.rules.rules_for(tenant_id))}
        )
