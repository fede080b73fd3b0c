"""Level 3: the coordinator result cache.

Caches whole fan-out results in the query coordinator
(:class:`~repro.query.coordinator.Coordinator`), keyed
by ``(statement identity, rule-list version)``; the identity is the
memoized ``sql:`` fingerprint of the statement's text
(:func:`~repro.cache.fingerprint.sql_fingerprint`). An entry is opaque
here: the coordinator stores the result together with what a hit still has to
account for (the statement's tenant, ``ATTR`` keys and filter terms), and
prices it by the result's rows.

The rule-list version is the
append-only :class:`~repro.routing.rules.RuleList`'s monotone counter: any
routing change (rule append, compaction) moves every dependent cached
fan-out to an unreachable key atomically, which is what keeps
read-your-writes (§4.2) intact — a result planned against an old shard
range can never be served after the range changed.

Routing is not the only thing that can invalidate a coordinator result:
data visibility changes (refresh, segment delete) do too. Each entry
therefore carries *validators* — the ``(shard_id, engine generation)``
pairs observed at compute time — and a lookup revalidates them against the
live engines inside its one LRU probe, dropping the entry on mismatch. This
makes a hit safe without parsing the SQL at all.

A statement's first sighting is stored only into free budget: it evicts
nothing, because most statements are never seen again (a seller's
varying literals) and an entry no query reads is worth less than any
entry already cached. From the second sighting on, a put evicts
least-recently-used entries as usual. The coordinator asks the request
level's doorkeeper once per fan-out and passes the answer on; a first
sighting whose cost's floor (:func:`~repro.cache.lru.rows_cost_floor`)
already exceeds the free budget it does not price at all.
"""

from __future__ import annotations

from typing import Mapping

from repro.cache.lru import LruCache
from repro.telemetry.runtime import NULL_REGISTRY


class CoordinatorResultCache:
    """Query-result entries keyed by ``(identity, rule-list version)``."""

    def __init__(self, max_bytes: int, *, metrics=NULL_REGISTRY) -> None:
        self._lru = LruCache(max_bytes, level="result", metrics=metrics)

    @property
    def stats(self):
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, identity: str, rule_version: int, engines: Mapping):
        """Return the cached entry, or None. *engines* maps a shard id to
        its live engine; an entry any of whose shards' read generation moved
        since it was stored is dropped (stale data), a miss."""
        entry = self._lru.get((identity, rule_version), _fresh, engines)
        return entry[0] if entry is not None else None

    def put(
        self,
        identity: str,
        rule_version: int,
        value,
        validators: tuple,
        cost: int,
        *,
        seen: bool = True,
    ) -> bool:
        """Store *value* with the ``(shard_id, generation)`` *validators*
        it was computed against, charged *cost* bytes. A first sighting
        (*seen* false) is stored only if it fits without evicting."""
        if not seen and not self.fits(cost):
            return False
        return self._lru.put((identity, rule_version), (value, validators), cost=cost)

    def fits(self, cost: int) -> bool:
        """Whether *cost* bytes fit the free budget, evicting nothing."""
        lru = self._lru
        return cost <= lru.max_bytes - lru.stats.bytes

    def clear(self) -> None:
        self._lru.clear()


def _fresh(entry: tuple, engines: Mapping) -> bool:
    """Whether *entry*'s ``(shard_id, generation)`` validators hold in *engines*."""
    for shard_id, generation in entry[1]:
        if engines[shard_id].generation != generation:
            return False
    return True
