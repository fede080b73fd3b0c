"""Level 2: the shard request cache.

Caches one shard's full subquery result — ``(fetched source rows, matched
count)`` — keyed by ``(shard_id, statement identity, generation)``. The
identity is the memoized ``sql:`` fingerprint of the statement's text, as
in the result cache: equal normalized text rewrites to an equal statement,
so to equal per-shard rows, and a fan-out digests nothing to reach this
level. The generation is the shard engine's read generation (bumped by
refresh and by segment-level deletes), so an entry can only ever be served
against the exact searchable state it was computed from; this mirrors
Elasticsearch's shard request cache, which keys on the reader and
invalidates on refresh.

A fan-out probes and stores from its statement's second sighting on.
Application traffic varies its literals from call to call, so most
statements are never seen again: probing for them only misses, and storing
them only prices rows, fills the budget and evicts entries something might
still read. A :class:`~repro.cache.lru.Doorkeeper` records the last
:data:`SEEN_STATEMENTS` identities the coordinator asked
:meth:`ShardRequestCache.admit` about, once per fan-out; only an identity
already in it is stored. A first sighting probes no shard unless its
identity still holds live entries (:meth:`ShardRequestCache.holds`): a
statement the doorkeeper forgot still finds them.

The cache additionally invalidates a shard's entries *eagerly* through the
engine's ``on_refresh``/``on_merge`` hooks (:meth:`ShardRequestCache.attach`)
to reclaim memory as soon as the old reader state becomes unreachable.
"""

from __future__ import annotations

from repro.cache.lru import Doorkeeper, LruCache
from repro.telemetry.runtime import NULL_REGISTRY

#: Most statement identities the doorkeeper remembers; the oldest goes.
SEEN_STATEMENTS = 4096


class ShardRequestCache:
    """Per-shard subquery results keyed by statement identity + generation."""

    def __init__(self, max_bytes: int, *, metrics=NULL_REGISTRY) -> None:
        self._lru = LruCache(
            max_bytes, level="request", metrics=metrics, on_evict=self._forget
        )
        self._by_shard: dict[int, set] = {}
        self._by_identity: dict[str, set] = {}
        self._doorkeeper = Doorkeeper(SEEN_STATEMENTS)

    @property
    def stats(self):
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def admit(self, identity: str) -> bool:
        """Whether a fan-out of *identity* probes and stores its
        subqueries: True when the statement was asked about before."""
        return self._doorkeeper.admit(identity)

    def holds(self, identity: str) -> bool:
        """Whether *identity* has a live entry on any shard."""
        return identity in self._by_identity

    def get(self, shard_id: int, identity: str, generation: object):
        return self._lru.get((shard_id, identity, generation))

    def put(
        self, shard_id: int, identity: str, generation: object, value, cost: int
    ) -> bool:
        key = (shard_id, identity, generation)
        if not self._lru.put(key, value, cost=cost):
            return False
        self._by_shard.setdefault(shard_id, set()).add(key)
        self._by_identity.setdefault(identity, set()).add(key)
        return True

    def invalidate_shard(self, shard_id: int) -> int:
        """Drop every entry of one shard; returns how many were dropped."""
        keys = self._by_shard.pop(shard_id, None)
        if not keys:
            return 0
        dropped = 0
        for key in keys:
            self._unindex(self._by_identity, key[1], key)
            if self._lru.pop(key) is not None:
                dropped += 1
        return dropped

    def attach(self, engine) -> None:
        """Invalidate this shard's entries on every refresh and merge, via
        the engine's existing listener hooks."""
        shard_id = engine.shard_id
        engine.on_refresh(lambda _segment: self.invalidate_shard(shard_id))
        engine.on_merge(lambda _merged, _victims: self.invalidate_shard(shard_id))

    def clear(self) -> None:
        self._lru.clear()
        self._by_shard.clear()
        self._by_identity.clear()

    def _forget(self, key, _value) -> None:
        self._unindex(self._by_shard, key[0], key)
        self._unindex(self._by_identity, key[1], key)

    @staticmethod
    def _unindex(index: dict, name, key) -> None:
        """Drop *key* from *index*'s set under *name*, and the set once empty."""
        keys = index.get(name)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del index[name]
