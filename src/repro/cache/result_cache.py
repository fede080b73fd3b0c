"""Level 3: the coordinator result cache.

Caches whole fan-out results in the :class:`~repro.esdb.ESDB` facade, keyed
by ``(sql fingerprint, rule-list version)``. The rule-list version is the
append-only :class:`~repro.routing.rules.RuleList`'s monotone counter: any
routing change (rule append, compaction) moves every dependent cached
fan-out to an unreachable key atomically, which is what keeps
read-your-writes (§4.2) intact — a result planned against an old shard
range can never be served after the range changed.

Routing is not the only thing that can invalidate a coordinator result:
data visibility changes (refresh, segment delete) do too. Each entry
therefore carries *validators* — the ``(shard_id, engine generation)``
pairs observed at compute time — and a lookup revalidates them against the
live engines before serving, dropping the entry on mismatch. This makes a
hit safe without parsing the SQL at all.
"""

from __future__ import annotations

from typing import Callable

from repro.cache.lru import LruCache, rows_cost


class CoordinatorResultCache:
    """Full query results keyed by ``(fingerprint, rule-list version)``."""

    def __init__(self, max_bytes: int, *, metrics=None) -> None:
        self._lru = LruCache(max_bytes, level="result", metrics=metrics)

    @property
    def stats(self):
        return self._lru.stats

    def __len__(self) -> int:
        return len(self._lru)

    def get(
        self,
        fingerprint: str,
        rule_version: int,
        current_generation: Callable[[int], object],
    ):
        """Return the cached result, or None. *current_generation* maps a
        shard id to the engine's live read generation; any drift since the
        entry was stored drops the entry (stale data)."""
        key = (fingerprint, rule_version)
        entry = self._lru.peek(key)
        if entry is None:
            self._lru.record_miss()
            return None
        result, validators = entry
        for shard_id, generation in validators:
            if current_generation(shard_id) != generation:
                self._lru.pop(key)  # stale data: a would-be hit is a miss
                self._lru.record_miss()
                return None
        self._lru.touch(key)
        self._lru.record_hit()
        return result

    def put(
        self,
        fingerprint: str,
        rule_version: int,
        result,
        validators: tuple,
        cost: int | None = None,
    ) -> bool:
        if cost is None:
            cost = rows_cost(result.rows) + 24 * len(validators)
        return self._lru.put((fingerprint, rule_version), (result, validators), cost=cost)

    def clear(self) -> None:
        self._lru.clear()
