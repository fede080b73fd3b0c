"""Bounded-memory heavy-hitter sketches and the shared deterministic top-k.

The central question of an extremely skewed workload is *which keys are
hot*. Exact per-key counting is unbounded (routing keys are document ids;
query fingerprints are unbounded too), so the profiler uses the classic
Space-Saving sketch (Metwally et al., the Misra–Gries family): O(capacity)
entries, every key's estimate overcounts by at most the evicted minimum it
inherited, and that per-key error is *reported alongside the estimate* so
consumers can tell "at least this hot" from "maybe this hot". The
guarantees, for a stream of N offers into a sketch of capacity m:

* a tracked key's estimate never undercounts: ``true <= count``;
* the overcount is bounded and known: ``count - error <= true``;
* ``error <= N / m`` for every tracked entry (the global bound);
* any key with true frequency above ``N / m`` is guaranteed tracked.

:func:`rank_top_k` is the one deterministic ranking used everywhere a
top-k is cut — weight descending, then ``str(key)`` ascending — shared by
the sketches here and :class:`repro.indexing.FrequencyTracker`, so two
same-seed runs always list ties in the same order.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ConfigurationError


def rank_top_k(weights: Mapping, k: int | None = None) -> list:
    """Rank ``{key: weight}`` deterministically; return ``(key, weight)``
    pairs, best first.

    Weights sort descending; a tuple weight compares elementwise (primary
    count first, then tiebreaker counts). Equal weights break ties on
    ``str(key)`` ascending, so the order never depends on dict insertion
    history or hash seeds. *k* = None returns the full ranking.
    """
    if k is not None and k < 0:
        raise ConfigurationError("k must be non-negative")

    def sort_key(item):
        key, weight = item
        parts = weight if isinstance(weight, tuple) else (weight,)
        return tuple(-float(part) for part in parts) + (str(key),)

    ordered = sorted(weights.items(), key=sort_key)
    return ordered if k is None else ordered[:k]


class SpaceSavingSketch:
    """Bounded top-k frequency sketch with per-key count-error bounds.

    ``offer(key)`` is hot-path code: a dict hit for tracked keys, one
    deterministic min-eviction otherwise. ``decay()`` ages the counts at
    window boundaries so last hour's flood does not mask this minute's.
    Memory is O(capacity) regardless of stream length or key cardinality.
    """

    __slots__ = (
        "capacity", "offered", "_counts", "_errors", "_max_count",
        "_min_count", "_min_ties",
    )

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ConfigurationError("sketch capacity must be >= 1")
        self.capacity = capacity
        #: Offers ever absorbed (decay-discounted), for the N/m bound.
        self.offered = 0.0
        self._counts: dict = {}
        self._errors: dict = {}
        #: Largest tracked count, maintained incrementally so the per-write
        #: concentration gauge never scans the table.
        self._max_count = 0.0
        #: Eviction cache: the current minimum count and the keys sitting at
        #: it. Evictions consume the tie set one key at a time and only
        #: rescan the table when it drains, so a run of unique keys (the
        #: eviction-heavy worst case) pays O(capacity) once per ~capacity
        #: evictions instead of on every one. ``None`` = needs a rescan.
        self._min_count = 0.0
        self._min_ties: set | None = None

    def __len__(self) -> int:
        return len(self._counts)

    def offer(self, key, count: int = 1) -> None:
        """Absorb *count* occurrences of *key*.

        Keys are normalised to ``str`` on entry (an int id and its string
        form are the same key), so the eviction tie-break below is a plain
        C-speed string ``min`` instead of per-key ``str()`` calls."""
        if count < 1:
            raise ConfigurationError("offer count must be >= 1")
        if key.__class__ is not str:
            key = str(key)
        self.offered += count
        counts = self._counts
        ties = self._min_ties
        old = counts.get(key)
        if old is not None:
            total = old + count
            counts[key] = total
            # The key left the minimum tier, if it was in it.
            if ties and old == self._min_count:
                ties.discard(key)
        elif len(counts) < self.capacity:
            counts[key] = total = count
            self._errors[key] = 0.0
            if ties:
                if count < self._min_count:
                    self._min_count = count
                    self._min_ties = {key}
                elif count == self._min_count:
                    ties.add(key)
        else:
            # Evict the minimum-count entry (ties: smallest key, the same
            # deterministic order rank_top_k uses on str keys) and inherit
            # its count as the newcomer's error bound — the Space-Saving
            # replacement rule.
            if not ties:
                floor = self._min_count = min(counts.values())
                ties = self._min_ties = {
                    k for k, c in counts.items() if c == floor
                }
            floor = self._min_count
            victim = min(ties)
            ties.discard(victim)
            del counts[victim]
            del self._errors[victim]
            counts[key] = total = floor + count
            self._errors[key] = floor
        if total > self._max_count:
            self._max_count = total

    def estimate(self, key) -> tuple[float, float] | None:
        """``(count, error)`` for a tracked key — the true frequency lies
        in ``[count - error, count]`` — or None for untracked keys."""
        if key.__class__ is not str:
            key = str(key)
        count = self._counts.get(key)
        if count is None:
            return None
        return count, self._errors[key]

    def top(self, k: int | None = None) -> list[tuple]:
        """The top-*k* ``(key, count, error)`` rows, count desc then
        ``str(key)`` asc — the deterministic order every table pins."""
        ranked = rank_top_k(self._counts, k)
        return [(key, count, self._errors[key]) for key, count in ranked]

    def max_error(self) -> float:
        """The global Space-Saving bound: no estimate overcounts by more
        than ``offered / capacity``."""
        return self.offered / self.capacity

    def decay(self, factor: float = 0.5) -> None:
        """Age every count (and its error bound) by *factor* at a window
        boundary; entries decayed below one occurrence are dropped. The
        offered total decays with the counts so the N/m bound stays
        consistent with what the sketch still remembers."""
        if not 0.0 <= factor <= 1.0:
            raise ConfigurationError("decay factor must be in [0, 1]")
        survivors = {}
        errors = {}
        for key, count in self._counts.items():
            aged = count * factor
            if aged >= 1.0:
                survivors[key] = aged
                errors[key] = self._errors[key] * factor
        self._counts = survivors
        self._errors = errors
        self.offered *= factor
        self._max_count = max(survivors.values(), default=0.0)
        self._min_ties = None  # counts changed wholesale: rescan on demand

    def concentration(self) -> float:
        """The top entry's share of all absorbed offers (0.0 when empty) —
        the dashboard's hot-key concentration gauge."""
        if not self._counts or self.offered <= 0:
            return 0.0
        return self._max_count / self.offered

    def to_dict(self, k: int | None = 10) -> dict:
        return {
            "capacity": self.capacity,
            "tracked": len(self._counts),
            "offered": self.offered,
            "max_error": self.max_error() if self._counts else 0.0,
            "top": [
                {"key": str(key), "count": count, "error": error}
                for key, count, error in self.top(k)
            ],
        }
