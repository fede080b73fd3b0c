"""Frequency-based sub-attribute index selection.

The "attributes" column concatenates ~1500 customized sub-attributes, whose
read/write frequencies are themselves heavily skewed (the paper reports the
top 30 appearing in ~50% of workloads). Indexing all of them is prohibitive;
ESDB indexes only the most frequently *queried* ones, trading a small
storage overhead for a large latency win on the common case.

This module tracks per-sub-attribute usage frequencies and selects the
top-K set, which is then handed to :class:`~repro.storage.engine.EngineConfig`
as ``indexed_subattributes``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.slo.sketch import rank_top_k


@dataclass
class FrequencyTracker:
    """Counts how often each sub-attribute appears in writes and queries.

    Selection weights query frequency over write frequency (an index only
    pays off when queried), with writes as a tiebreaker.
    """

    write_counts: Counter = field(default_factory=Counter)
    query_counts: Counter = field(default_factory=Counter)

    def record_write(self, subattribute_names: Iterable[str]) -> None:
        """Record one written document's sub-attribute names."""
        self.write_counts.update(subattribute_names)

    def record_query(self, subattribute_names: Iterable[str]) -> None:
        """Record the sub-attributes a query filtered on."""
        self.query_counts.update(subattribute_names)

    # -- the facade's recording consumer -------------------------------------
    def on_writes(self, batch) -> None:
        for _, _, subattr_names in batch.shards:
            for names in subattr_names:
                if names:
                    self.record_write(names)

    def on_query(self, query) -> None:
        if query.subattrs and query.result is not None:
            self.record_query(query.subattrs)

    def on_round(self, balance) -> None:
        pass

    def top_k(self, k: int) -> frozenset:
        """Return the *k* most valuable sub-attributes to index.

        Ranking runs through the shared :func:`repro.slo.rank_top_k` core:
        query count desc, write count desc, then *name ascending* — fully
        deterministic even when counts tie (a bare ``reverse=True`` sort
        would flip the name tiebreak to descending)."""
        ranked = rank_top_k(
            {
                name: (self.query_counts[name], self.write_counts[name])
                for name in set(self.query_counts) | set(self.write_counts)
            },
            k,
        )
        return frozenset(name for name, _ in ranked)

    def coverage(self, selected: frozenset) -> float:
        """Fraction of query references answered by the selected set —
        the paper's "top 30 appear in ~50% of workloads" statistic."""
        total = sum(self.query_counts.values())
        if total == 0:
            return 0.0
        covered = sum(self.query_counts[name] for name in selected)
        return covered / total
