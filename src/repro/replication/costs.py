"""Replication accounting: CPU cost and visibility delay.

Tracks the two quantities Figure 15 and §5.2 discuss: how much CPU the
replica side spends (re-indexing under logical replication vs byte copying
under physical replication) and the *visibility delay* — the gap between a
segment becoming searchable on the primary and on the replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ReplicationAccounting:
    """Cumulative counters for one primary/replica pair.

    CPU is counted in the same abstract units as
    :attr:`repro.storage.engine.EngineStats.indexing_cost`, so logical and
    physical replication are directly comparable. Byte copies are charged
    ``copy_cost_per_byte`` units per byte (sequential I/O is far cheaper
    than re-indexing).
    """

    copy_cost_per_byte: float = 0.001
    replica_cpu: float = 0.0
    bytes_copied: int = 0
    segments_copied: int = 0
    segments_skipped: int = 0  # already present on replica (diff hit)
    visibility_delays: list = field(default_factory=list)

    def charge_reindex(self, indexing_cost: float) -> None:
        """Replica re-executed a write (logical replication)."""
        self.replica_cpu += indexing_cost

    def charge_copy(self, num_bytes: int) -> None:
        """Replica copied segment bytes (physical replication)."""
        self.bytes_copied += num_bytes
        self.segments_copied += 1
        self.replica_cpu += num_bytes * self.copy_cost_per_byte

    def note_skip(self) -> None:
        self.segments_skipped += 1

    def note_visibility(self, primary_time: float, replica_time: float) -> None:
        """Record one segment's visibility delay."""
        self.visibility_delays.append(max(replica_time - primary_time, 0.0))
