"""Replica sets: one primary, many physically replicated copies.

The paper's deployment runs one replica per shard, but the mechanism of
§5.2 — translog forwarding plus segment shipping — generalizes to any
replica count. :class:`ReplicaSet` broadcasts both channels to every
replica, tracks their sync state independently (a slow replica must not
stall the others), and performs primary election among the copies on
failover.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReplicationError
from repro.replication.costs import ReplicationAccounting
from repro.replication.physical import PhysicalReplicator
from repro.storage.engine import ShardEngine

#: Extra attempts per replica after a failed replication round.
REPLICATE_RETRIES = 2


@dataclass(frozen=True)
class ReplicaStatus:
    """Point-in-time sync state of one replica."""

    name: str
    in_sync: bool
    doc_count: int
    translog_entries: int
    bytes_copied: int


class ReplicaSet:
    """A primary shard engine plus N physical replicas."""

    def __init__(self, primary: ShardEngine, num_replicas: int = 1,
                 network_seconds_per_byte: float = 0.0, telemetry=None) -> None:
        if num_replicas < 1:
            raise ReplicationError("a replica set needs at least one replica")
        self.primary = primary
        self.telemetry = telemetry
        self.replicators: dict[str, PhysicalReplicator] = {}
        for index in range(num_replicas):
            name = f"replica-{index}"
            self.replicators[name] = PhysicalReplicator(
                primary,
                accounting=ReplicationAccounting(),
                network_seconds_per_byte=network_seconds_per_byte,
                telemetry=telemetry,
            )

    # -- write path -----------------------------------------------------------
    def index(self, source: dict, subattr_names: list | None = None) -> int:
        """Write through the primary, forwarding the translog entry to every
        replica in real time (§5.2's durability channel)."""
        row_id = self.primary.index(source, subattr_names)
        entry = self.primary.translog[-1]
        for replicator in self.replicators.values():
            replicator.sync_translog_entry(entry)
        return row_id

    def update(self, doc_id: object, changes: dict) -> int:
        row_id = self.primary.update(doc_id, changes)
        entry = self.primary.translog[-1]
        for replicator in self.replicators.values():
            replicator.sync_translog_entry(entry)
        return row_id

    def delete(self, doc_id: object) -> None:
        self.primary.delete(doc_id)
        entry = self.primary.translog[-1]
        for replicator in self.replicators.values():
            replicator.sync_translog_entry(entry)

    # -- replication rounds -------------------------------------------------------
    def replicate_all(self, now: float | None = None) -> int:
        """Run one quick incremental round on every replica; returns how
        many replicas finished in sync. A replica that raises keeps the
        others replicating (slow/faulty replicas must not block the set).

        A failed round is retried up to ``REPLICATE_RETRIES`` times with an
        exponentially growing (simulated) backoff added to the replica's
        clock: a retry rebuilds the snapshot from scratch, which resolves
        the common transient where a segment the previous snapshot named
        was merged away mid-round.
        """
        synced = 0
        errors: list[str] = []
        retry_counter = (
            self.telemetry.metrics.counter("replication_retries_total")
            if self.telemetry is not None
            else None
        )
        for name, replicator in self.replicators.items():
            last_error: ReplicationError | None = None
            for attempt in range(1 + REPLICATE_RETRIES):
                if attempt and retry_counter is not None:
                    retry_counter.inc()
                try:
                    backoff = 0.01 * (2 ** attempt - 1)
                    replicator.replicate(None if now is None else now + backoff)
                    last_error = None
                    break
                except ReplicationError as exc:
                    last_error = exc
            if last_error is not None:
                errors.append(f"{name}: {last_error}")
                continue
            if replicator.in_sync():
                synced += 1
        if errors and synced == 0:
            raise ReplicationError("; ".join(errors))
        return synced

    # -- introspection -----------------------------------------------------------
    def status(self) -> list[ReplicaStatus]:
        out = []
        for name, replicator in self.replicators.items():
            out.append(
                ReplicaStatus(
                    name=name,
                    in_sync=replicator.in_sync(),
                    doc_count=replicator.replica_doc_count(),
                    translog_entries=len(replicator.replica_translog),
                    bytes_copied=replicator.accounting.bytes_copied,
                )
            )
        return out

    # -- failover -----------------------------------------------------------------
    def promote(self, name: str | None = None) -> ShardEngine:
        """Promote a replica to primary (primary/replica switch).

        Picks the most up-to-date replica (longest *valid* translog prefix —
        a corrupted log must not win the election) when *name* is omitted,
        then **rewires the set**: the promoted engine becomes
        :attr:`primary`, the promoted copy leaves :attr:`replicators`, and
        every remaining replica is re-homed onto the new primary so
        subsequent :meth:`index`/:meth:`update`/:meth:`delete` calls and
        replication rounds target the live engine, not the dead one.
        """
        if not self.replicators:
            raise ReplicationError("no replicas to promote")
        if name is None:
            name = max(
                self.replicators,
                key=lambda n: (
                    self.replicators[n].valid_translog_prefix(),
                    # Tie-break deterministically on the lowest index.
                    -int(n.rsplit("-", 1)[-1]) if n.rsplit("-", 1)[-1].isdigit() else 0,
                ),
            )
        if name not in self.replicators:
            raise ReplicationError(f"unknown replica {name!r}")
        promoted = self.replicators.pop(name).promote_replica()
        # Seal the replayed operations so the re-homed replicas can receive
        # them as segments in the next replication round.
        promoted.refresh()
        self.primary = promoted
        for replicator in self.replicators.values():
            replicator.rehome(promoted)
        return promoted
