"""Physical replication of segment files (§5.2, Figure 9).

The replica never re-executes writes. Instead:

* **Real-time translog sync** — every write is forwarded and appended to the
  replica's translog immediately (durability; enables local recovery on
  primary/replica switch).
* **Quick incremental replication** — after each refresh the primary builds
  a snapshot of its current segment list; the replica computes the *segment
  diff* against its own state, requests only the missing segments and
  deletes segments the primary dropped. Short refresh intervals therefore
  never restart a long monolithic copy.
* **Pre-replication of merged segments** — merged segments are shipped the
  moment the merge finishes, on an independent track, so a large merged
  segment never sits in the refresh-snapshot diff delaying fresh data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReplicationError
from repro.replication.costs import ReplicationAccounting
from repro.storage.engine import ShardEngine
from repro.storage.segment import Segment
from repro.storage.translog import TranslogEntry
from repro.telemetry.runtime import NULL_TELEMETRY


@dataclass(frozen=True)
class SegmentSnapshot:
    """An immutable view of the primary's segment list at one refresh.

    Attributes:
        snapshot_id: monotonically increasing id.
        segment_ids: ids of the segments alive in this snapshot.
        created_at: primary-side timestamp of the refresh.
    """

    snapshot_id: int
    segment_ids: frozenset
    created_at: float


class PhysicalReplicator:
    """Replicates a primary :class:`ShardEngine` onto a replica by shipping
    sealed segments.

    The replica holds real :class:`Segment` objects (transferred by
    reference here, with their byte size charged to the accounting model —
    an in-process stand-in for copying files across machines).
    """

    def __init__(
        self,
        primary: ShardEngine,
        accounting: ReplicationAccounting | None = None,
        network_seconds_per_byte: float = 0.0,
        telemetry=None,
    ) -> None:
        self.primary = primary
        self.accounting = accounting or ReplicationAccounting()
        self.network_seconds_per_byte = network_seconds_per_byte
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        metrics = self.telemetry.metrics
        shard = str(primary.shard_id)
        self._segments_counter = metrics.counter(
            "replication_segments_copied_total", shard=shard
        )
        self._bytes_counter = metrics.counter("replication_bytes_copied_total", shard=shard)
        self._skip_counter = metrics.counter("replication_segment_skips_total", shard=shard)
        self._prereplicated_counter = metrics.counter(
            "replication_prereplicated_total", shard=shard
        )
        self.replica_segments: dict[int, Segment] = {}
        self.replica_translog: list[TranslogEntry] = []
        self.snapshots: list[SegmentSnapshot] = []
        self._snapshot_counter = 0
        primary.on_refresh(self._on_primary_refresh)
        primary.on_merge(self._on_primary_merge)
        self._pending_refreshed: list[tuple[Segment, float]] = []
        self._pending_merged: list[Segment] = []
        self._clock = 0.0

    # -- clock -------------------------------------------------------------
    def advance_clock(self, now: float) -> None:
        self._clock = max(self._clock, now)

    # -- translog sync (real-time) -------------------------------------------
    def sync_translog_entry(self, entry: TranslogEntry) -> None:
        """Append a forwarded write to the replica's translog immediately."""
        self.replica_translog.append(entry)

    # -- primary-side hooks ---------------------------------------------------
    def _on_primary_refresh(self, segment: Segment) -> None:
        self._pending_refreshed.append((segment, self._clock))

    def _on_primary_merge(self, merged: Segment, victims: list[Segment]) -> None:
        # Pre-replication: ship the merged segment right away on its own
        # track, independent of the refresh snapshots.
        self._pending_merged.append(merged)

    # -- replication rounds --------------------------------------------------
    def build_snapshot(self, now: float | None = None) -> SegmentSnapshot:
        """Step 1–2 of Figure 9: snapshot the primary's current segments and
        select it as the primary state."""
        if now is not None:
            self.advance_clock(now)
        self._snapshot_counter += 1
        snapshot = SegmentSnapshot(
            snapshot_id=self._snapshot_counter,
            segment_ids=frozenset(s.segment_id for s in self.primary.segments),
            created_at=self._clock,
        )
        self.snapshots.append(snapshot)
        return snapshot

    def segment_diff(self, snapshot: SegmentSnapshot) -> tuple[set, set]:
        """Step 4: ``(missing, stale)`` relative to the replica's state."""
        replica_ids = set(self.replica_segments)
        missing = set(snapshot.segment_ids) - replica_ids
        stale = replica_ids - set(snapshot.segment_ids)
        return missing, stale

    def replicate(self, now: float | None = None) -> SegmentSnapshot:
        """Run one quick incremental replication round (steps 1–6 of Fig 9).

        Returns the snapshot that the replica now matches. Merged segments
        pre-replicated earlier are found already present by the diff and
        skipped, which is precisely why pre-replication bounds the
        visibility delay of fresh segments.
        """
        with self.telemetry.tracer.span(
            "replication.round", shard=self.primary.shard_id
        ):
            self.run_prereplication()
            snapshot = self.build_snapshot(now)
            missing, stale = self.segment_diff(snapshot)
            by_id = {s.segment_id: s for s in self.primary.segments}
            for segment_id in sorted(missing):
                segment = by_id.get(segment_id)
                if segment is None:
                    raise ReplicationError(
                        f"snapshot {snapshot.snapshot_id} references segment "
                        f"{segment_id} no longer on the primary"
                    )
                self._copy_segment(segment)
            for segment_id in stale:
                del self.replica_segments[segment_id]
            self._note_visibility()
            return snapshot

    def run_prereplication(self) -> int:
        """Ship any finished merged segments on the independent track."""
        shipped = 0
        while self._pending_merged:
            merged = self._pending_merged.pop(0)
            if merged.segment_id not in self.replica_segments:
                self._copy_segment(merged)
                self._prereplicated_counter.inc()
                shipped += 1
        return shipped

    def _copy_segment(self, segment: Segment) -> None:
        if segment.segment_id in self.replica_segments:
            self.accounting.note_skip()
            self._skip_counter.inc()
            return
        size = segment.approx_bytes()
        self.accounting.charge_copy(size)
        self._segments_counter.inc()
        self._bytes_counter.inc(size)
        self._clock += size * self.network_seconds_per_byte
        self.replica_segments[segment.segment_id] = segment

    def _note_visibility(self) -> None:
        still_pending = []
        for segment, primary_time in self._pending_refreshed:
            if segment.segment_id in self.replica_segments:
                self.accounting.note_visibility(primary_time, self._clock)
            elif any(segment.segment_id in s.segment_ids for s in self.snapshots[-1:]):
                still_pending.append((segment, primary_time))
            # Segments merged away before ever replicating stop being tracked.
        self._pending_refreshed = still_pending

    # -- replica state -----------------------------------------------------------
    def replica_doc_count(self) -> int:
        return sum(s.live_count for s in self.replica_segments.values())

    def in_sync(self) -> bool:
        """True when the replica holds exactly the primary's segment set."""
        primary_ids = {s.segment_id for s in self.primary.segments}
        return set(self.replica_segments) == primary_ids

    def valid_translog_prefix(self) -> int:
        """Length of the leading run of translog entries passing their
        checksum. Entries after the first corrupt record cannot be trusted
        (ordering is lost), so failover replays only this prefix."""
        for index, entry in enumerate(self.replica_translog):
            if not entry.verify():
                return index
        return len(self.replica_translog)

    def promote_replica(self) -> ShardEngine:
        """Primary/replica switch: build a serving engine from the replica's
        segments + translog replay of unflushed operations.

        Replay must not assume "doc present in a segment" means "entry
        already applied": an unflushed ``update`` (or re-``index``) of a doc
        that already shipped inside a segment carries newer state than the
        segment copy. Entries whose effect is already visible are skipped;
        everything else is re-applied with the matching engine operation.
        Corrupt entries end the replayable prefix (counted in telemetry).
        """
        engine = ShardEngine(
            self.primary.config,
            shard_id=self.primary.shard_id,
            telemetry=self.telemetry,
        )
        engine.segments = [
            self.replica_segments[sid] for sid in sorted(self.replica_segments)
        ]
        # Rebuild doc-id locations from the copied segments' live rows.
        engine._doc_locations = {
            doc.doc_id: row for row, doc in engine.iter_documents()
        }
        valid = self.valid_translog_prefix()
        skipped = len(self.replica_translog) - valid
        if skipped:
            self.telemetry.metrics.counter(
                "replication_translog_skipped_total",
                shard=str(self.primary.shard_id),
            ).inc(skipped)
        for entry in self.replica_translog[:valid]:
            source = dict(entry.source or {})
            if entry.op == "index":
                if not engine.contains(entry.doc_id) or engine.get(
                    entry.doc_id
                ).source != source:
                    engine.index(source)
            elif entry.op == "update":
                if not engine.contains(entry.doc_id):
                    engine.index(source)
                elif engine.get(entry.doc_id).source != source:
                    # Translog updates carry the full merged source, so the
                    # update is idempotent when re-applied over segment state.
                    engine.update(entry.doc_id, source)
            elif entry.op == "delete" and engine.contains(entry.doc_id):
                engine.delete(entry.doc_id)
        return engine

    def rehome(self, new_primary: ShardEngine) -> None:
        """Re-attach this replica to a freshly promoted primary (failover).

        The promoted engine's sealed segments and translog are the new
        authoritative epoch: pending ship queues from the dead primary are
        dropped (the next round's segment diff reconciles the replica
        against the new primary's segment list) and the replica's translog
        is re-seeded from the new primary so a second failover replays the
        new epoch, not the old one.
        """
        self.primary = new_primary
        new_primary.on_refresh(self._on_primary_refresh)
        new_primary.on_merge(self._on_primary_merge)
        self._pending_refreshed = []
        self._pending_merged = []
        self.replica_translog = list(new_primary.translog)
