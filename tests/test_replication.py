"""Tests for logical and physical replication (§5.2, Figure 9)."""

from __future__ import annotations

import pytest

from repro.replication import (
    LogicalReplicator,
    PhysicalReplicator,
    ReplicationAccounting,
)
from repro.storage import ShardEngine, TieredMergePolicy
from tests.conftest import make_log


@pytest.fixture()
def pair(engine_config):
    primary = ShardEngine(engine_config, shard_id=1)
    replica = ShardEngine(engine_config, shard_id=1)
    return primary, replica


class TestLogicalReplication:
    def test_replica_mirrors_primary(self, pair):
        primary, replica = pair
        repl = LogicalReplicator(primary, replica)
        for i in range(10):
            repl.index(make_log(i, tenant="t"))
        repl.refresh()
        assert repl.in_sync()
        assert replica.doc_count() == 10

    def test_updates_and_deletes_replicated(self, pair):
        primary, replica = pair
        repl = LogicalReplicator(primary, replica)
        repl.index(make_log(1, status=0))
        repl.index(make_log(2))
        repl.update(1, {"status": 9})
        repl.delete(2)
        repl.refresh()
        assert replica.get(1).get("status") == 9
        assert not replica.contains(2)

    def test_cpu_doubles_under_logical_replication(self, pair):
        primary, replica = pair
        repl = LogicalReplicator(primary, replica)
        for i in range(20):
            repl.index(make_log(i))
        # Replica re-executed everything: its indexing cost equals primary's.
        assert repl.accounting.replica_cpu == pytest.approx(
            primary.stats.indexing_cost
        )

    def test_visibility_immediate(self, pair):
        primary, replica = pair
        repl = LogicalReplicator(primary, replica)
        repl.index(make_log(1))
        repl.refresh(now=42.0)
        assert max(repl.accounting.visibility_delays, default=0.0) == 0.0


class TestPhysicalReplicationBasics:
    def test_refreshed_segments_copied(self, engine_config):
        primary = ShardEngine(engine_config, shard_id=0)
        repl = PhysicalReplicator(primary)
        for i in range(10):
            primary.index(make_log(i))
        primary.refresh()
        repl.replicate()
        assert repl.in_sync()
        assert repl.replica_doc_count() == 10

    def test_segment_diff_requests_only_missing(self, engine_config):
        primary = ShardEngine(engine_config, shard_id=0)
        repl = PhysicalReplicator(primary)
        primary.index(make_log(1))
        primary.refresh()
        repl.replicate()
        copied_first = repl.accounting.segments_copied
        primary.index(make_log(2))
        primary.refresh()
        repl.replicate()
        # Second round copies only the new segment.
        assert repl.accounting.segments_copied == copied_first + 1

    def test_stale_segments_deleted_on_replica(self, engine_config):
        from dataclasses import replace

        config = replace(engine_config, auto_refresh_every=None)
        primary = ShardEngine(config, merge_policy=TieredMergePolicy(merge_factor=2))
        repl = PhysicalReplicator(primary)
        primary.index(make_log(1))
        primary.refresh()
        repl.replicate()
        assert len(repl.replica_segments) == 1
        # Next refresh triggers a merge replacing both segments with one.
        primary.index(make_log(2))
        primary.refresh()
        repl.replicate()
        assert repl.in_sync()
        primary_ids = {s.segment_id for s in primary.segments}
        assert set(repl.replica_segments) == primary_ids

    def test_replica_cpu_far_below_logical(self, engine_config):
        primary_l = ShardEngine(engine_config)
        replica_l = ShardEngine(engine_config)
        logical = LogicalReplicator(primary_l, replica_l)
        primary_p = ShardEngine(engine_config)
        physical = PhysicalReplicator(primary_p)
        for i in range(50):
            logical.index(make_log(i))
            primary_p.index(make_log(i))
        logical.refresh()
        primary_p.refresh()
        physical.replicate()
        assert physical.accounting.replica_cpu < logical.accounting.replica_cpu * 0.2

class TestTranslogSync:
    def test_translog_synced_in_real_time(self, engine_config):
        primary = ShardEngine(engine_config)
        repl = PhysicalReplicator(primary)
        for i in range(5):
            primary.index(make_log(i))
            repl.sync_translog_entry(primary.translog[-1])
        assert len(repl.replica_translog) == 5

    def test_replica_set_forwards_every_operation_as_the_primary_logged_it(
        self, engine_config
    ):
        from repro.replication import ReplicaSet

        rs = ReplicaSet(ShardEngine(engine_config, shard_id=0), num_replicas=2)
        for i in range(3):
            rs.index(make_log(i))
        rs.update(1, {"status": 9})
        rs.delete(2)
        logged = list(rs.primary.translog.recover())
        assert [(e.sequence, e.op, e.doc_id) for e in logged] == [
            (0, "index", 0), (1, "index", 1), (2, "index", 2),
            (3, "update", 1), (4, "delete", 2),
        ]
        for replicator in rs.replicators.values():
            assert replicator.replica_translog == logged
            assert replicator.valid_translog_prefix() == len(logged)

    def test_promote_replica_recovers_unreplicated_writes(self, engine_config):
        """Primary/replica switch: segments + translog replay must recover
        everything, including writes never shipped as segments."""
        primary = ShardEngine(engine_config)
        repl = PhysicalReplicator(primary)
        for i in range(5):
            primary.index(make_log(i, tenant="t"))
            repl.sync_translog_entry(primary.translog[-1])
        primary.refresh()
        repl.replicate()
        # Two more writes reach the translog but never a replicated segment.
        for i in range(5, 7):
            primary.index(make_log(i, tenant="t"))
            repl.sync_translog_entry(primary.translog[-1])
        promoted = repl.promote_replica()
        promoted.refresh()
        assert promoted.doc_count() == 7
        assert promoted.contains(6)

    def test_promote_replays_only_the_valid_translog_prefix(self, engine_config):
        """A forwarded entry that fails its checksum ends the replay at
        promote: neither it nor any entry after it is applied."""
        from repro.replication import ReplicaSet
        from repro.storage.translog import TranslogEntry

        rs = ReplicaSet(ShardEngine(engine_config, shard_id=0), num_replicas=1)
        for i in range(5):
            rs.index(make_log(i, tenant="t"))
        replicator = rs.replicators["replica-0"]
        log = replicator.replica_translog
        entry = log[2]
        log[2] = TranslogEntry(
            entry.sequence, entry.op, entry.doc_id, entry.source, entry.checksum ^ 0xFF
        )
        assert replicator.valid_translog_prefix() == 2
        promoted = replicator.promote_replica()
        promoted.refresh()
        assert promoted.doc_count() == 2
        assert [promoted.contains(i) for i in range(5)] == [True, True, False, False, False]


class TestPreReplication:
    def _merging_primary(self, engine_config):
        from dataclasses import replace

        config = replace(engine_config, auto_refresh_every=None)
        return ShardEngine(config, merge_policy=TieredMergePolicy(merge_factor=2))

    def test_merged_segments_shipped_ahead_of_rounds(self, engine_config):
        primary = self._merging_primary(engine_config)
        repl = PhysicalReplicator(primary)
        for batch in range(2):
            primary.index(make_log(batch))
            primary.refresh()  # second refresh triggers a merge
        assert primary.stats.merges == 1
        shipped = repl.run_prereplication()
        assert shipped == 1
        merged_id = primary.segments[-1].segment_id
        assert merged_id in repl.replica_segments

    def test_merged_segment_never_in_diff_after_prereplication(self, engine_config):
        primary = self._merging_primary(engine_config)
        repl = PhysicalReplicator(primary)
        for batch in range(2):
            primary.index(make_log(batch))
            primary.refresh()
        repl.run_prereplication()
        snapshot = repl.build_snapshot()
        missing, _ = repl.segment_diff(snapshot)
        merged_id = primary.segments[-1].segment_id
        assert merged_id not in missing

    def test_replicate_runs_prereplication_automatically(self, engine_config):
        primary = self._merging_primary(engine_config)
        repl = PhysicalReplicator(primary)
        for batch in range(2):
            primary.index(make_log(batch))
            primary.refresh()
        repl.replicate()
        assert repl.in_sync()


class TestVisibilityDelay:
    def test_visibility_delay_tracked_with_network_model(self, engine_config):
        primary = ShardEngine(engine_config)
        repl = PhysicalReplicator(primary, network_seconds_per_byte=0.001)
        repl.advance_clock(10.0)
        primary.index(make_log(1))
        primary.refresh()
        repl.replicate(now=10.5)
        assert max(repl.accounting.visibility_delays) > 0.0

    def test_accounting_skip_counts(self):
        acc = ReplicationAccounting()
        acc.note_skip()
        acc.charge_copy(100)
        assert acc.segments_skipped == 1
        assert acc.bytes_copied == 100
        assert acc.replica_cpu == pytest.approx(0.1)


class TestReplicaSet:
    def _make(self, engine_config, n=2):
        from repro.replication import ReplicaSet

        return ReplicaSet(ShardEngine(engine_config, shard_id=0), num_replicas=n)

    def test_all_replicas_receive_translog(self, engine_config):
        rs = self._make(engine_config)
        for i in range(5):
            rs.index(make_log(i))
        for status in rs.status():
            assert status.translog_entries == 5

    def test_replicate_all_syncs_everyone(self, engine_config):
        rs = self._make(engine_config, n=3)
        for i in range(10):
            rs.index(make_log(i))
        rs.primary.refresh()
        assert rs.replicate_all() == 3
        assert all(s.in_sync for s in rs.status())
        assert all(s.doc_count == 10 for s in rs.status())

    def test_promote_picks_most_up_to_date(self, engine_config):
        from repro.replication import ReplicaSet

        rs = ReplicaSet(ShardEngine(engine_config, shard_id=0), num_replicas=2)
        for i in range(4):
            rs.index(make_log(i))
        rs.primary.refresh()
        rs.replicate_all()
        # One replica misses the last translog entries (lagging network).
        rs.primary.index(make_log(99))
        entry = rs.primary.translog[-1]
        rs.replicators["replica-0"].sync_translog_entry(entry)
        promoted = rs.promote()
        promoted.refresh()
        assert promoted.contains(99)

    def test_promote_unknown_replica_rejected(self, engine_config):
        from repro.errors import ReplicationError

        rs = self._make(engine_config)
        with pytest.raises(ReplicationError):
            rs.promote("replica-99")

    def test_zero_replicas_rejected(self, engine_config):
        from repro.errors import ReplicationError
        from repro.replication import ReplicaSet

        with pytest.raises(ReplicationError):
            ReplicaSet(ShardEngine(engine_config), num_replicas=0)

    def test_deletes_forwarded(self, engine_config):
        rs = self._make(engine_config)
        rs.index(make_log(1))
        rs.delete(1)
        promoted = rs.promote()
        promoted.refresh()
        assert not promoted.contains(1)


class TestFailoverRegressions:
    """Regression tests for the failover bugs surfaced by chaos testing."""

    def _synced_pair(self, engine_config, docs=3):
        primary = ShardEngine(engine_config)
        repl = PhysicalReplicator(primary)
        for i in range(docs):
            primary.index(make_log(i, tenant="t", status=0))
            repl.sync_translog_entry(primary.translog[-1])
        primary.refresh()
        repl.replicate()
        return primary, repl

    def test_promote_replays_update_to_doc_in_shipped_segment(self, engine_config):
        """An unflushed ``update`` to a doc that already shipped inside a
        segment must survive failover — the replayed update carries newer
        state than the segment copy and used to be silently dropped."""
        primary, repl = self._synced_pair(engine_config)
        primary.update(1, {"status": 9})
        repl.sync_translog_entry(primary.translog[-1])
        promoted = repl.promote_replica()
        promoted.refresh()
        assert promoted.get(1).get("status") == 9

    def test_promote_replays_reindex_of_shipped_doc(self, engine_config):
        primary, repl = self._synced_pair(engine_config)
        primary.index(make_log(2, tenant="t", status=7))  # replace doc 2
        repl.sync_translog_entry(primary.translog[-1])
        promoted = repl.promote_replica()
        promoted.refresh()
        assert promoted.get(2).get("status") == 7
        assert promoted.doc_count() == 3

    def test_promote_replay_is_idempotent_for_shipped_docs(self, engine_config):
        primary, repl = self._synced_pair(engine_config, docs=4)
        promoted = repl.promote_replica()
        promoted.refresh()
        assert promoted.doc_count() == 4
        assert {doc.doc_id for _, doc in promoted.iter_documents()} == {0, 1, 2, 3}

    def test_replicaset_promote_rewires_the_set(self, engine_config):
        """After promote(), the set's primary must be the promoted engine,
        the promoted copy must leave the replicator map, and remaining
        replicas must follow the *new* primary — a write after failover
        used to land on the dead engine."""
        from repro.replication import ReplicaSet

        rs = ReplicaSet(ShardEngine(engine_config, shard_id=0), num_replicas=2)
        for i in range(4):
            rs.index(make_log(i))
        rs.primary.refresh()
        rs.replicate_all()
        old_primary = rs.primary
        promoted = rs.promote()
        assert rs.primary is promoted
        assert promoted is not old_primary
        assert len(rs.replicators) == 1
        for replicator in rs.replicators.values():
            assert replicator.primary is promoted
        # Write after failover: reaches the new primary, not the dead one.
        rs.index(make_log(99))
        assert promoted.contains(99)
        assert not old_primary.contains(99)
        rs.primary.refresh()
        assert rs.replicate_all() == 1
        for replicator in rs.replicators.values():
            assert replicator.in_sync()

    def test_second_failover_after_rewire(self, engine_config):
        from repro.replication import ReplicaSet

        rs = ReplicaSet(ShardEngine(engine_config, shard_id=0), num_replicas=2)
        for i in range(3):
            rs.index(make_log(i))
        rs.primary.refresh()
        rs.replicate_all()
        rs.promote()
        rs.index(make_log(50))
        rs.primary.refresh()
        rs.replicate_all()
        second = rs.promote()
        second.refresh()
        assert rs.primary is second
        assert second.contains(50)
        assert not rs.replicators

    def test_promote_election_skips_corrupted_translog(self, engine_config):
        """A replica whose translog tail is corrupted must lose the
        election to a clean one, so no acknowledged write is lost."""
        from repro.storage.translog import TranslogEntry
        from repro.replication import ReplicaSet

        rs = ReplicaSet(ShardEngine(engine_config, shard_id=0), num_replicas=2)
        for i in range(5):
            rs.index(make_log(i, tenant="t"))
        # Corrupt replica-0's copy of the last two entries (copies only:
        # the entry objects are shared with the primary's translog).
        log = rs.replicators["replica-0"].replica_translog
        for index in (len(log) - 2, len(log) - 1):
            entry = log[index]
            log[index] = TranslogEntry(
                entry.sequence, entry.op, entry.doc_id, entry.source,
                entry.checksum ^ 0xFF,
            )
        assert rs.replicators["replica-0"].valid_translog_prefix() == 3
        assert rs.replicators["replica-1"].valid_translog_prefix() == 5
        promoted = rs.promote()
        promoted.refresh()
        assert promoted.doc_count() == 5
        assert promoted.contains(4)

    def test_replicate_all_retries_transient_failures(self, engine_config):
        from repro.errors import ReplicationError
        from repro.replication import ReplicaSet

        rs = ReplicaSet(ShardEngine(engine_config, shard_id=0), num_replicas=1)
        rs.index(make_log(1))
        rs.primary.refresh()
        replicator = rs.replicators["replica-0"]
        original = replicator.replicate
        calls = {"n": 0}

        def flaky(now=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ReplicationError("transient")
            return original(now)

        replicator.replicate = flaky
        assert rs.replicate_all() == 1
        assert calls["n"] == 2

    def test_replicate_all_raises_after_retries_exhausted(self, engine_config):
        from repro.errors import ReplicationError
        from repro.replication import ReplicaSet

        rs = ReplicaSet(ShardEngine(engine_config, shard_id=0), num_replicas=1)
        rs.index(make_log(1))
        rs.primary.refresh()

        def always_fails(now=None):
            raise ReplicationError("permanently down")

        rs.replicators["replica-0"].replicate = always_fails
        with pytest.raises(ReplicationError, match="permanently down"):
            rs.replicate_all()


class TestReplicateRetries:
    """``ReplicaSet.replicate_all`` retries a failed round
    ``REPLICATE_RETRIES`` times, each on a later simulated clock."""

    def _set(self, engine_config, num_replicas=1, telemetry=None):
        from repro.replication import ReplicaSet

        rs = ReplicaSet(
            ShardEngine(engine_config, shard_id=0),
            num_replicas=num_replicas,
            telemetry=telemetry,
        )
        rs.index(make_log(1))
        rs.primary.refresh()
        return rs

    def test_a_down_replica_gets_one_attempt_plus_every_retry(self, engine_config):
        from repro.errors import ReplicationError
        from repro.replication.replicaset import REPLICATE_RETRIES

        rs = self._set(engine_config)
        attempts = []

        def always_fails(now=None):
            attempts.append(now)
            raise ReplicationError("down")

        rs.replicators["replica-0"].replicate = always_fails
        with pytest.raises(ReplicationError):
            rs.replicate_all(now=5.0)
        assert len(attempts) == 1 + REPLICATE_RETRIES
        # Exponential backoff on the simulated clock: 0, 0.01, 0.03, ...
        assert attempts == pytest.approx(
            [5.0 + 0.01 * (2**attempt - 1) for attempt in range(1 + REPLICATE_RETRIES)]
        )

    def test_success_on_the_last_retry_counts_as_in_sync(self, engine_config):
        from repro.errors import ReplicationError
        from repro.replication.replicaset import REPLICATE_RETRIES

        rs = self._set(engine_config)
        replicator = rs.replicators["replica-0"]
        replicate = replicator.replicate
        failures = {"left": REPLICATE_RETRIES}

        def fails_until_the_last_retry(now=None):
            if failures["left"]:
                failures["left"] -= 1
                raise ReplicationError("transient")
            return replicate(now)

        replicator.replicate = fails_until_the_last_retry
        assert rs.replicate_all() == 1
        assert replicator.in_sync()

    def test_a_down_replica_does_not_stop_the_others(self, engine_config):
        from repro.errors import ReplicationError
        from repro.telemetry import Telemetry
        from repro.replication.replicaset import REPLICATE_RETRIES

        telemetry = Telemetry()
        rs = self._set(engine_config, num_replicas=2, telemetry=telemetry)

        def always_fails(now=None):
            raise ReplicationError("down")

        rs.replicators["replica-0"].replicate = always_fails
        assert rs.replicate_all() == 1
        assert [s.in_sync for s in rs.status()] == [False, True]
        assert telemetry.metrics.get("replication_retries_total").value == REPLICATE_RETRIES
