"""Tests for the write client (§3.1)."""

from __future__ import annotations


from repro.client import BatchDecision, WriteClient, WriteClientConfig
from repro.routing import DynamicSecondaryHashRouting, HashRouting
from tests.conftest import make_log


class _Sink:
    """Collects dispatched batches per shard."""

    def __init__(self):
        self.batches: list[tuple[int, list]] = []

    def __call__(self, shard_id: int, sources: list) -> None:
        self.batches.append((shard_id, sources))

    def all_sources(self):
        return [s for _, batch in self.batches for s in batch]


class TestOneHopRouting:
    def test_writes_dispatched_to_policy_shard(self):
        policy = HashRouting(64)
        sink = _Sink()
        client = WriteClient(policy, sink)
        client.submit(make_log(1, tenant="t"))
        client.flush()
        (shard_id, batch), = sink.batches
        assert shard_id == policy.route_write("t", 1, 0.0)
        assert batch[0]["transaction_id"] == 1

    def test_dynamic_policy_spread_respected(self):
        policy = DynamicSecondaryHashRouting(64)
        policy.rules.update(0.0, 8, "hot")
        sink = _Sink()
        client = WriteClient(policy, sink)
        for i in range(200):
            client.submit(make_log(i, tenant="hot", created=1.0))
        client.flush()
        shards = {shard for shard, _ in sink.batches}
        assert len(shards) == 8


class TestWorkloadBatching:
    def test_repeated_row_modifications_coalesced(self):
        sink = _Sink()
        client = WriteClient(HashRouting(8), sink)
        assert client.submit(make_log(1, status=0)) is BatchDecision.QUEUED
        assert client.submit(make_log(1, status=1)) is BatchDecision.COALESCED
        assert client.submit(make_log(1, status=2)) is BatchDecision.COALESCED
        client.flush()
        sources = sink.all_sources()
        assert len(sources) == 1
        assert sources[0]["status"] == 2  # only the eventual state materializes

    def test_different_rows_not_coalesced(self):
        sink = _Sink()
        client = WriteClient(HashRouting(8), sink)
        client.submit(make_log(1))
        client.submit(make_log(2))
        client.flush()
        assert len(sink.all_sources()) == 2

    def test_stats_track_decisions(self):
        sink = _Sink()
        client = WriteClient(HashRouting(8), sink)
        client.submit(make_log(1))
        client.submit(make_log(1))
        client.flush()
        assert client.stats["queued"] == 1
        assert client.stats["coalesced"] == 1
        assert client.stats["dispatched"] == 1


class TestHotspotIsolation:
    def test_hotspot_writes_routed_to_separate_queue(self):
        sink = _Sink()
        client = WriteClient(HashRouting(8), sink)
        client.mark_hotspot("whale")
        decision = client.submit(make_log(1, tenant="whale"))
        assert decision is BatchDecision.ISOLATED
        assert client.stats["isolated"] == 1 and not sink.batches
        assert client.flush() == 1

    def test_a_new_client_isolates_no_tenant(self):
        """Hotspots are learned at runtime; a client starts with none."""
        sink = _Sink()
        client = WriteClient(HashRouting(8), sink)
        decisions = {client.submit(make_log(i, tenant=f"t{i % 3}")) for i in range(9)}
        assert decisions == {BatchDecision.QUEUED}
        assert client.stats["isolated"] == 0
        assert client.flush() == 9

    def test_marking_isolates_only_the_marked_tenant(self):
        client = WriteClient(HashRouting(8), _Sink())
        client.mark_hotspot("whale")
        assert client.submit(make_log(1, tenant="whale")) is BatchDecision.ISOLATED
        assert client.submit(make_log(2, tenant="minnow")) is BatchDecision.QUEUED

    def test_hotspot_queue_coalesces_repeated_row_modifications(self):
        sink = _Sink()
        client = WriteClient(HashRouting(8), sink)
        client.mark_hotspot("whale")
        assert client.submit(make_log(1, tenant="whale", status=0)) is BatchDecision.ISOLATED
        assert client.submit(make_log(1, tenant="whale", status=3)) is BatchDecision.COALESCED
        assert client.flush() == 1
        assert [s["status"] for s in sink.all_sources()] == [3]

    def test_main_queue_flushes_before_hotspot_queue(self):
        sink = _Sink()
        client = WriteClient(HashRouting(8), sink)
        client.mark_hotspot("whale")
        client.submit(make_log(1, tenant="whale"))
        client.submit(make_log(2, tenant="normal"))
        client.flush()
        tenants_in_order = [batch[0]["tenant_id"] for _, batch in sink.batches]
        assert tenants_in_order == ["normal", "whale"]

class TestBatchDispatch:
    def test_batch_size_respected(self):
        sink = _Sink()
        client = WriteClient(
            HashRouting(1), sink, WriteClientConfig(batch_size=10)
        )
        for i in range(25):
            client.submit(make_log(i))
        client.flush()
        sizes = [len(batch) for _, batch in sink.batches]
        assert sizes == [10, 10, 5]

    def test_auto_flush_at_coalesce_window(self):
        sink = _Sink()
        client = WriteClient(
            HashRouting(8), sink, WriteClientConfig(coalesce_window=5)
        )
        for i in range(5):
            client.submit(make_log(i))
        # Window reached: queue flushed without an explicit flush() call.
        assert len(sink.all_sources()) == 5
        assert client.flush() == 0


class TestCrossQueueCoalescing:
    """Regression: coalescing only checked the currently-chosen queue, so a
    hotspot flip between two modifications of the same row enqueued a
    duplicate and later dispatched the stale pre-coalesce state."""

    def test_hotspot_flip_migrates_pending_write(self):
        sink = _Sink()
        client = WriteClient(HashRouting(8), sink)
        assert client.submit(make_log(1, tenant="t", status=0)) is BatchDecision.QUEUED
        client.mark_hotspot("t")
        assert client.submit(make_log(1, tenant="t", status=5)) is BatchDecision.COALESCED
        client.flush()
        sources = sink.all_sources()
        assert len(sources) == 1  # no duplicate dispatch
        assert sources[0]["status"] == 5  # eventual state, not the stale one

    def test_flip_does_not_merge_distinct_rows(self):
        sink = _Sink()
        client = WriteClient(HashRouting(8), sink)
        client.submit(make_log(1, tenant="t"))
        client.mark_hotspot("t")
        client.submit(make_log(2, tenant="t"))
        client.flush()
        assert len(sink.all_sources()) == 2


class _FlakySink(_Sink):
    """Fails the first *failures* dispatch attempts, then heals."""

    def __init__(self, failures: int):
        super().__init__()
        self.failures = failures
        self.attempts = 0

    def __call__(self, shard_id: int, sources: list) -> None:
        self.attempts += 1
        if self.attempts <= self.failures:
            raise ConnectionError("shard unreachable")
        super().__call__(shard_id, sources)


class TestDispatchRetryAndDeadLetters:
    def test_transient_failure_retried_until_success(self):
        sink = _FlakySink(failures=2)
        slept = []
        client = WriteClient(
            HashRouting(8),
            sink,
            WriteClientConfig(dispatch_retries=3, backoff_base_seconds=0.01),
            sleep=slept.append,
        )
        client.submit(make_log(1))
        assert client.flush() == 1
        assert sink.all_sources()[0]["transaction_id"] == 1
        assert client.dead_letter_count() == 0
        # Exponential backoff: one sleep per retry, doubling.
        assert slept == [0.01, 0.02]

    def test_exhausted_retries_divert_to_dead_letters(self):
        sink = _FlakySink(failures=100)
        client = WriteClient(
            HashRouting(8),
            sink,
            WriteClientConfig(dispatch_retries=2, backoff_base_seconds=0.0),
        )
        client.submit(make_log(1))
        assert client.flush() == 0  # nothing acknowledged
        assert client.dead_letter_count() == 1
        assert sink.attempts == 3  # initial try + 2 retries

    def test_one_dead_shard_does_not_wedge_others(self):
        class _OneDeadShard(_Sink):
            def __call__(self, shard_id, sources):
                if shard_id == self.dead:
                    raise ConnectionError("down")
                super().__call__(shard_id, sources)

        policy = HashRouting(8)
        sink = _OneDeadShard()
        sink.dead = policy.route_write("t", 1, 0.0)
        client = WriteClient(
            policy, sink, WriteClientConfig(dispatch_retries=1, backoff_base_seconds=0.0)
        )
        for i in range(1, 30):
            client.submit(make_log(i, tenant=f"t{i % 4}" if i > 1 else "t"))
        sent = client.flush()
        assert sent + client.dead_letter_count() == 29
        assert client.dead_letter_count() >= 1
        assert sent >= 1  # healthy shards still drained

    def test_redrive_after_heal_delivers_everything(self):
        sink = _FlakySink(failures=3)
        client = WriteClient(
            HashRouting(8),
            sink,
            WriteClientConfig(dispatch_retries=2, backoff_base_seconds=0.0),
        )
        client.submit(make_log(1, status=0))
        client.flush()
        assert client.dead_letter_count() == 1
        # Sink healed (attempts now past `failures`): redrive re-queues, flush lands.
        assert client.redrive_dead_letters() == 1
        assert client.flush() == 1
        assert client.dead_letter_count() == 0
        assert sink.all_sources()[0]["transaction_id"] == 1

    def test_redrive_folds_under_newer_pending_write(self):
        sink = _FlakySink(failures=100)
        client = WriteClient(
            HashRouting(8),
            sink,
            WriteClientConfig(dispatch_retries=0, backoff_base_seconds=0.0),
        )
        client.submit(make_log(1, status=0))
        client.flush()
        assert client.dead_letter_count() == 1
        # A newer modification of the same row arrives before the redrive:
        # the dead letter folds *underneath* it — newer fields win.
        client.submit(make_log(1, status=7))
        client.redrive_dead_letters()
        sink.failures = 0  # heal
        client.flush()
        sources = sink.all_sources()
        assert len(sources) == 1
        assert sources[0]["status"] == 7

    def test_retry_and_dead_letter_counters(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        sink = _FlakySink(failures=100)
        client = WriteClient(
            HashRouting(8),
            sink,
            WriteClientConfig(dispatch_retries=2, backoff_base_seconds=0.0),
            telemetry=telemetry,
        )
        client.submit(make_log(1))
        client.flush()
        assert telemetry.metrics.get("write_client_retries_total").value == 2
        assert telemetry.metrics.get("write_client_dead_letters_total").value == 1

    def test_config_validation(self):
        import pytest

        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            WriteClientConfig(dispatch_retries=-1)
        with pytest.raises(ConfigurationError):
            WriteClientConfig(backoff_base_seconds=-0.5)
