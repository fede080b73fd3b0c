"""Tests for segments, buffer, translog, merging and the shard engine."""

from __future__ import annotations

import pytest

from repro.errors import (
    DocumentNotFoundError,
    InvalidDocumentError,
    TranslogCorruptionError,
)
from repro.storage import (
    EngineConfig,
    Schema,
    ShardEngine,
    TieredMergePolicy,
    Translog,
)
from repro.storage.merge import merge_segments
from repro.storage.segment import Segment
from tests.conftest import make_log


class TestTranslog:
    def test_append_assigns_sequences(self):
        log = Translog()
        e0 = log.append("index", 1, {"a": 1})
        e1 = log.append("delete", 1, None)
        assert (e0.sequence, e1.sequence) == (0, 1)

    def test_entries_verify_checksums(self):
        log = Translog()
        entry = log.append("index", 1, {"a": 1})
        assert entry.verify()

    def test_recover_replays_after_flush_point(self):
        log = Translog()
        log.append("index", 1, {"a": 1})
        log.mark_flushed(0)
        log.append("index", 2, {"a": 2})
        replayed = list(log.recover())
        assert [e.doc_id for e in replayed] == [2]

    def test_corrupted_tail_ignored(self):
        log = Translog()
        log.append("index", 1, {"a": 1})
        log.append("index", 2, {"a": 2})
        log.corrupt_entry(1)
        assert [e.doc_id for e in log.recover()] == [1]

    def test_corrupted_middle_raises(self):
        log = Translog()
        log.append("index", 1, {})
        log.append("index", 2, {})
        log.append("index", 3, {})
        log.corrupt_entry(1)
        with pytest.raises(TranslogCorruptionError):
            list(log.recover())

    def test_truncate_drops_flushed_entries(self):
        log = Translog()
        for i in range(5):
            log.append("index", i, {})
        log.mark_flushed(2)
        assert log.truncate_before_flush() == 3
        assert len(log) == 2

    def test_checksum_handles_mixed_type_keys(self):
        # Regression: sorted(source.items()) raised TypeError when a source
        # mixed key types (int-keyed sub-ids next to str fields); checksums
        # now canonicalize by repr of the key.
        log = Translog()
        source = {"tenant": "t1", 7: "int-keyed", (1, 2): "tuple-keyed"}
        entry = log.append("index", 1, source)
        assert entry.verify()
        assert [e.doc_id for e in log.recover()] == [1]

    def test_checksum_mixed_keys_is_order_independent(self):
        log_a, log_b = Translog(), Translog()
        a = log_a.append("index", 1, {7: "x", "b": 1})
        b = log_b.append("index", 1, {"b": 1, 7: "x"})
        assert a.checksum == b.checksum

    def test_checksum_is_independent_of_key_order(self):
        source = make_log(1, tenant="t1", created=2.5)
        reordered = dict(reversed(list(source.items())))
        assert list(reordered) != list(source)
        a = Translog().append("index", 1, source)
        b = Translog().append("index", 1, reordered)
        assert a.checksum == b.checksum

    def test_unmarshallable_value_logs_verifies_and_recovers(self):
        class Tag:
            """Hashable, so a KEYWORD field accepts it; marshal does not."""

            def __repr__(self) -> str:
                return "Tag()"

        engine = ShardEngine(EngineConfig(schema=Schema.transaction_logs()))
        tag = Tag()
        engine.index(make_log(1, tenant="t", created=1.0, status=tag))
        (entry,) = engine.translog.recover()
        assert entry.verify() and entry.source["status"] is tag
        engine.simulate_crash()
        assert engine.recover_from_translog() == 1
        assert engine.get(1)["status"] is tag

    def test_changing_one_field_changes_the_checksum(self):
        source = make_log(1, tenant="t", created=1.0, status=1, amount=0.0,
                          attributes="a:1;b:2", buyer_nickname="bob", seller_nickname=None)
        logged = Translog().append("index", 1, source).checksum
        for name, value in source.items():
            # Another value, an equal one of another type, and no value.
            for other in ("x", value, 1, True, 1.0, -0.0, None):
                if type(other) is type(value) and other == value:
                    other = (value, "changed")
                changed = {**source, name: other}
                assert Translog().append("index", 1, changed).checksum != logged, (name, other)

class TestSegmentLifecycle:
    def test_sealed_segment_rejects_writes(self, engine_config):
        from repro.storage.document import Document

        segment = Segment(engine_config.spec(), base_row_id=0)
        segment.add_document(Document.from_source(make_log(1), engine_config.schema))
        segment.seal()
        with pytest.raises(Exception):
            segment.add_document(Document.from_source(make_log(2), engine_config.schema))

    def test_deletes_filtered_from_postings(self, engine_config):
        from repro.storage.document import Document

        segment = Segment(engine_config.spec(), base_row_id=0)
        r0, _, _ = segment.add_document(Document.from_source(make_log(1, status=1), engine_config.schema))
        segment.add_document(Document.from_source(make_log(2, status=1), engine_config.schema))
        segment.mark_deleted(r0)
        assert list(segment.term_postings("status", 1)) == [1]
        assert segment.live_count == 1


class TestEngineWritePath:
    def test_index_then_refresh_makes_searchable(self, engine):
        engine.index(make_log(1, tenant="t", status=2))
        assert engine.doc_count() == 0  # near-real-time: not yet visible
        engine.refresh()
        assert engine.doc_count() == 1
        assert engine.term_postings("status", 2)

    def test_get_reads_own_writes_pre_refresh(self, engine):
        engine.index(make_log(7, tenant="t"))
        assert engine.get(7).doc_id == 7

    def test_update_replaces_document(self, engine):
        engine.index(make_log(1, status=0))
        engine.update(1, {"status": 3})
        engine.refresh()
        assert list(engine.term_postings("status", 3)) != []
        assert not engine.term_postings("status", 0)
        assert engine.doc_count() == 1

    def test_update_missing_doc_raises(self, engine):
        with pytest.raises(DocumentNotFoundError):
            engine.update(999, {"status": 1})

    def test_delete_removes_document(self, engine):
        engine.index(make_log(1))
        engine.refresh()
        engine.delete(1)
        assert engine.doc_count() == 0
        with pytest.raises(DocumentNotFoundError):
            engine.get(1)

    def test_reinsert_same_id_replaces(self, engine):
        engine.index(make_log(1, status=0))
        engine.index(make_log(1, status=2))
        engine.refresh()
        assert engine.doc_count() == 1
        assert engine.get(1).get("status") == 2

    def test_auto_refresh_threshold(self, engine_config):
        from dataclasses import replace

        config = replace(engine_config, auto_refresh_every=10)
        engine = ShardEngine(config)
        for i in range(25):
            engine.index(make_log(i))
        assert engine.stats.refreshes >= 2
        assert engine.doc_count() >= 20

    def test_row_ids_monotone_across_refreshes(self, engine):
        ids = [engine.index(make_log(i)) for i in range(5)]
        engine.refresh()
        ids += [engine.index(make_log(i + 100)) for i in range(5)]
        engine.refresh()
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)


class TestCrashRecovery:
    def test_unrefreshed_writes_recovered_from_translog(self, engine):
        for i in range(5):
            engine.index(make_log(i, tenant="t"))
        engine.flush()  # first 5 durable in segments
        for i in range(5, 8):
            engine.index(make_log(i, tenant="t"))
        engine.simulate_crash()  # loses the buffer
        assert engine.total_docs_including_buffer() == 5
        replayed = engine.recover_from_translog()
        assert replayed == 3
        engine.refresh()
        assert engine.doc_count() == 8

    def test_recovery_replays_updates_and_deletes(self, engine):
        engine.index(make_log(1, status=0))
        engine.flush()
        engine.update(1, {"status": 3})
        engine.index(make_log(2))
        engine.delete(2)
        engine.simulate_crash()
        engine.recover_from_translog()
        engine.refresh()
        assert engine.get(1).get("status") == 3
        assert not engine.contains(2)


class TestMerging:
    def _spec(self, engine_config):
        return engine_config.spec()

    def test_merge_preserves_row_ids_and_postings(self, engine_config):
        from repro.storage.document import Document

        spec = self._spec(engine_config)
        seg_a = Segment(spec, base_row_id=0)
        seg_b = Segment(spec, base_row_id=2)
        seg_a.add_document(Document.from_source(make_log(1, status=1), engine_config.schema))
        seg_a.add_document(Document.from_source(make_log(2, status=2), engine_config.schema))
        seg_b.add_document(Document.from_source(make_log(3, status=1), engine_config.schema))
        seg_a.seal(), seg_b.seal()
        merged = merge_segments([seg_a, seg_b], spec)
        assert list(merged.term_postings("status", 1)) == [0, 2]
        assert merged.live_count == 3
        assert merged.generation == 1

    def test_merge_reclaims_deletes(self, engine_config):
        from repro.storage.document import Document

        spec = self._spec(engine_config)
        seg = Segment(spec, base_row_id=0)
        r0, _, _ = seg.add_document(Document.from_source(make_log(1), engine_config.schema))
        seg.add_document(Document.from_source(make_log(2), engine_config.schema))
        seg.mark_deleted(r0)
        seg.seal()
        merged = merge_segments([seg], spec)
        assert merged.live_count == 1
        assert merged.source(1)["transaction_id"] == 2
        assert merged.source(0) is None

    def test_tiered_policy_triggers_at_merge_factor(self, engine_config):
        from dataclasses import replace

        config = replace(engine_config, auto_refresh_every=None)
        engine = ShardEngine(config, merge_policy=TieredMergePolicy(merge_factor=3))
        for batch in range(3):
            for i in range(5):
                engine.index(make_log(batch * 10 + i))
            engine.refresh()
        assert engine.stats.merges >= 1
        assert engine.segment_count() < 3
        assert engine.doc_count() == 15

    def test_merge_listener_fired(self, engine_config):
        from dataclasses import replace

        events = []
        config = replace(engine_config, auto_refresh_every=None)
        engine = ShardEngine(config, merge_policy=TieredMergePolicy(merge_factor=2))
        engine.on_merge(lambda merged, victims: events.append((merged, victims)))
        for batch in range(2):
            engine.index(make_log(batch))
            engine.refresh()
        assert len(events) == 1
        merged, victims = events[0]
        assert len(victims) == 2

    def test_queries_identical_before_and_after_merge(self, engine_config):
        from dataclasses import replace

        config = replace(engine_config, auto_refresh_every=None)
        no_merge = ShardEngine(config, merge_policy=TieredMergePolicy(merge_factor=99))
        merging = ShardEngine(config, merge_policy=TieredMergePolicy(merge_factor=2))
        for e in (no_merge, merging):
            for batch in range(4):
                for i in range(3):
                    e.index(make_log(batch * 10 + i, tenant="t", status=i % 2))
                e.refresh()
        assert merging.stats.merges >= 1
        assert (
            list(no_merge.term_postings("status", 1))
            == list(merging.term_postings("status", 1))
        )


class TestSealedSegmentsStayPut:
    """Replication ships sealed segments by id (§5.2): a segment a replica
    holds answers the same after the primary writes, refreshes and merges
    on. Only deletes reach it, through its live bitmap."""

    def _engine(self, engine_config, merge_factor):
        from dataclasses import replace

        config = replace(engine_config, auto_refresh_every=None)
        return ShardEngine(config, merge_policy=TieredMergePolicy(merge_factor=merge_factor))

    def test_later_writes_and_refreshes_leave_a_sealed_segment_unchanged(self, engine_config):
        engine = self._engine(engine_config, merge_factor=99)
        for i in range(3):
            engine.index(make_log(i, status=1))
        sealed = engine.refresh()
        for i in range(3, 6):
            engine.index(make_log(i, status=1))
        engine.refresh()
        assert list(sealed.term_postings("status", 1)) == [0, 1, 2]
        assert sealed.live_count == 3
        assert list(engine.term_postings("status", 1)) == list(range(6))

    def test_merge_victims_keep_answering_after_the_merge(self, engine_config):
        engine = self._engine(engine_config, merge_factor=2)
        engine.index(make_log(0, status=1))
        first = engine.refresh()
        engine.index(make_log(1, status=1))
        second = engine.refresh()
        assert engine.stats.merges == 1
        assert first not in engine.segments and second not in engine.segments
        assert list(first.term_postings("status", 1)) == [0]
        assert list(second.term_postings("status", 1)) == [1]
        assert list(engine.term_postings("status", 1)) == [0, 1]

    def test_a_delete_reaches_the_sealed_segment_holding_the_doc(self, engine_config):
        engine = self._engine(engine_config, merge_factor=99)
        engine.index(make_log(1, status=1))
        engine.index(make_log(2, status=1))
        sealed = engine.refresh()
        engine.delete(1)
        assert list(sealed.term_postings("status", 1)) == [1]
        assert sealed.live_count == 1


class TestIndexingCost:
    def test_text_costs_per_token(self, engine):
        cost0 = engine.stats.indexing_cost
        engine.index(make_log(1, title="alpha beta gamma delta"))
        engine.index(make_log(2, title="alpha"))
        # First doc has 3 more text tokens than the second.
        assert engine.stats.indexing_cost > cost0

    def test_frequency_indexing_reduces_cost(self, engine_config):
        from dataclasses import replace

        attrs = ";".join(f"attr_{i:04d}:v" for i in range(20))
        full = ShardEngine(engine_config)
        limited = ShardEngine(
            replace(engine_config, indexed_subattributes=frozenset({"attr_0001"}))
        )
        full.index(make_log(1, attributes=attrs))
        limited.index(make_log(1, attributes=attrs))
        assert limited.stats.indexing_cost < full.stats.indexing_cost

    @pytest.mark.parametrize("indexed", [None, frozenset({"attr_0001", "attr_0007"})])
    def test_cost_equals_reference_formula_over_generated_stream(
        self, engine_config, generator, indexed
    ):
        """``stats.indexing_cost`` is counted by ``Segment.add_document``
        as it writes index entries; the formula the engine used to evaluate
        separately stays here as the independent reference."""
        from dataclasses import replace

        from repro.storage.analysis import StandardAnalyzer
        from repro.storage.document import FieldType, parse_attributes

        config = replace(engine_config, indexed_subattributes=indexed)
        analyzer = StandardAnalyzer()

        def reference_cost(source: dict) -> float:
            cost = 0.0
            for name, value in source.items():
                if value is None:
                    continue
                ftype = config.schema.type_of(name)
                if ftype is FieldType.TEXT:
                    cost += len(analyzer.analyze(str(value)))
                elif ftype is FieldType.ATTRIBUTES:
                    cost += sum(
                        1
                        for key in parse_attributes(str(value))
                        if indexed is None or key in indexed
                    )
                else:
                    cost += 1
            return cost + len(config.composite_columns)

        engine = ShardEngine(config)
        docs = [generator.generate(created_time=float(i)) for i in range(200)]
        docs.append(make_log(10_000, status=None, title="", attributes=""))
        expected = 0.0
        for doc in docs:
            engine.index(doc)
            expected += reference_cost(doc)
            assert engine.stats.indexing_cost == expected
        assert expected > 0


def _engine_state(engine: ShardEngine) -> tuple:
    return (
        len(engine.buffer),
        len(engine.translog),
        engine.stats.writes,
        engine.stats.deletes,
        sorted(engine._doc_locations),
        list(engine.term_postings("tenant_id", "t1")),
        list(engine.numeric_range("amount", None, None)),
    )


class TestValidateBeforeLog:
    """A rejected write leaves no trace: not in the translog, not in the
    buffer, not searchable after the next refresh — and the shard still
    recovers from its log."""

    #: A non-numeric NUMERIC value, an unhashable KEYWORD value, and an
    #: unhashable value in an undeclared field (KEYWORD by default).
    BAD = ({"amount": "abc"}, {"status": ["a"]}, {"extra": {"a": 1}})

    def _seed(self, engine: ShardEngine) -> None:
        engine.index(make_log(1, amount=5.0))
        engine.refresh()
        engine.index(make_log(2, amount=7.0))

    def _assert_untouched(self, engine: ShardEngine, before: tuple) -> None:
        assert _engine_state(engine) == before
        engine.refresh()
        assert list(engine.term_postings("tenant_id", "t1")) == [0, 1]
        assert [d["amount"] for d in engine.fetch(
            engine.numeric_range("amount", None, None)
        )] == [5.0, 7.0]
        engine.simulate_crash()
        engine.recover_from_translog()
        assert engine.contains(1) and engine.contains(2) and not engine.contains(3)

    def test_rejected_index_leaves_no_trace(self, engine):
        self._seed(engine)
        before = _engine_state(engine)
        for bad in self.BAD:
            with pytest.raises(InvalidDocumentError, match=next(iter(bad))):
                engine.index(make_log(3, **bad))
        self._assert_untouched(engine, before)

    def test_rejected_bulk_index_logs_nothing_of_the_batch(self, engine):
        self._seed(engine)
        before = _engine_state(engine)
        for bad in self.BAD:
            with pytest.raises(InvalidDocumentError, match=next(iter(bad))):
                engine.bulk_index([make_log(3), make_log(4, **bad), make_log(5)])
        self._assert_untouched(engine, before)

    def test_rejected_update_keeps_the_good_version(self, engine):
        self._seed(engine)
        before = _engine_state(engine)
        for bad in self.BAD:
            with pytest.raises(InvalidDocumentError, match=next(iter(bad))):
                engine.update(1, bad)
        assert engine.get(1)["amount"] == 5.0
        self._assert_untouched(engine, before)

    def test_an_update_keeps_the_id_its_row_is_stored_under(self, engine):
        """A stored row's id is its source's id field: an update may name
        that field with the id the row holds, and is rejected, before the
        log, for any other value."""
        self._seed(engine)
        before = _engine_state(engine)
        with pytest.raises(InvalidDocumentError, match="transaction_id"):
            engine.update(1, {"transaction_id": 9, "amount": 6.0})
        assert not engine.contains(9) and engine.get(1)["amount"] == 5.0
        self._assert_untouched(engine, before)
        engine.update(1, {"transaction_id": 1, "amount": 6.0})
        engine.refresh()
        (source,) = engine.fetch(engine.numeric_range("amount", 6.0, 6.0))
        assert source["transaction_id"] == 1 and engine.get(1).source is source

    def test_none_and_numeric_strings_are_accepted(self, engine):
        engine.index(make_log(1, amount=None, quantity="3"))
        engine.refresh()
        assert list(engine.numeric_range("quantity", 3, 3)) == [0]

