"""The facade has one write pipeline: ``write(doc)`` is ``bulk_write([doc])``.

Three contracts: the two public methods are observably the same operation
under every optional subsystem; a written document is parsed exactly once
(in ``Segment.add_document``); and a rejected document leaves no trace —
in particular a bulk with one malformed document applies every other
document exactly once.
"""

from __future__ import annotations

import sys

import pytest

from repro.cluster import ClusterTopology
from repro.errors import InvalidDocumentError
from repro.esdb import ESDB, EsdbConfig
from repro.obsv import ObsvConfig, cat_hotkeys
from repro.slo import SloConfig, SloObjective
from repro.storage import EngineConfig, Schema, ShardEngine, document
from repro.storage.analysis import StandardAnalyzer
from repro.telemetry import TraceConfig
from repro.tenancy import TenancyConfig
from tests.conftest import make_log

TOPOLOGY = ClusterTopology(num_nodes=2, num_shards=8, replicas_per_shard=0)
#: Every write lands in the index slow log with its trace, at one level
#: whatever the wall clock does.
SLOWLOG_ALL = ObsvConfig(index_info_seconds=0.0, index_warn_seconds=3600.0)
#: Error-rate objectives only — latency objectives classify wall time.
ERROR_RATE_SLO = SloConfig(
    enabled=True,
    objectives=(SloObjective("write-availability", "write", "error_rate", 0.99),),
)

VARIANTS = {
    "default": {},
    "telemetry-off": {"telemetry_enabled": False},
    "obsv-off": {"obsv": ObsvConfig.off()},
    "tracing-off": {"tracing": TraceConfig.off()},
    "tenancy-on": {"tenancy": TenancyConfig.strict()},
    "slo-on": {"slo": ERROR_RATE_SLO, "tenancy": TenancyConfig.strict()},
}


def make_db(**overrides) -> ESDB:
    config = dict(topology=TOPOLOGY, consensus_interval=1.0, obsv=SLOWLOG_ALL)
    config.update(overrides)
    return ESDB(EsdbConfig(**config))


def skewed_stream() -> list[dict]:
    """400 documents at 250/s, 60% of them one tenant's (enough to overrun
    the strict governor and burn the availability budget), plus a same-id
    replace, a document storage rejects and one the routing pass rejects."""
    tenants = ["whale", "whale", "whale", "b", "c"] * 80
    docs = [
        make_log(i, tenant=tenant, created=i * 0.004, amount=float(i), quantity=i % 7)
        for i, tenant in enumerate(tenants)
    ]
    docs.append(make_log(3, tenant="b", created=1.7, amount=1.0, quantity=9))
    docs.append(make_log(900, tenant="b", created=1.7, amount="abc"))
    docs.append({"broken": True})
    return docs


def _tree(span, root: bool = True):
    """A span tree without what legitimately differs: durations, ids and
    the root's name (the trace id derives from it)."""
    return (
        "<root>" if root else span.name,
        dict(span.tags),
        [_tree(child, root=False) for child in span.children],
    )


def _labels(entry: dict) -> list:
    return sorted((k, v) for k, v in entry["labels"].items() if k != "instance")


def observable_state(db: ESDB) -> dict:
    snapshot = db.telemetry.metrics.snapshot()
    wall_clock_valued = ("esdb_bulk_", "tenancy_cpu_seconds_total")
    state = {
        "doc_shard": dict(db._doc_shard),
        "clock": db.now,
        "monitor": (db.monitor.throughput(), db.monitor.storage()),
        "engines": {
            shard_id: (engine.stats, len(engine.translog), len(engine.buffer))
            for shard_id, engine in db.engines.items()
        },
        "shard_writes": [shard.doc_count for shard in db.cluster.shards],
        "frequencies": dict(db._subattr_frequencies.write_counts),
        "events": [
            (e.time, e.kind, e.tenant, e.shard,
             {k: v for k, v in e.detail.items() if k != "op"})
            for e in db.events.query()
        ],
        "values": sorted(
            (entry["name"], _labels(entry), entry["value"])
            for entry in snapshot["counters"] + snapshot["gauges"]
            if not entry["name"].startswith(wall_clock_valued)
        ),
        "histogram_counts": sorted(
            (entry["name"], _labels(entry), entry["count"])
            for entry in snapshot["histograms"]
        ),
        "samples": db.timeseries.samples_taken,
    }
    if db.obsv is not None:
        state["slowlog"] = [
            (entry.level, entry.time, entry.tenant, entry.shard, entry.detail,
             entry.trace_id is None, entry.trace and _tree(entry.trace))
            for entry in db.obsv.index_slowlog.tail(10_000)
        ]
    if db.hotkeys is not None:
        state["hotkeys"] = cat_hotkeys(db).rows
    return state


class TestWriteIsTheOneDocumentBulkWrite:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_write_equals_bulk_write_of_one(self, variant):
        docs = skewed_stream()
        single, bulk, batch = (make_db(**VARIANTS[variant]) for _ in range(3))
        rejected = 0
        for doc in docs:
            item = bulk.bulk_write([doc]).items[0]
            try:
                shard_id = single.write(doc)
            except Exception as exc:
                rejected += 1
                assert not item.ok and type(item.error) is type(exc)
            else:
                assert item.ok and item.shard_id == shard_id
        assert rejected >= 2
        if single.slo is not None:
            assert single.events.counts().get("slo_burn")
        got, expected = observable_state(bulk), observable_state(single)
        for key in expected:
            assert got[key] == expected[key], key
        metrics = bulk.telemetry.metrics
        if bulk.telemetry.enabled:
            assert metrics.value("esdb_bulk_writes_total") == len(docs)
            assert metrics.value("esdb_bulk_docs_total") == len(docs) - rejected
        assert single.telemetry.metrics.label_cardinality("esdb_bulk_writes_total") == 0
        # One bulk of the whole stream places and stores the same
        # documents (its clock and admission run ahead of the applies,
        # so only ungoverned variants admit the same set).
        batch_result = batch.bulk_write(docs)
        if batch.governor is None:
            assert batch_result.applied == len(docs) - rejected
            assert batch._doc_shard == single._doc_shard
        sql = "SELECT * FROM transaction_logs WHERE quantity >= 3"
        for db in (single, bulk, batch):
            db.refresh()
        assert bulk.execute_sql(sql).rows == single.execute_sql(sql).rows
        if batch.governor is None:
            assert batch.execute_sql(sql).rows == single.execute_sql(sql).rows

    def test_root_span_is_named_after_the_public_method(self):
        single, bulk = make_db(), make_db()
        single.write(make_log(1))
        bulk.bulk_write([make_log(1)])
        single_root = single.telemetry.tracer.last_trace()
        bulk_root = bulk.telemetry.tracer.last_trace()
        assert (single_root.name, bulk_root.name) == ("write", "bulk_write")
        assert _tree(single_root) == _tree(bulk_root)
        assert [child.name for child in single_root.children] == [
            "write.route", "write.index",
        ]


class TestEachDocumentIsParsedOnce:
    @pytest.fixture()
    def calls(self, monkeypatch):
        """Count every ``parse_attributes`` and ``analyze`` call, whichever
        ``repro`` module makes it (``from x import f`` copies the reference,
        so each importing namespace is patched)."""
        counts = {"parse": 0, "analyze": 0}
        parse = document.parse_attributes
        analyze = StandardAnalyzer.analyze

        def counting_parse(raw):
            counts["parse"] += 1
            return parse(raw)

        def counting_analyze(self, text):
            counts["analyze"] += 1
            return analyze(self, text)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and vars(module).get("parse_attributes") is parse:
                monkeypatch.setattr(module, "parse_attributes", counting_parse)
        monkeypatch.setattr(StandardAnalyzer, "analyze", counting_analyze)
        return counts

    DOCS = [
        make_log(i, created=float(i), buyer_nickname="bob", seller_nickname=None)
        for i in range(12)
    ]
    TEXT_FIELDS_SET = 2  # auction_title, buyer_nickname (None is skipped)

    def _assert_once_per_document(self, calls):
        assert calls == {
            "parse": len(self.DOCS),
            "analyze": self.TEXT_FIELDS_SET * len(self.DOCS),
        }

    def test_write(self, calls):
        db = make_db()
        for doc in self.DOCS:
            db.write(doc)
        self._assert_once_per_document(calls)
        assert db._subattr_frequencies.write_counts == {
            "attr_0001": len(self.DOCS), "attr_0002": len(self.DOCS),
        }

    def test_bulk_write(self, calls):
        db = make_db()
        assert db.bulk_write(self.DOCS).ok
        self._assert_once_per_document(calls)
        assert db._subattr_frequencies.write_counts == {
            "attr_0001": len(self.DOCS), "attr_0002": len(self.DOCS),
        }

    def test_shard_engine_index(self, calls):
        engine = ShardEngine(
            EngineConfig(schema=Schema.transaction_logs(), auto_refresh_every=None)
        )
        names: list = []
        for doc in self.DOCS:
            engine.index(doc, names)
        self._assert_once_per_document(calls)
        assert names == [("attr_0001", "attr_0002")] * len(self.DOCS)


#: Marks a field :func:`spoil` removes from the document.
ABSENT = object()

#: Documents a write must reject whole, as changes to a good one. The first
#: three route and are refused by the engine's validator; the rest are
#: refused by the facade's routing pass and never reach an engine.
MALFORMED = {
    "non-numeric amount": {"amount": "abc"},
    "unhashable keyword": {"status": ["a"]},
    "unhashable undeclared field": {"extra": {"a": 1}},
    "unhashable tenant": {"tenant_id": ["a"]},
    "non-numeric created_time": {"created_time": "abc"},
    "null created_time": {"created_time": None},
    "no tenant": {"tenant_id": ABSENT},
    "no id": {"transaction_id": ABSENT},
    "no created_time": {"created_time": ABSENT},
}

#: The MALFORMED documents the facade's routing pass refuses.
ROUTING_REFUSED = dict(list(MALFORMED.items())[3:])


def spoil(doc: dict, change: dict) -> dict:
    doc.update(change)
    for name, value in change.items():
        if value is ABSENT:
            del doc[name]
    return doc


def stored_state(db: ESDB) -> tuple:
    return (
        dict(db._doc_shard),
        db.doc_count(),
        [(len(e.translog), len(e.buffer), e.stats.writes) for e in db.engines.values()],
    )


@pytest.mark.parametrize("change", MALFORMED.values(), ids=MALFORMED)
class TestBulkAppliesEachDocumentOnce:
    def test_one_malformed_document_does_not_replay_the_batch(self, change):
        db = make_db(
            topology=ClusterTopology(num_nodes=1, num_shards=1, replicas_per_shard=0),
        )
        docs = [make_log(i, created=float(i), amount=1.0) for i in range(1, 5)]
        spoil(docs[2], change)
        result = db.bulk_write(docs)
        assert [item.ok for item in result.items] == [True, True, False, True]
        assert [item.position for item in result.items] == [0, 1, 2, 3]
        error = result.items[2].error
        assert isinstance(error, InvalidDocumentError)
        assert next(iter(change)) in str(error)
        engine = db.engines[0]
        assert engine.stats.writes == 3 and engine.stats.deletes == 0
        assert len(engine.translog) == 3
        assert db.telemetry.metrics.total("engine_writes_total") == 3
        assert db.telemetry.metrics.total("esdb_writes_total") == 3
        assert db._doc_shard.keys() == {1, 2, 4}
        db.refresh()
        assert db.doc_count() == 3
        engine.simulate_crash()
        assert engine.recover_from_translog() == 3

    def test_rejected_single_write_leaves_no_trace(self, change):
        db = make_db()
        db.write(make_log(1, amount=2.0))
        before = stored_state(db)
        with pytest.raises(InvalidDocumentError, match=next(iter(change))):
            db.write(spoil(make_log(2, amount=2.0), change))
        assert stored_state(db) == before
        db.refresh()
        assert db.doc_count() == 1
        for engine in db.engines.values():
            engine.simulate_crash()
        assert sum(e.recover_from_translog() for e in db.engines.values()) == 1


@pytest.mark.parametrize("change", ROUTING_REFUSED.values(), ids=ROUTING_REFUSED)
def test_stop_on_error_applies_nothing_after_a_refused_document(change):
    db = make_db(
        topology=ClusterTopology(num_nodes=1, num_shards=1, replicas_per_shard=0),
    )
    docs = [make_log(i, created=float(i), amount=1.0) for i in range(1, 5)]
    spoil(docs[2], change)
    result = db.bulk_write(docs, stop_on_error=True)
    assert [item.ok for item in result.items] == [True, True, False, False]
    error = result.items[2].error
    assert isinstance(error, InvalidDocumentError)
    assert result.items[3].error is error
    with pytest.raises(InvalidDocumentError, match=next(iter(change))):
        result.raise_first()
    engine = db.engines[0]
    assert engine.stats.writes == 2 and len(engine.translog) == 2
    assert db._doc_shard.keys() == {1, 2}
    db.refresh()
    assert db.doc_count() == 2
    engine.simulate_crash()
    assert engine.recover_from_translog() == 2
