"""Tests for dynamic index add/drop (the Add/Drop Index component of the
paper's Figure 3 execution layer)."""

from __future__ import annotations

import pytest

from repro import ESDB, EsdbConfig
from repro.cluster import ClusterTopology
from repro.errors import StorageError
from tests.conftest import make_log

SMALL = ClusterTopology(num_nodes=2, num_shards=8)


class TestEngineLevel:
    def test_add_index_backfills_existing_documents(self, engine):
        for i in range(10):
            engine.index(make_log(i, tenant="t", created=float(i), group=i % 2))
        engine.refresh()
        name = engine.add_composite_index(("group", "created_time"))
        assert name == "group_created_time"
        rows = engine.composite_search(
            name, {"group": 0}, range_column="created_time", low=0, high=100
        )
        assert list(rows) == [0, 2, 4, 6, 8]

    def test_new_writes_indexed_after_add(self, engine):
        engine.add_composite_index(("group",))
        engine.index(make_log(1, group=7))
        engine.refresh()
        assert len(engine.composite_search("group", {"group": 7})) == 1

    def test_buffered_documents_included_in_backfill(self, engine):
        engine.index(make_log(1, group=9))  # still in the buffer
        engine.add_composite_index(("group",))
        engine.refresh()
        assert len(engine.composite_search("group", {"group": 9})) == 1

    def test_deleted_rows_filtered_from_dynamic_results(self, engine):
        engine.index(make_log(1, group=5))
        engine.index(make_log(2, group=5))
        engine.refresh()
        engine.add_composite_index(("group",))
        engine.delete(1)
        rows = engine.composite_search("group", {"group": 5})
        docs = engine.fetch(rows)
        assert [d["transaction_id"] for d in docs] == [2]

    def test_duplicate_add_rejected(self, engine):
        engine.add_composite_index(("group",))
        with pytest.raises(StorageError):
            engine.add_composite_index(("group",))

    def test_static_index_name_collision_rejected(self, engine):
        with pytest.raises(StorageError):
            engine.add_composite_index(("tenant_id", "created_time"))

    def test_drop_unknown_rejected(self, engine):
        with pytest.raises(StorageError):
            engine.drop_composite_index("nope")

    def test_drop_removes_results(self, engine):
        engine.index(make_log(1, group=3))
        engine.refresh()
        engine.add_composite_index(("group",))
        engine.drop_composite_index("group")
        assert not engine.composite_search("group", {"group": 3})

    def test_list_includes_static_and_dynamic(self, engine):
        engine.add_composite_index(("group",))
        names = engine.list_composite_indexes()
        assert "tenant_id_created_time" in names
        assert "group" in names


class TestFacadeLevel:
    @pytest.fixture()
    def db(self):
        db = ESDB(EsdbConfig(topology=SMALL, auto_refresh_every=None))
        for i in range(40):
            db.write(make_log(i, tenant=i % 4, created=float(i), group=i % 5))
        db.refresh()
        return db

    def test_add_index_used_by_optimizer(self, db):
        from repro.query import parse_sql

        db.add_index(("group", "created_time"))
        translated = db.coordinator.xdriver.translate(
            parse_sql("SELECT * FROM t WHERE group = 2 AND created_time BETWEEN 0 AND 50")
        )
        plan = db.coordinator.optimizer.plan(translated.statement)
        assert any(type(leaf).__name__ == "CompositeSearch" for leaf in plan.root.leaf_operators())

    def test_add_index_query_results_correct(self, db):
        before = db.execute_sql("SELECT COUNT(*) FROM t WHERE group = 2").scalar()
        db.add_index(("group",))
        after = db.execute_sql("SELECT COUNT(*) FROM t WHERE group = 2").scalar()
        assert before == after == 8

    def test_composite_prefix_finds_rows_lacking_a_trailing_column(self):
        db = ESDB(EsdbConfig(topology=SMALL, auto_refresh_every=None))
        for i in range(15):
            doc = make_log(i, tenant=1, created=float(i), group=2, status=1)
            if i >= 10:
                del doc["status"]
            db.write(doc)
        db.refresh()
        db.add_index(("tenant_id", "group", "status"))
        sql = "SELECT * FROM transaction_logs WHERE tenant_id = 1 AND group = 2 LIMIT 1000"
        assert "tenant_id_group_status" in db.explain(sql)
        assert len(db.execute_sql(sql).rows) == 15

    def test_drop_index_reverts_planning(self, db):
        db.add_index(("group",))
        db.drop_index("group")
        assert ("group",) not in db.coordinator.optimizer.catalog.composite_indexes
        # Queries still answer correctly via single-column paths.
        assert db.execute_sql("SELECT COUNT(*) FROM t WHERE group = 2").scalar() == 8
