"""End-to-end tests for repro.obsv through the ESDB facade, the experiments
CLI plumbing, and ``python -m repro.obsv``."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.balancer import BalancerConfig
from repro.cluster import ClusterTopology
from repro.esdb import ESDB, EsdbConfig
from repro.obsv import (
    ObsvConfig,
    cat_caches,
    cat_nodes,
    cat_rules,
    cat_shards,
    cat_tenants,
    render_dashboard,
    snapshot,
)
from repro.obsv import runtime as obsv_runtime
from repro.obsv.__main__ import main as obsv_main
from tests.conftest import make_log


def _tiny_db(**overrides) -> ESDB:
    defaults = dict(
        topology=ClusterTopology(num_nodes=2, num_shards=4),
        balancer=BalancerConfig(hotspot_share=0.3, target_share_per_shard=0.05),
        consensus_interval=1.0,
        obsv=ObsvConfig(index_info_seconds=0.0, search_info_seconds=0.0),
    )
    defaults.update(overrides)
    return ESDB(EsdbConfig(**defaults))


def _skewed_burst(db: ESDB) -> int:
    """100 writes in the [0, 10) window: 60 for 'whale', 10 each for 'b',
    'c', 'd' and 'e' (under the hot-tenant share), interleaved with
    increasing creation times."""
    tenants = (["whale", "b", "whale", "c", "whale", "d", "whale", "e"] + ["whale"] * 2) * 10
    for i, tenant in enumerate(tenants):
        db.write(make_log(i, tenant=tenant, created=i * 0.0999))
    db.advance_clock(10.0)
    return len(tenants)


class TestFacadeAcceptance:
    def test_slow_log_entry_carries_span_tree(self):
        db = _tiny_db()
        _skewed_burst(db)
        entries = db.obsv.index_slowlog.tail()
        assert entries, "zero-threshold slow log must capture writes"
        entry = entries[-1]
        assert entry.tenant is not None
        assert entry.shard is not None
        trace = entry.trace
        assert trace is not None and trace.name == "write"
        assert trace.find("write.route") is not None
        assert trace.find("write.index") is not None
        # Search side: an executed query lands with its trace too.
        db.refresh()
        db.execute_sql("SELECT * FROM transactions WHERE tenant_id = 'whale'")
        search = db.obsv.search_slowlog.tail()[-1]
        assert search.tenant == "whale"
        assert "SELECT" in search.detail
        assert search.trace.find("query.aggregate") is not None

    def test_hot_tenant_alert_matches_hand_computed_statistics(self):
        db = _tiny_db()
        _skewed_burst(db)
        db.rebalance()
        alerts = [a for a in db.obsv.alerts if a.kind == "hot_tenant"]
        assert [a.subject for a in alerts] == ["whale"]
        m = alerts[0].measurement
        # Tenant loads 60/10/10/10/10: mean 20, standard deviation 20; Gini
        # sums |x_i - x_j| over ordered pairs (8 gaps of 50) / (2 n^2 mean).
        assert m["share"] == pytest.approx(0.6)
        assert m["tenant_cv"] == pytest.approx(1.0)
        assert m["tenant_gini"] == pytest.approx(8 * 50 / (2 * 25 * 20))
        assert m["tenant_max_mean"] == pytest.approx(3.0)
        assert m["window_writes"] == 100

    def test_cat_shards_doc_counts_sum_to_ingested(self):
        db = _tiny_db()
        total = _skewed_burst(db)
        table = cat_shards(db)
        docs_column = [row[2] for row in table.rows]
        assert sum(docs_column) == total
        assert len(table) == 4
        assert {row["shard"] for row in table.to_dicts()} == {0, 1, 2, 3}

    def test_cat_nodes_tenants_rules_caches(self):
        db = _tiny_db()
        _skewed_burst(db)
        committed = db.rebalance()
        assert committed, "skewed burst must commit a rule"
        nodes = cat_nodes(db)
        assert len(nodes) == 2
        assert sum(row[5] for row in nodes.rows) == 100  # docs column
        assert "m" in nodes.rows[0][1]  # node-0 is master
        tenants = cat_tenants(db)
        by_tenant = {row["tenant"]: row for row in tenants.to_dicts()}
        assert by_tenant["whale"]["docs"] == 60
        assert by_tenant["whale"]["span"] > 1  # widened by the commit
        assert by_tenant["b"]["span"] == 1
        rules = cat_rules(db)
        whale_rows = [r for r in rules.to_dicts() if r["tenant"] == "whale"]
        assert whale_rows and "hot tenant whale" in whale_rows[0]["why"]
        caches = cat_caches(db)
        assert [row["level"] for row in caches.to_dicts()] == [
            "filter",
            "request",
            "result",
            "shapes",
        ]
        # Rendered tables are aligned text with a header line.
        assert nodes.render().splitlines()[0].startswith("node ")

    def test_alert_widen_and_annotation_share_one_window(self):
        """Satellite: the hot-tenant alert, the monitor-driven span widening
        and the rule annotation must all come from the same closed window."""
        db = _tiny_db()
        _skewed_burst(db)
        assert db.tenant_fanout("whale") == 1
        committed = db.rebalance()
        # The widen: whale's rule committed in this round.
        tenants = [tenant for tenant, _, _ in committed]
        assert "whale" in tenants
        assert db.tenant_fanout("whale") > 1
        # The alert raised in the same round...
        alert = next(a for a in db.obsv.alerts if a.kind == "hot_tenant")
        assert alert.subject == "whale"
        # ...and the annotation cite one and the same window.
        annotations = db.policy.rules.annotations()
        assert [a.tenant for a in annotations] == ["whale"]
        note = annotations[0]
        assert "whale" in note.reason
        assert note.measurement["window_start"] == alert.measurement["window_start"]
        assert note.measurement["window_end"] == alert.measurement["window_end"]
        assert note.measurement["share"] == pytest.approx(
            alert.measurement["share"]
        )
        # The measurement survives compaction (annotations are metadata).
        db.policy.rules.compact()
        assert db.policy.rules.annotations() == annotations
        assert db.policy.rules.annotations()[0] is note

    def test_observer_windows_are_the_monitors(self):
        """Crossing the window boundary mid-stream closes one window, in the
        monitor, and the observer's statistics describe exactly it."""
        db = _tiny_db()
        window = db.monitor.window_seconds
        for i in range(10):
            db.write(make_log(i, tenant="whale", created=1.0 + i * 0.1))
        # This write crosses the boundary: the monitor closes [0, window).
        db.write(make_log(99, tenant="whale", created=window))
        assert db.monitor.throughput(), "monitor window closed"
        (closed,) = db.monitor.windows
        (stats,) = db.obsv.windows
        assert (stats.start, stats.end) == (closed.start, closed.end) == (0.0, window)
        assert stats.writes == 10
        assert dict(stats.tenant_loads) == closed.tenants == {"whale": 10}

    def test_bulk_write_straddling_a_boundary_is_measured_once(self):
        """A bulk write whose documents straddle the window boundary: the
        observer's windows are the monitor's, and the committed rule's
        annotation cites the window the balancer acted on."""
        db = _tiny_db()
        docs = [make_log(i, tenant="whale", created=9.0 + i * 0.2) for i in range(5)]
        docs += [make_log(5 + i, tenant="minnow", created=10.0 + i * 0.2) for i in range(5)]
        db.bulk_write(docs)
        committed = db.rebalance()
        assert [(tenant, offset) for tenant, offset, _ in committed] == [("minnow", 4)]
        assert [(w.start, w.end, dict(w.tenant_loads)) for w in db.obsv.windows] == [
            (w.start, w.end, w.tenants) for w in db.monitor.windows
        ]
        assert [dict(w.tenant_loads) for w in db.obsv.windows] == [
            {"whale": 5},
            {"minnow": 5},
        ]
        (note,) = db.policy.rules.annotations()
        assert "100.0% of 5 writes in window [10.00, 10.80)" in note.reason

    def test_bulk_write_closing_two_windows_rolls_each_once(self):
        """One bulk call can close several monitor windows: the observer
        rolls each of them, oldest first, not the last one twice."""
        db = _tiny_db()
        docs = [make_log(i, tenant=f"t{i}", created=5.0 + 10.0 * i) for i in range(3)]
        db.bulk_write(docs)
        assert [dict(w.tenant_loads) for w in db.obsv.windows] == [{"t0": 1}, {"t1": 1}]
        assert [(w.start, w.end) for w in db.obsv.windows] == [
            (w.start, w.end) for w in db.monitor.windows
        ]

    def test_shard_skew_drops_after_balancing(self):
        """The live version of Fig 12: the per-shard CV of the first window
        (before any rule lands) exceeds the last window's once rebalance
        rounds have widened the whale."""
        db = ESDB(
            EsdbConfig(
                topology=ClusterTopology(num_nodes=4, num_shards=16),
                balancer=BalancerConfig(hotspot_share=0.3, target_share_per_shard=0.05),
                consensus_interval=1.0,
            )
        )
        doc_id = 0
        for round_ in range(4):
            base = round_ * 10.0
            for i in range(200):
                tenant = "whale" if i % 4 else f"t{i % 40}"
                db.write(make_log(doc_id, tenant=tenant, created=base + i * 0.045))
                doc_id += 1
            db.advance_clock(base + 9.5)
            db.rebalance()
        windows = list(db.obsv.windows)
        assert len(windows) >= 4
        assert windows[-1].shard_cv < windows[0].shard_cv


class TestRenderedDashboardFacts:
    def test_slowlog_and_skew_facts_present_and_stable(self):
        db = _tiny_db()
        _skewed_burst(db)
        db.rebalance()
        db.refresh()
        db.execute_sql("SELECT * FROM transactions WHERE tenant_id = 'whale'")
        page = render_dashboard(snapshot(db))
        index, search = db.obsv.index_slowlog.counts, db.obsv.search_slowlog.counts
        assert f"  slowlog[index]: {index['warn']} warn / {index['info']} info" in page
        assert f"  slowlog[search]: {search['warn']} warn / {search['info']} info" in page
        assert index["info"] == 100 and search["info"] == 1
        window = next(line for line in page.splitlines() if line.startswith("  last window: "))
        assert "| shard cv=" in window and "| tenant cv=" in window
        alerts = page.split("-- skew alerts --\n", 1)[1]
        assert alerts.startswith("  [hot_")
        assert page == render_dashboard(snapshot(db))

    def test_fan_out_averages_the_statements_that_fanned_out(self):
        db = _tiny_db()
        _skewed_burst(db)
        db.rebalance()
        db.refresh()
        sql = "SELECT * FROM transactions WHERE tenant_id = 'whale'"
        fanout = db.execute_sql(sql).subqueries
        for _ in range(3):
            db.execute_sql(sql)  # result-cache hits: nothing fans out
        page = render_dashboard(snapshot(db))
        line = next(line for line in page.splitlines() if line.startswith("  queries: "))
        assert line == f"  queries: 4 executed, 1 fanned out, avg fan-out {fanout:.1f} shard(s)"
        assert float(line.split("avg fan-out ")[1].split()[0]) >= 1.0

    def test_dashboard_without_observer_keeps_the_totals(self):
        db = _tiny_db(obsv=ObsvConfig.off())
        _skewed_burst(db)
        page = render_dashboard(snapshot(db))
        assert page.startswith("== esdb dashboard :: 2 nodes / ")
        assert "  engines: 100 writes" in page
        assert "slowlog[" not in page and "-- slow log tail --" not in page
        assert "-- skew alerts --" not in page

    def test_one_document_count_per_node(self):
        """Dashboard, ``cat_nodes`` and the snapshot totals all count the
        unrefreshed buffer, so they agree before the first refresh."""
        db = _tiny_db(auto_refresh_every=None)
        for i in range(50):
            db.write(make_log(i, tenant=f"t{i % 5}", created=i * 0.01))
        snap = snapshot(db)
        per_node = [row["docs"] for row in cat_nodes(snap).to_dicts()]
        assert len(per_node) == 2
        assert sum(per_node) == 50
        assert "/ 50 docs /" in render_dashboard(snap)
        assert sum(row["docs"] for row in cat_nodes(db).to_dicts()) == 50
        assert snap["cluster"]["totals"]["docs"] == 50


class TestRenderersReadOnlyTheDict:
    def test_saved_bundle_renders_as_the_live_instance(self):
        from repro.obsv import cat_events, cat_exec, cat_faults, cat_hotkeys
        from repro.obsv import cat_slo, cat_timeseries
        from repro.obsv.__main__ import build_demo
        from repro.tenancy import cat_tenant_governance

        db = build_demo(writes=200, governed=True, slo=True, chaos=True)
        snap = snapshot(db)
        loaded = json.loads(json.dumps(snap))
        # A saved bundle is written with sorted keys (``--bundle``).
        saved = json.loads(json.dumps(snap, sort_keys=True))
        renderers = [render_dashboard] + [
            lambda source, cat=cat: cat(source).render()
            for cat in (
                cat_nodes, cat_shards, cat_tenants, cat_rules, cat_timeseries,
                cat_caches, cat_exec, cat_faults, cat_events, cat_slo,
                cat_hotkeys, cat_tenant_governance,
            )
        ]
        for render in renderers:
            assert render(snap) == render(loaded) == render(saved)
        assert "-- nodes --" in render_dashboard(loaded)
        assert "\n  engines: " in render_dashboard(loaded)


class TestSnapshotTraces:
    def test_each_tree_is_written_once_and_every_slow_log_id_resolves(self):
        """A slow-log entry carries its trace id; the tree it names is in
        ``traces`` exactly once, beside the last finished traces."""
        from repro.obsv.__main__ import build_demo

        snap = snapshot(build_demo(writes=300, governed=True, chaos=True))
        ids = [tree["trace_id"] for tree in snap["traces"] if "trace_id" in tree]
        assert len(ids) == len(set(ids))
        slowlog = snap["cluster"]["obsv"]["slowlog"]
        entries = slowlog["index"] + slowlog["search"]
        assert entries and all("trace" not in entry for entry in entries)
        assert {entry["trace_id"] for entry in entries} <= set(ids)

    @staticmethod
    def _slow_writes_db() -> ESDB:
        """Every write enters the index slow log; no query is slow enough
        for the search slow log."""
        from repro.obsv.config import SEARCH_WARN_SECONDS

        return _tiny_db(obsv=ObsvConfig(
            index_info_seconds=0.0, search_info_seconds=SEARCH_WARN_SECONDS
        ))

    def test_without_a_slow_log_traces_are_the_newest_finished(self):
        from repro.obsv.snapshot import MAX_SNAPSHOT_TRACES

        db = _tiny_db(obsv=ObsvConfig.off())
        db.write(make_log(1, tenant="t"))
        for _ in range(MAX_SNAPSHOT_TRACES + 5):
            db.execute_sql("SELECT * FROM transactions WHERE tenant_id = 't'")
        finished = [span.trace_id for span in db.telemetry.tracer.finished]
        traces = snapshot(db)["traces"]
        assert [tree["trace_id"] for tree in traces] == finished[-MAX_SNAPSHOT_TRACES:]

    def test_a_slow_entry_older_than_the_recent_traces_still_resolves(self):
        from repro.obsv.snapshot import MAX_SNAPSHOT_TRACES

        db = self._slow_writes_db()
        db.write(make_log(1, tenant="t"))
        for _ in range(MAX_SNAPSHOT_TRACES + 5):
            db.execute_sql("SELECT * FROM transactions WHERE tenant_id = 't'")
        snap = snapshot(db)
        (entry,) = snap["cluster"]["obsv"]["slowlog"]["index"]
        traces = snap["traces"]
        assert len(traces) == MAX_SNAPSHOT_TRACES + 1
        assert traces[-1]["trace_id"] == entry["trace_id"]
        assert traces[-1]["name"] == "write"

    def test_a_slow_tree_among_the_recent_ones_is_written_once(self):
        db = self._slow_writes_db()
        db.write(make_log(1, tenant="t"))
        for _ in range(3):
            db.execute_sql("SELECT * FROM transactions WHERE tenant_id = 't'")
        snap = snapshot(db)
        (entry,) = snap["cluster"]["obsv"]["slowlog"]["index"]
        names = [tree["name"] for tree in snap["traces"]]
        assert names == ["write", "query", "query", "query"]
        assert snap["traces"][0]["trace_id"] == entry["trace_id"]

    def test_spans_without_a_trace_id_are_each_kept(self):
        """Refreshes and replication rounds finish as root spans with no
        trace id; deduplication by id must not fold them into one."""
        db = _tiny_db(
            topology=ClusterTopology(num_nodes=2, num_shards=4, replicas_per_shard=1),
            replication="physical",
        )
        db.write(make_log(1, tenant="t"))
        db.refresh()
        db.replicate(1.0)
        names = [tree["name"] for tree in snapshot(db)["traces"]]
        finished = [span.name for span in db.telemetry.tracer.finished]
        assert names == finished
        assert names.count("engine.refresh") >= 4  # one per shard at least
        assert names.count("replication.round") == 4


class TestDashboardAndSnapshot:
    def test_dashboard_renders_all_sections(self):
        db = _tiny_db()
        _skewed_burst(db)
        db.rebalance()
        db.refresh()
        db.execute_sql("SELECT * FROM transactions WHERE tenant_id = 'whale'")
        page = render_dashboard(snapshot(db))
        for heading in (
            "-- nodes --",
            "-- shard heatmap (docs) --",
            "-- top 10 tenants --",
            "-- routing rules --",
            "-- caches --",
            "-- skew alerts --",
            "-- slow log tail --",
        ):
            assert heading in page
        assert "whale" in page

    def test_snapshot_is_json_ready_and_complete(self):
        db = _tiny_db()
        total = _skewed_burst(db)
        db.rebalance()
        cluster = json.loads(json.dumps(snapshot(db)))["cluster"]
        for key in ("nodes", "shards", "tenants", "rules", "caches", "obsv"):
            assert key in cluster
        assert cluster["totals"]["docs"] == total
        assert sum(row["docs"] for row in cluster["shards"]) == total
        assert cluster["obsv"]["skew"]["summary"]["windows"] >= 1

    @pytest.mark.parametrize("ops", ["w" * 5 + "s" * 10, "ws" * 8])
    def test_slow_log_tail_shows_the_newest_entries(self, ops):
        """The tail is the newest 8 entries of both logs in time order:
        after 5 writes and 10 searches it is the last 8 searches."""
        db = _tiny_db()
        sql = "SELECT * FROM transactions WHERE tenant_id = 't' LIMIT {}"
        expected = []
        for i, op in enumerate(ops):
            db.advance_clock(float(i))
            if op == "w":
                db.write(make_log(i, tenant="t", created=float(i)))
                expected.append("index")
            else:
                db.execute_sql(sql.format(i))
                expected.append(sql.format(i))
        page = render_dashboard(snapshot(db))
        tail = page.split("-- slow log tail --\n", 1)[1].splitlines()
        shown = [
            "index" if "] index " in line else line.split(" :: ", 1)[1].split(" trace=")[0]
            for line in tail
        ]
        assert shown == expected[-8:]

    def test_snapshot_reads_each_subsystem_once(self, monkeypatch):
        from repro.obsv.__main__ import build_demo

        db = build_demo(writes=100, governed=True, slo=True)
        calls = Counter()
        for name in ("slo", "hotkeys", "governor", "obsv", "timeseries"):
            subsystem = getattr(db, name)
            read = subsystem.snapshot

            def counted(*args, name=name, read=read):
                calls[name] += 1
                return read(*args)

            monkeypatch.setattr(subsystem, "snapshot", counted)
        snap = snapshot(db)
        assert calls == dict.fromkeys(("slo", "hotkeys", "governor", "obsv", "timeseries"), 1)
        assert snap["cluster"]["slo"] is snap["slo"]
        assert snap["cluster"]["hotkeys"] is snap["hotkeys"]

    def test_observer_disabled_drops_obsv_surfaces_only(self):
        db = _tiny_db(obsv=ObsvConfig.off())
        _skewed_burst(db)
        assert db.obsv is None
        snap = snapshot(db)
        assert "obsv" not in snap["cluster"]
        assert sum(row["docs"] for row in snap["cluster"]["shards"]) == 100
        assert "-- skew alerts --" not in render_dashboard(snap)


class TestRuntimeCapture:
    def test_capture_sees_instances_created_in_window(self):
        before = ESDB(EsdbConfig(topology=ClusterTopology(num_nodes=2, num_shards=2)))
        assert before is not None
        obsv_runtime.start_capture()
        try:
            inside = _tiny_db()
        finally:
            captured = obsv_runtime.stop_capture()
        assert captured == [inside]
        # Outside a window, register() is inert.
        after = _tiny_db()
        assert obsv_runtime.stop_capture() == []
        assert after.obsv is not None

    def test_disabled_observer_not_registered(self):
        obsv_runtime.start_capture()
        try:
            db = _tiny_db(obsv=ObsvConfig.off())
        finally:
            captured = obsv_runtime.stop_capture()
        assert db not in captured


class TestObsvCli:
    def test_json_mode_emits_parseable_snapshot(self, capsys):
        assert obsv_main(["--json", "--writes", "150"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("nodes", "shards", "tenants"):
            assert key in payload
        assert sum(row["docs"] for row in payload["shards"]) == 150

    def test_text_mode_prints_dashboard(self, capsys):
        assert obsv_main(["--writes", "120"]) == 0
        out = capsys.readouterr().out
        assert "esdb dashboard" in out
        assert "-- shard heatmap (docs) --" in out

    def test_rejects_bad_writes(self, capsys):
        assert obsv_main(["--writes", "0"]) == 2
