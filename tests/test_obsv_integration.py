"""End-to-end tests for repro.obsv through the ESDB facade, the simulator,
the experiments CLI plumbing, and ``python -m repro.obsv``."""

from __future__ import annotations

import json
import math

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
)
from repro.obsv import runtime as obsv_runtime
from repro.obsv.__main__ import main as obsv_main
from repro.routing import DynamicSecondaryHashRouting
from repro.sim import SimulationConfig, WriteSimulation
from repro.workload import StaticScenario, WorkloadConfig
from tests.conftest import make_log


def _tiny_db(**overrides) -> ESDB:
    defaults = dict(
        topology=ClusterTopology(num_nodes=2, num_shards=4),
        balancer=BalancerConfig(hotspot_share=0.3, target_share_per_shard=0.05),
        consensus_interval=1.0,
        obsv=ObsvConfig(
            index_info_seconds=0.0,
            search_info_seconds=0.0,
            hot_tenant_share=0.5,
        ),
    )
    defaults.update(overrides)
    return ESDB(EsdbConfig(**defaults))


def _skewed_burst(db: ESDB) -> int:
    """100 writes in the [0, 10) window: 60 for 'whale', 20 each for 'b'
    and 'c', interleaved with increasing creation times."""
    tenants = (["whale", "whale", "whale", "b", "c"]) * 20
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
        # Tenant loads 60/20/20 — the reference values from the unit tests.
        assert m["share"] == pytest.approx(0.6)
        assert m["tenant_cv"] == pytest.approx(math.sqrt(2.0) / 2.5)
        assert m["tenant_gini"] == pytest.approx(4.0 / 15.0)
        assert m["tenant_max_mean"] == pytest.approx(1.8)
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
        assert (
            db.policy.rules.annotation_for(
                note.effective_time, note.offset, "whale"
            )
            is note
        )

    def test_observer_rolls_in_lockstep_with_monitor(self):
        """Auto-roll alignment: crossing the window boundary mid-stream must
        close the same [0, window) slice in monitor and observer."""
        db = _tiny_db()
        window = db.monitor.window_seconds
        assert db.obsv.skew.window_seconds == window
        for i in range(10):
            db.write(make_log(i, tenant="whale", created=1.0 + i * 0.1))
        # This write crosses the boundary: both monitor and observer roll.
        db.write(make_log(99, tenant="whale", created=window))
        assert db.monitor.throughput(), "monitor window closed"
        stats = db.obsv.last_window()
        assert stats is not None
        assert stats.start == 0.0
        assert stats.writes == 10
        assert db.obsv.skew.current_writes == 1


class TestStatsReportSections:
    def test_slowlog_and_skew_sections_present_and_sorted(self):
        db = _tiny_db()
        _skewed_burst(db)
        db.rebalance()
        db.refresh()
        db.execute_sql("SELECT * FROM transactions WHERE tenant_id = 'whale'")
        report = db.stats_report()
        assert "slowlog[index]:" in report
        assert "slowlog[search]:" in report
        assert "skew[shard]: cv=" in report
        assert "skew[tenant]: cv=" in report
        assert "skew alerts: " in report
        # Deterministic sorted section order: routing < skew < slowlog.
        assert (
            report.index("routing rules:")
            < report.index("skew[shard]")
            < report.index("slowlog[index]")
        )
        assert report == db.stats_report()

    def test_report_without_observer_keeps_legacy_content(self):
        db = _tiny_db(obsv=ObsvConfig.off())
        _skewed_burst(db)
        report = db.stats_report()
        assert "cluster: 2 nodes" in report
        assert "100 writes" in report
        assert "slowlog" not in report
        assert "skew" not in report


class TestDashboardAndSnapshot:
    def test_dashboard_renders_all_sections(self):
        db = _tiny_db()
        _skewed_burst(db)
        db.rebalance()
        db.refresh()
        db.execute_sql("SELECT * FROM transactions WHERE tenant_id = 'whale'")
        page = db.dashboard()
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
        snapshot = json.loads(json.dumps(db.obsv_snapshot()))
        for key in ("nodes", "shards", "tenants", "rules", "caches", "obsv"):
            assert key in snapshot
        assert snapshot["totals"]["docs"] == total
        assert sum(row["docs"] for row in snapshot["shards"]) == total
        assert snapshot["obsv"]["skew"]["summary"]["windows"] >= 1

    def test_observer_disabled_drops_obsv_surfaces_only(self):
        db = _tiny_db(obsv=ObsvConfig.off())
        _skewed_burst(db)
        assert db.obsv is None
        snapshot = db.obsv_snapshot()
        assert "obsv" not in snapshot
        assert sum(row["docs"] for row in snapshot["shards"]) == 100
        assert "-- skew alerts --" not in db.dashboard()


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


class TestSimulatorSkew:
    def _run(self, policy_cls=DynamicSecondaryHashRouting):
        config = SimulationConfig(
            num_nodes=4,
            num_shards=16,
            sample_per_tick=300,
            balance_window=5.0,
        )
        sim = WriteSimulation(
            policy_cls(config.num_shards),
            StaticScenario(rate=50_000, duration=30.0),
            config=config,
            workload=WorkloadConfig(num_tenants=500, theta=1.2, seed=3),
        )
        sim.run()
        return sim

    def test_windows_alerts_and_annotated_commits(self):
        sim = self._run()
        assert len(sim.skew.windows) >= 3
        assert sim.skew_alerts, "zipf(1.2) traffic must raise skew alerts"
        assert sim.rule_commits, "dynamic policy must commit rules"
        annotations = sim.policy.rules.annotations()
        committed = {(t, tenant, s) for t, tenant, s in sim.rule_commits}
        assert len(annotations) == len(committed)
        report = sim.skew_report()
        assert report["summary"]["windows"] == len(sim.skew.windows)
        assert report["alerts"]
        assert len(report["rule_annotations"]) == len(annotations)
        json.dumps(report)  # JSON-ready

    def test_skew_drops_after_balancing(self):
        """The live version of Fig 12: per-shard CV in the first window
        (before any rule lands) exceeds the last window's."""
        sim = self._run()
        first = sim.skew.windows[0]
        last = sim.skew.windows[-1]
        assert last.shard_cv < first.shard_cv


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
