"""Tests for repro.faults: deterministic fault injection & chaos runner."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterTopology
from repro.errors import FaultInjectionError
from repro.esdb import ESDB, EsdbConfig
from repro.faults import (
    FAULT_KINDS,
    ONE_SHOT_KINDS,
    ChaosConfig,
    ChaosRunner,
    FaultEvent,
    FaultInjector,
    FaultPlan,
)
from repro.faults.__main__ import build_failover_plan, main
from repro.obsv import cat_faults


def make_db(num_nodes=3, num_shards=4, replicas=1) -> ESDB:
    return ESDB(
        EsdbConfig(
            topology=ClusterTopology(
                num_nodes=num_nodes,
                num_shards=num_shards,
                replicas_per_shard=replicas,
                seed=7,
            ),
            replication="physical",
            consensus_interval=1.0,
        )
    )


# -- plans ---------------------------------------------------------------------


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent(at_step=0, kind="set_on_fire")

    def test_negative_step_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent(at_step=-1, kind="crash_node")

    def test_recover_on_one_shot_rejected(self):
        for kind in ONE_SHOT_KINDS:
            with pytest.raises(FaultInjectionError):
                FaultEvent(at_step=0, kind=kind, recover=True)

    def test_add_chains_and_sorts_by_step(self):
        plan = (
            FaultPlan(seed=1)
            .add(30, "crash_node", 1, recover=True)
            .add(10, "crash_node", 1)
        )
        assert [e.at_step for e in plan] == [10, 30]
        assert len(plan) == 2
        assert plan.last_step() == 30
        assert plan.kinds() == {"crash_node"}
        assert [e.at_step for e in plan.events_at(10)] == [10]
        assert plan.events_at(11) == []

    def test_describe_mentions_every_event(self):
        plan = FaultPlan(seed=3).add(5, "clock_skew", 2, skew=1.5)
        text = plan.describe()
        assert "clock_skew" in text and "seed=3" in text

    def test_random_plan_is_deterministic_per_seed(self):
        a = FaultPlan.random(seed=11, steps=200, num_nodes=3, num_shards=8)
        b = FaultPlan.random(seed=11, steps=200, num_nodes=3, num_shards=8)
        assert list(a) == list(b)
        c = FaultPlan.random(seed=12, steps=200, num_nodes=3, num_shards=8)
        assert list(a) != list(c)

    def test_random_plan_never_touches_node_zero(self):
        for seed in range(8):
            plan = FaultPlan.random(seed=seed, steps=100, num_nodes=3, num_shards=4)
            for event in plan:
                if event.kind in ("crash_node", "partition_node"):
                    assert event.target != 0

    def test_random_plan_pairs_recovery_for_recoverable_faults(self):
        plan = FaultPlan.random(
            seed=5, steps=300, num_nodes=4, num_shards=8, intensity=1.0
        )
        injected = [e for e in plan if not e.recover]
        for event in injected:
            if event.kind not in ONE_SHOT_KINDS:
                matching = [
                    r
                    for r in plan
                    if r.recover
                    and r.kind == event.kind
                    and r.target == event.target
                    and r.at_step > event.at_step
                ]
                assert matching, f"no recovery scheduled for {event.describe()}"

    def test_random_plan_validates_inputs(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.random(seed=0, steps=5, num_nodes=3, num_shards=4)
        with pytest.raises(FaultInjectionError):
            FaultPlan.random(seed=0, steps=100, num_nodes=3, num_shards=4, intensity=2.0)


# -- the injector --------------------------------------------------------------


class TestFaultInjector:
    def test_unknown_kind_rejected(self):
        injector = FaultInjector(make_db())
        with pytest.raises(FaultInjectionError):
            injector.inject("set_on_fire", 1)

    def test_duplicate_active_fault_rejected(self):
        injector = FaultInjector(make_db())
        injector.inject("crash_node", 1)
        with pytest.raises(FaultInjectionError):
            injector.inject("crash_node", 1)

    def test_crash_and_recover_node_roundtrip(self):
        db = make_db()
        injector = FaultInjector(db)
        injector.inject("crash_node", 1)
        assert not db.cluster.nodes[1].alive
        assert [f.kind for f in injector.active_faults()] == ["crash_node"]
        assert injector.recover("crash_node", 1) == 1
        assert db.cluster.nodes[1].alive
        assert injector.active_faults() == []

    def test_recover_all_lifts_everything(self):
        db = make_db()
        injector = FaultInjector(db)
        injector.inject("crash_node", 1)
        injector.inject("clock_skew", 2, skew=3.0)
        injector.inject("blackhole_dispatch", 0)
        assert injector.recover() == 3
        assert injector.active_faults() == []

    def test_clock_skew_saved_and_restored(self):
        db = make_db()
        injector = FaultInjector(db)
        participant = db.consensus.participants[2]
        before = participant.clock.skew
        injector.inject("clock_skew", 2, skew=4.5)
        assert participant.clock.skew == pytest.approx(before + 4.5)
        injector.recover("clock_skew", 2)
        assert participant.clock.skew == pytest.approx(before)

    def test_slow_replica_saved_and_restored(self):
        db = make_db()
        injector = FaultInjector(db)
        replicators = db.replica_sets[0].replicators
        before = {
            name: r.network_seconds_per_byte for name, r in replicators.items()
        }
        injector.inject("slow_replica", 0, seconds_per_byte=1e-4)
        for replicator in replicators.values():
            assert replicator.network_seconds_per_byte == pytest.approx(1e-4)
        injector.recover("slow_replica", 0)
        for name, replicator in replicators.items():
            assert replicator.network_seconds_per_byte == pytest.approx(before[name])

    def test_blackhole_dispatch_scoped_to_shard(self):
        injector = FaultInjector(make_db())
        injector.inject("blackhole_dispatch", 2)
        assert injector.dispatch_blackholed(2)
        assert not injector.dispatch_blackholed(1)
        injector.recover("blackhole_dispatch", 2)
        assert not injector.dispatch_blackholed(2)

    def test_blackhole_dispatch_all_shards(self):
        injector = FaultInjector(make_db())
        injector.inject("blackhole_dispatch")
        assert injector.dispatch_blackholed(0) and injector.dispatch_blackholed(3)
        injector.recover("blackhole_dispatch")
        assert not injector.dispatch_blackholed(0)

    def test_corrupt_translog_does_not_touch_primary_entries(self):
        db = make_db()
        for i in range(5):
            db.write(
                {"transaction_id": i, "tenant_id": "t", "created_time": 0.0}
            )
        shard_id = db._doc_shard[0]
        injector = FaultInjector(db)
        injector.inject("corrupt_translog", shard_id, entries=2)
        # Primary translog entries stay valid: corruption replaced the
        # replica's *copies*, never the shared objects.
        for entry in db.engines[shard_id].translog._entries:
            assert entry.verify()
        replica_logs = [
            r.replica_translog
            for r in db.replica_sets[shard_id].replicators.values()
        ]
        assert any(
            not entry.verify() for log in replica_logs for entry in log
        )

    def test_crash_primary_promotes_replica(self):
        db = make_db(replicas=2)
        for i in range(8):
            db.write({"transaction_id": i, "tenant_id": "t", "created_time": 0.0})
        shard_id = db._doc_shard[0]
        old_primary = db.engines[shard_id]
        injector = FaultInjector(db)
        injector.inject("crash_primary", shard_id)
        assert db.engines[shard_id] is not old_primary
        assert db.replica_sets[shard_id].primary is db.engines[shard_id]
        db.refresh()
        assert db.engines[shard_id].contains(0)

    def test_log_and_counters(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        db = make_db()
        injector = FaultInjector(db, telemetry=telemetry)
        injector.inject("crash_node", 1)
        injector.recover("crash_node", 1)
        actions = [row[1] for row in injector.log]
        assert actions == ["inject", "recover"]
        assert (
            telemetry.metrics.get("faults_injected_total", kind="crash_node").value
            == 1
        )
        assert (
            telemetry.metrics.get("faults_recovered_total", kind="crash_node").value
            == 1
        )


# -- ESDB facade ---------------------------------------------------------------


class TestEsdbFaultFacade:
    def test_inject_fault_creates_injector_lazily(self):
        db = make_db()
        assert db.faults is None
        detail = db.inject_fault("crash_node", 1)
        assert isinstance(detail, str)
        assert db.faults is not None
        assert not db.cluster.nodes[1].alive
        assert db.recover("crash_node", 1) == 1
        assert db.cluster.nodes[1].alive

    def test_recover_without_injector_is_noop(self):
        assert make_db().recover() == 0

    def test_cat_faults_lists_history(self):
        db = make_db()
        table = cat_faults(db)
        assert table.rows == []  # empty before any injection
        db.inject_fault("crash_node", 1)
        db.inject_fault("clock_skew", 2, skew=1.0)
        db.recover("crash_node", 1)
        table = cat_faults(db)
        assert table.name == "faults"
        statuses = [row[1] for row in table.rows]
        assert "active" in statuses  # clock_skew still live
        kinds = {row[2] for row in table.rows}
        assert kinds == {"crash_node", "clock_skew"}
        assert "crash_node" in table.render()


# -- the chaos runner ----------------------------------------------------------


class TestChaosRunner:
    def test_config_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ChaosConfig(steps=0)
        with pytest.raises(ConfigurationError):
            ChaosConfig(num_nodes=0)

    def test_fault_free_run_is_clean(self):
        runner = ChaosRunner(FaultPlan(seed=1), ChaosConfig(steps=60))
        report = runner.run()
        assert report.ok
        assert report.violations == []
        assert report.writes_acked == report.writes_submitted
        assert report.faults_injected == 0

    def test_crash_primary_mid_workload_loses_no_acked_write(self):
        """The acceptance scenario: crash the primary mid-workload, heal,
        and verify every acknowledged write survives with no invariant
        violations."""
        plan = build_failover_plan(seed=42, steps=120, num_shards=8)
        runner = ChaosRunner(plan, ChaosConfig(steps=120))
        report = runner.run()
        assert report.violations == []
        assert report.ok
        assert report.faults_injected >= 3
        assert report.writes_acked == report.writes_submitted
        assert sum(report.shard_docs.values()) >= report.writes_acked

    def test_same_seed_same_fingerprint(self):
        plan_a = build_failover_plan(seed=9, steps=100, num_shards=8)
        plan_b = build_failover_plan(seed=9, steps=100, num_shards=8)
        fp_a = ChaosRunner(plan_a, ChaosConfig(steps=100)).run().fingerprint()
        fp_b = ChaosRunner(plan_b, ChaosConfig(steps=100)).run().fingerprint()
        assert fp_a == fp_b

    def test_different_seed_different_workload(self):
        report_a = ChaosRunner(FaultPlan(seed=1), ChaosConfig(steps=60)).run()
        report_b = ChaosRunner(FaultPlan(seed=2), ChaosConfig(steps=60)).run()
        assert report_a.fingerprint() != report_b.fingerprint()

    def test_random_plan_runs_clean_across_seeds(self):
        for seed in (3, 8):
            plan = FaultPlan.random(seed=seed, steps=100, num_nodes=3, num_shards=8)
            report = ChaosRunner(plan, ChaosConfig(steps=100)).run()
            assert report.ok, report.violations

    def test_blackhole_dead_letters_then_redrives(self):
        plan = FaultPlan(seed=4).add(10, "blackhole_dispatch").add(
            40, "blackhole_dispatch", recover=True
        )
        runner = ChaosRunner(plan, ChaosConfig(steps=80))
        report = runner.run()
        assert report.ok
        assert report.dead_letters_redriven > 0
        assert report.writes_acked == report.writes_submitted

    def test_report_render_mentions_key_numbers(self):
        report = ChaosRunner(FaultPlan(seed=1), ChaosConfig(steps=60)).run()
        text = report.render()
        assert "seed=1" in text
        assert str(report.writes_acked) in text


# -- the CLI -------------------------------------------------------------------


class TestCli:
    def test_failover_scenario_exits_zero(self, capsys):
        assert main(["--steps", "80", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_determinism_check_passes(self, capsys):
        assert main(["--steps", "60", "--check-determinism", "--quiet"]) == 0
        assert "determinism check ok" in capsys.readouterr().out

    def test_random_scenario(self, capsys):
        assert main(
            ["--scenario", "random", "--steps", "80", "--seed", "2", "--quiet"]
        ) == 0

    def test_too_few_steps_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--steps", "3"])
        assert excinfo.value.code == 2

    def test_all_kinds_are_exercised_somewhere(self):
        # Every declared fault kind must be injectable (guards against a
        # kind registered in FAULT_KINDS without handler methods).
        injector = FaultInjector(make_db(replicas=2))
        for kind in FAULT_KINDS:
            assert hasattr(injector, f"_inject_{kind}"), kind
