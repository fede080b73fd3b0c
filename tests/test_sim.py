"""Tests for the write simulation — these encode the paper's qualitative
results as assertions (small scale so the suite stays fast)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.models import BASE_WRITE_LATENCY, MAX_QUEUE_SECONDS
from repro.sim.simulator import ISOLATION_THRESHOLD
from repro.routing import DoubleHashRouting, DynamicSecondaryHashRouting, HashRouting
from repro.sim import (
    ReplicationCostModel,
    SimulationConfig,
    WriteSimulation,
    run_policy_comparison,
)
from repro.workload import HotspotShiftScenario, StaticScenario, WorkloadConfig

FAST = SimulationConfig(sample_per_tick=400)
WL = WorkloadConfig(num_tenants=10_000, theta=1.0, seed=0)
SATURATING_RATE = 200_000
COMFORTABLE_RATE = 80_000
#: Two nodes that serve 100 writes/s each: 1,000 writes/s overload them
#: tenfold, so the client queue reaches its cap within the run.
TINY = SimulationConfig(num_nodes=2, num_shards=4, node_capacity=100.0, sample_per_tick=50)


def _policies():
    return {
        "hashing": HashRouting(FAST.num_shards),
        "double": DoubleHashRouting(FAST.num_shards, offset=8),
        "dynamic": DynamicSecondaryHashRouting(FAST.num_shards),
    }


@pytest.fixture(scope="module")
def saturated_reports():
    return run_policy_comparison(
        _policies(),
        lambda: StaticScenario(rate=SATURATING_RATE, duration=90.0),
        config=FAST,
        workload=WL,
    )


class TestBasicBehaviour:
    def test_under_capacity_all_policies_keep_up(self):
        reports = run_policy_comparison(
            _policies(),
            lambda: StaticScenario(rate=COMFORTABLE_RATE, duration=40.0),
            config=FAST,
            workload=WL,
        )
        for name, report in reports.items():
            assert report.throughput == pytest.approx(COMFORTABLE_RATE, rel=0.05), name
            assert report.avg_delay < 1.0, name

    def test_policy_shard_count_must_match_config(self):
        with pytest.raises(SimulationError):
            WriteSimulation(HashRouting(16), StaticScenario(10, 1.0), config=FAST)

    def test_base_latency_floor(self):
        sim = WriteSimulation(
            HashRouting(FAST.num_shards),
            StaticScenario(rate=1000, duration=10.0),
            config=FAST,
            workload=WL,
        )
        report = sim.run()
        assert report.avg_delay >= BASE_WRITE_LATENCY

    def test_under_capacity_delay_is_the_base_write_latency(self):
        sim = WriteSimulation(
            HashRouting(TINY.num_shards),
            StaticScenario(rate=20.0, duration=20.0),
            config=TINY,
            workload=WorkloadConfig(num_tenants=1000, theta=0.0, seed=0),
        )
        sim.run()
        assert {s.avg_delay for s in sim.metrics.samples} == {BASE_WRITE_LATENCY}

    def test_client_queue_holds_at_most_max_queue_seconds_of_offered_writes(self):
        """Past the cap the backlog stops growing: the wait plateaus at
        ``MAX_QUEUE_SECONDS`` of offered writes over the admitted rate."""
        rate = 1000.0
        sim = WriteSimulation(
            HashRouting(TINY.num_shards),
            StaticScenario(rate=rate, duration=900.0),
            config=TINY,
            workload=WorkloadConfig(num_tenants=1000, theta=1.0, seed=0),
        )
        report = sim.run()
        delays = [s.avg_delay for s in sim.metrics.samples]
        assert delays[100] < delays[200] < delays[300]  # growing before the cap
        plateau = BASE_WRITE_LATENCY + rate * MAX_QUEUE_SECONDS / report.throughput
        assert max(delays) == pytest.approx(plateau)
        late = [s.avg_delay for s in sim.metrics.samples if s.time >= 800.0]
        assert late == pytest.approx([plateau] * len(late))


class TestPaperShapes:
    """Figure 10/11/12 orderings at saturation."""

    def test_fig10_hashing_saturates_below_balanced_policies(self, saturated_reports):
        assert saturated_reports["hashing"].throughput < saturated_reports["double"].throughput * 0.95
        assert saturated_reports["dynamic"].throughput > saturated_reports["hashing"].throughput

    def test_fig10_dynamic_close_to_double(self, saturated_reports):
        ratio = saturated_reports["dynamic"].throughput / saturated_reports["double"].throughput
        assert ratio > 0.9

    def test_fig10_hashing_delay_worst(self, saturated_reports):
        assert saturated_reports["hashing"].avg_delay > saturated_reports["double"].avg_delay
        assert saturated_reports["hashing"].avg_delay > saturated_reports["dynamic"].avg_delay

    def test_fig12_node_stddev_ordering(self, saturated_reports):
        assert (
            saturated_reports["hashing"].node_throughput_std
            > saturated_reports["dynamic"].node_throughput_std
        )

    def test_fig13_shard_size_ratio_ordering(self, saturated_reports):
        """Hashing ~Zipf shard sizes (max/min >> others); double most uniform."""
        assert (
            saturated_reports["hashing"].shard_size_ratio
            > saturated_reports["dynamic"].shard_size_ratio
            >= saturated_reports["double"].shard_size_ratio * 0.8
        )

    def test_fig11_theta_zero_equalizes_policies(self):
        uniform = WorkloadConfig(num_tenants=10_000, theta=0.0, seed=0)
        reports = run_policy_comparison(
            _policies(),
            lambda: StaticScenario(rate=SATURATING_RATE, duration=60.0),
            config=FAST,
            workload=uniform,
        )
        values = [r.throughput for r in reports.values()]
        assert max(values) / min(values) < 1.1

    def test_fig11_hashing_degrades_with_theta(self):
        throughputs = {}
        for theta in (0.0, 1.5):
            wl = WorkloadConfig(num_tenants=10_000, theta=theta, seed=0)
            sim = WriteSimulation(
                HashRouting(FAST.num_shards),
                StaticScenario(rate=SATURATING_RATE, duration=60.0),
                config=FAST,
                workload=wl,
            )
            throughputs[theta] = sim.run().throughput
        assert throughputs[1.5] < throughputs[0.0] * 0.75


class TestDynamicAdaptivity:
    def test_fig14_rules_committed_and_throughput_recovers(self):
        config = SimulationConfig(
            sample_per_tick=400, balance_window=5.0, consensus_interval=2.0
        )
        sim = WriteSimulation(
            DynamicSecondaryHashRouting(config.num_shards),
            HotspotShiftScenario(
                rate=SATURATING_RATE, duration=120.0, shift_times=(30.0,), shift_amount=500
            ),
            config=config,
            workload=WorkloadConfig(num_tenants=10_000, theta=1.2, seed=0),
        )
        report = sim.run()
        assert sim.rule_commits, "balancer must commit rules"
        series = dict(sim.metrics.throughput_series())
        # After the shift + adaptation, throughput must recover to at least
        # the level right before the shift.
        before = series[29.0]
        recovered = max(series[t] for t in series if t > 60.0)
        assert recovered >= before * 0.9

    def test_rules_take_effect_after_consensus_interval(self):
        config = SimulationConfig(
            sample_per_tick=400, balance_window=5.0, consensus_interval=3.0
        )
        sim = WriteSimulation(
            DynamicSecondaryHashRouting(config.num_shards),
            StaticScenario(rate=SATURATING_RATE, duration=30.0),
            config=config,
            workload=WorkloadConfig(num_tenants=10_000, theta=1.5, seed=0),
        )
        sim.run()
        for effective_time, _, _ in sim.rule_commits:
            assert effective_time >= config.consensus_interval

    def test_static_policy_never_commits_rules(self):
        sim = WriteSimulation(
            HashRouting(FAST.num_shards),
            StaticScenario(rate=SATURATING_RATE, duration=30.0),
            config=FAST,
            workload=WL,
        )
        sim.run()
        assert sim.rule_commits == []

    def test_seeded_model_outputs_are_pinned(self):
        """The model is seeded end to end, so its outputs are exact: a
        change to the sampler, the balancer or the tick loop moves these
        numbers, and a second run must reproduce the first."""
        config = SimulationConfig(
            num_nodes=4, num_shards=64, node_capacity=5_000.0,
            sample_per_tick=300, balance_window=10.0, consensus_interval=5.0,
        )

        def run():
            sim = WriteSimulation(
                DynamicSecondaryHashRouting(config.num_shards),
                StaticScenario(rate=9_000.0, duration=40.0),
                config=config,
            )
            report = sim.run()
            return (
                report.throughput, report.delay_p99, report.max_delay,
                len(sim.metrics.samples), len(sim.rule_commits),
            )

        throughput, delay_p99, max_delay, ticks, commits = first = run()
        assert throughput == pytest.approx(9000.6625, abs=1e-3)
        assert delay_p99 == max_delay == 0.2
        assert (ticks, commits) == (40, 23)
        assert run() == first


class TestReplicationModel:
    def test_fig15_physical_replication_raises_ceiling(self):
        def run(model):
            sim = WriteSimulation(
                DoubleHashRouting(FAST.num_shards, offset=8),
                StaticScenario(rate=400_000, duration=60.0),
                config=FAST,
                workload=WL,
                replication=model,
            )
            return sim.run()

        logical = run(ReplicationCostModel.logical())
        physical = run(ReplicationCostModel.physical())
        assert physical.throughput > logical.throughput * 1.3

    def test_fig15_physical_lower_cpu_same_rate(self):
        def run(model):
            sim = WriteSimulation(
                DoubleHashRouting(FAST.num_shards, offset=8),
                StaticScenario(rate=COMFORTABLE_RATE, duration=40.0),
                config=FAST,
                workload=WL,
                replication=model,
            )
            return sim.run()

        logical = run(ReplicationCostModel.logical())
        physical = run(ReplicationCostModel.physical())
        assert physical.avg_cpu < logical.avg_cpu


class TestHotspotIsolationMode:
    def test_ordinary_tenants_protected_under_overload(self):
        skewed = WorkloadConfig(num_tenants=10_000, theta=1.5, seed=0)
        sim = WriteSimulation(
            HashRouting(FAST.num_shards),
            StaticScenario(rate=SATURATING_RATE, duration=40.0),
            config=FAST,
            workload=skewed,
            hotspot_isolation=True,
        )
        sim.run()
        steady = [d for d in sim.isolation_delays if d[0] >= 10.0]
        assert steady, "isolation mode must record per-class waits"
        ordinary = max(w for _, w, _ in steady)
        hotspot = max(h for _, _, h in steady)
        assert ordinary < 1.0
        assert hotspot > ordinary

    def test_per_class_wait_is_capped_at_max_queue_seconds(self):
        sim = WriteSimulation(
            HashRouting(TINY.num_shards),
            StaticScenario(rate=1000.0, duration=700.0),
            config=TINY,
            workload=WorkloadConfig(num_tenants=1000, theta=1.5, seed=0),
            hotspot_isolation=True,
        )
        sim.run()
        hotspot = [h for _, _, h in sim.isolation_delays]
        assert max(hotspot) == MAX_QUEUE_SECONDS
        assert hotspot[-1] == MAX_QUEUE_SECONDS
        assert max(o for _, o, _ in sim.isolation_delays) <= MAX_QUEUE_SECONDS

    def test_no_tenant_under_the_isolation_threshold_is_isolated(self):
        """A uniform stream over 10,000 tenants puts no tenant near
        ``ISOLATION_THRESHOLD`` of a tick's sample, so the hotspot queue
        never holds a write."""
        assert 1 / 10_000 < ISOLATION_THRESHOLD / 10
        sim = WriteSimulation(
            HashRouting(FAST.num_shards),
            StaticScenario(rate=SATURATING_RATE, duration=20.0),
            config=FAST,
            workload=WorkloadConfig(num_tenants=10_000, theta=0.0, seed=0),
            hotspot_isolation=True,
        )
        sim.run()
        assert sim.isolation_delays
        assert all(h == 0.0 for _, _, h in sim.isolation_delays)

    def test_isolation_off_records_nothing(self):
        sim = WriteSimulation(
            HashRouting(FAST.num_shards),
            StaticScenario(rate=COMFORTABLE_RATE, duration=10.0),
            config=FAST,
            workload=WL,
        )
        sim.run()
        assert sim.isolation_delays == []

    def test_isolation_throughput_not_worse_than_shared_queue(self):
        skewed = WorkloadConfig(num_tenants=10_000, theta=1.5, seed=0)

        def run(iso):
            sim = WriteSimulation(
                HashRouting(FAST.num_shards),
                StaticScenario(rate=SATURATING_RATE, duration=40.0),
                config=FAST,
                workload=skewed,
                hotspot_isolation=iso,
            )
            return sim.run()

        assert run(True).throughput >= run(False).throughput * 0.95
