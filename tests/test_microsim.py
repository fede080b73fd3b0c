"""Cross-validation: per-write micro-simulation vs the fluid-flow model.

The write-side figures rest on the fluid model; these tests run the same
scenarios through the per-write simulator (no fluid approximations) and
require agreement on the quantities the figures report.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.routing import DoubleHashRouting, HashRouting
from repro.sim import SimulationConfig, WriteSimulation
from repro.sim.microsim import MicroWriteSimulation
from repro.workload import StaticScenario, WorkloadConfig

# Scaled-down cluster so per-write simulation stays fast.
CONFIG = SimulationConfig(
    num_nodes=4, num_shards=64, node_capacity=2_000.0, sample_per_tick=400
)
WORKLOAD = WorkloadConfig(num_tenants=2_000, theta=1.5, seed=0)
DURATION = 30.0


def run_micro(policy, rate):
    return MicroWriteSimulation(
        policy, rate=rate, duration=DURATION, config=CONFIG, workload=WORKLOAD
    ).run()


def run_fluid(policy, rate):
    sim = WriteSimulation(
        policy,
        StaticScenario(rate=rate, duration=DURATION),
        config=CONFIG,
        workload=WORKLOAD,
    )
    return sim.run()


class TestMicroBasics:
    def test_under_capacity_everything_completes(self):
        report = run_micro(DoubleHashRouting(64, offset=8), rate=1_000)
        assert report.completed / report.offered > 0.95
        assert report.avg_delay < 0.5

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            MicroWriteSimulation(HashRouting(16), rate=10, duration=1, config=CONFIG)
        with pytest.raises(SimulationError):
            MicroWriteSimulation(HashRouting(64), rate=0, duration=1, config=CONFIG)

    def test_node_utilization_bounded(self):
        report = run_micro(HashRouting(64), rate=6_000)
        assert (report.node_busy / report.duration <= 1.01).all()


class TestCrossValidation:
    """Fluid and per-write models must agree where the figures read them."""

    def test_under_capacity_models_agree(self):
        rate = 1_500
        micro = run_micro(DoubleHashRouting(64, offset=8), rate)
        fluid = run_fluid(DoubleHashRouting(64, offset=8), rate)
        assert micro.throughput == pytest.approx(rate, rel=0.1)
        assert fluid.throughput == pytest.approx(rate, rel=0.1)

    def test_skew_ordering_preserved(self):
        """The micro model reproduces the headline ordering: balanced
        routing beats plain hashing under skew at a saturating rate."""
        rate = 8_000
        micro_hash = run_micro(HashRouting(64), rate)
        micro_double = run_micro(DoubleHashRouting(64, offset=4), rate)
        assert micro_double.throughput > micro_hash.throughput * 1.05

    def test_hashing_saturation_levels_agree(self):
        """At a saturating rate the two models' hashing throughput agrees
        within modeling tolerance (the fluid cap vs real FIFO dynamics)."""
        rate = 8_000
        micro = run_micro(HashRouting(64), rate)
        fluid = run_fluid(HashRouting(64), rate)
        assert micro.throughput == pytest.approx(fluid.throughput, rel=0.35)
        # Both far below the offered rate: saturation is real in both.
        assert micro.throughput < rate * 0.9
        assert fluid.throughput < rate * 0.9

    def test_hot_node_is_the_same_bottleneck_in_both(self):
        rate = 8_000
        micro = run_micro(HashRouting(64), rate)
        fluid = run_fluid(HashRouting(64), rate)
        # The most utilized node in the micro run matches the node carrying
        # the most work in the fluid run.
        assert int(micro.node_busy.argmax()) == int(
            fluid.node_cpu.argmax()
        )
