"""Model validation: per-write micro-simulation vs the fluid-flow model.

Not a paper figure — the evidence behind DESIGN.md's substitution argument.
The write-side figures come from the fluid model; this bench runs the same
scenarios through the per-write simulator (no fluid approximations) and
prints both side by side. The figures' conclusions only require the two to
agree on saturation behaviour and policy ordering, which the assertions
check.
"""

from __future__ import annotations

import pytest

from repro.experiments.base import ExperimentResult, fmt
from repro.routing import DoubleHashRouting, HashRouting
from repro.sim import SimulationConfig, WriteSimulation
from repro.sim.microsim import MicroWriteSimulation
from repro.workload import StaticScenario, WorkloadConfig

CONFIG = SimulationConfig(
    num_nodes=4, num_shards=64, node_capacity=2_000.0, sample_per_tick=500
)
WORKLOAD = WorkloadConfig(num_tenants=2_000, theta=1.5, seed=0)
DURATION = 40.0
RATES = (1_500, 4_000, 8_000)


def _policies():
    return {
        "hashing": lambda: HashRouting(64),
        "double-hashing": lambda: DoubleHashRouting(64, offset=4),
    }


def run_pair(policy_factory, rate):
    micro = MicroWriteSimulation(
        policy_factory(), rate=rate, duration=DURATION, config=CONFIG, workload=WORKLOAD
    ).run()
    fluid = WriteSimulation(
        policy_factory(),
        StaticScenario(rate=rate, duration=DURATION),
        config=CONFIG,
        workload=WORKLOAD,
    ).run()
    return micro, fluid


@pytest.fixture(scope="module")
def sweep():
    return {
        (name, rate): run_pair(factory, rate)
        for name, factory in _policies().items()
        for rate in RATES
    }


def test_model_validation_throughput_agreement(benchmark, sweep):
    benchmark.pedantic(lambda: sweep, rounds=1, iterations=1)
    rows = []
    for (name, rate), (micro, fluid) in sweep.items():
        rows.append(
            (
                name,
                fmt(rate, 0),
                fmt(micro.throughput, 0),
                fmt(fluid.throughput, 0),
                f"{micro.throughput / max(fluid.throughput, 1e-9):.2f}",
            )
        )
    print(ExperimentResult(
        "model-validation",
        "Model validation: per-write micro-sim vs fluid-flow model "
        f"(4 nodes / 64 shards, θ={WORKLOAD.theta})",
        ["policy", "offered rate", "micro TPS", "fluid TPS", "micro/fluid"],
        rows,
    ).render())

    for (name, rate), (micro, fluid) in sweep.items():
        if rate == RATES[0]:
            # Under capacity both models keep up with the offered rate.
            assert micro.throughput == pytest.approx(rate, rel=0.1), (name, rate)
            assert fluid.throughput == pytest.approx(rate, rel=0.1), (name, rate)
        else:
            # At and past saturation the models agree within tolerance.
            assert micro.throughput == pytest.approx(
                fluid.throughput, rel=0.35
            ), (name, rate)

    # Policy ordering under skew is identical in both models.
    top = RATES[-1]
    micro_hash, fluid_hash = sweep[("hashing", top)]
    micro_double, fluid_double = sweep[("double-hashing", top)]
    assert micro_double.throughput > micro_hash.throughput
    assert fluid_double.throughput > fluid_hash.throughput
