"""Ablation: hotspot isolation in the write clients (§3.1).

"Once a worker is overloaded ... the queue will be blocked and the write
delay will rise. ESDB implements hotspot isolation which isolates workloads
of hotspots to another queue, such that they will not negatively affect
other workloads."

This bench runs an overloaded, heavily skewed workload under plain hashing
(no balancing — the worst case isolation is designed for) with and without
the isolated hotspot queue, and compares what *ordinary* tenants experience.
"""

from __future__ import annotations

import statistics

import pytest

from repro.experiments.base import ExperimentResult, Scale, fmt
from repro.experiments.write_side import sim_config, workload
from repro.routing import HashRouting
from repro.sim import WriteSimulation
from repro.workload import StaticScenario

RATE = 200_000
DURATION = 60.0
THETA = 1.5
SIM = sim_config(Scale.SMALL)


def run(isolated: bool) -> WriteSimulation:
    sim = WriteSimulation(
        HashRouting(SIM.num_shards),
        StaticScenario(rate=RATE, duration=DURATION),
        config=SIM,
        workload=workload(THETA, tenants=10_000),
        hotspot_isolation=isolated,
    )
    sim.run()
    return sim


@pytest.fixture(scope="module")
def runs():
    return {"shared queue": run(False), "isolated hotspot queue": run(True)}


def test_ablation_hotspot_isolation_protects_ordinary_tenants(benchmark, runs):
    benchmark.pedantic(lambda: runs, rounds=1, iterations=1)

    shared = runs["shared queue"].metrics.report(warmup=10.0)
    isolated_sim = runs["isolated hotspot queue"]
    isolated = isolated_sim.metrics.report(warmup=10.0)
    steady = [d for d in isolated_sim.isolation_delays if d[0] >= 10.0]
    ordinary_wait = statistics.fmean(w for _, w, _ in steady)
    hotspot_wait = statistics.fmean(h for _, _, h in steady)

    print(ExperimentResult(
        "isolation",
        "Ablation: hotspot isolation under overload (hashing, θ=1.5, 200K TPS)",
        ["variant", "throughput", "ordinary-tenant wait", "hotspot wait"],
        [
            (
                "shared queue",
                fmt(shared.throughput, 0),
                f"{shared.avg_delay:.2f}s (everyone)",
                f"{shared.avg_delay:.2f}s (everyone)",
            ),
            (
                "isolated hotspot queue",
                fmt(isolated.throughput, 0),
                f"{ordinary_wait:.2f}s",
                f"{hotspot_wait:.2f}s",
            ),
        ],
    ).render())

    # Ordinary tenants are fully protected: near-zero queueing even though
    # the hotspot is hopelessly overloaded.
    assert ordinary_wait < 1.0
    assert shared.avg_delay > 10.0
    # The hotspot still pays for itself — isolation is not a free lunch.
    assert hotspot_wait > 10.0
    # Total throughput does not degrade (ordinary traffic fills the nodes
    # the blocked shared queue would have starved).
    assert isolated.throughput >= shared.throughput * 0.95
