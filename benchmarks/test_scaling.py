"""Robustness sweep: dynamic secondary hashing across cluster sizes.

Not a paper figure — a deployment-sensitivity check an adopter would want:
does the dynamic policy's advantage over hashing hold as the cluster grows
from 4 to 16 nodes, and does the balancer's offset selection adapt to the
shard count?
"""

from __future__ import annotations

import pytest

from repro.experiments.base import ExperimentResult, fmt
from repro.experiments.write_side import workload
from repro.routing import DynamicSecondaryHashRouting, HashRouting
from repro.sim import SimulationConfig, WriteSimulation
from repro.workload import StaticScenario

THETA = 1.2
DURATION = 60.0


def run_pair(num_nodes: int, num_shards: int, rate: float):
    config = SimulationConfig(
        num_nodes=num_nodes,
        num_shards=num_shards,
        sample_per_tick=1000,
    )
    out = {}
    for name, policy in (
        ("hashing", HashRouting(num_shards)),
        ("dynamic", DynamicSecondaryHashRouting(num_shards)),
    ):
        sim = WriteSimulation(
            policy,
            StaticScenario(rate=rate, duration=DURATION),
            config=config,
            workload=workload(THETA, tenants=20_000),
        )
        out[name] = (sim.run(), sim)
    return out


@pytest.fixture(scope="module")
def sweep():
    cases = {}
    for num_nodes, num_shards in ((4, 256), (8, 512), (16, 1024)):
        # Offered rate scales with the cluster: saturating in every case.
        rate = num_nodes * 25_000
        cases[(num_nodes, num_shards)] = run_pair(num_nodes, num_shards, rate)
    return cases


def test_scaling_dynamic_beats_hashing_at_every_size(benchmark, sweep):
    benchmark.pedantic(lambda: sweep, rounds=1, iterations=1)
    rows = []
    for (num_nodes, num_shards), result in sweep.items():
        hashing_report, _ = result["hashing"]
        dynamic_report, dynamic_sim = result["dynamic"]
        rows.append(
            (
                f"{num_nodes} nodes / {num_shards} shards",
                fmt(hashing_report.throughput, 0),
                fmt(dynamic_report.throughput, 0),
                f"{dynamic_report.throughput / hashing_report.throughput:.2f}x",
                len(dynamic_sim.rule_commits),
            )
        )
    print(ExperimentResult(
        "scaling",
        f"Scaling sweep at θ={THETA}: hashing vs dynamic secondary hashing",
        ["cluster", "hashing TPS", "dynamic TPS", "gain", "rules"],
        rows,
    ).render())
    for (num_nodes, _), result in sweep.items():
        hashing_report, _ = result["hashing"]
        dynamic_report, dynamic_sim = result["dynamic"]
        assert dynamic_report.throughput > hashing_report.throughput * 1.05, num_nodes
        assert dynamic_sim.rule_commits, num_nodes


def test_scaling_offsets_respect_shard_count(sweep, benchmark):
    benchmark(lambda: None)
    for (num_nodes, num_shards), result in sweep.items():
        _, dynamic_sim = result["dynamic"]
        offsets = [offset for _, _, offset in dynamic_sim.rule_commits]
        assert offsets, (num_nodes, num_shards)
        assert max(offsets) <= num_shards
        # Power-of-two discipline holds at every scale.
        assert all(o & (o - 1) == 0 for o in offsets)
