"""Write-side experiments (Figures 1, 10–15, 19) on the cluster simulator.

At ``Scale.SMALL`` each figure runs the inputs its ``benchmarks/test_figNN_*``
file asserts on; the same comparison is simulated once per process.
"""

from __future__ import annotations

import functools
from collections import Counter

from repro.experiments.base import ExperimentResult, Scale, experiment, fmt
from repro.routing import DoubleHashRouting, DynamicSecondaryHashRouting, HashRouting
from repro.sim import (
    ReplicationCostModel,
    SimulationConfig,
    WriteSimulation,
    run_policy_comparison,
)
from repro.workload import (
    HotspotShiftScenario,
    SinglesDayScenario,
    StaticScenario,
    WorkloadConfig,
    ZipfSampler,
)

POLICY_NAMES = ("hashing", "double-hashing", "dynamic-secondary-hashing")

#: Fig 19's query latency away from load (ms), inflated by node utilization.
BASE_QUERY_MS = 40.0


def sim_config(scale: Scale, **overrides) -> SimulationConfig:
    """The paper's topology (8 nodes / 512 shards); sampling keeps runs in
    seconds."""
    return SimulationConfig(sample_per_tick=scale.pick(300, 1500, 3000), **overrides)


def workload(theta: float, tenants: int = 100_000) -> WorkloadConfig:
    """The paper's workload: 100K tenants, Zipf(θ) sizes."""
    return WorkloadConfig(num_tenants=tenants, theta=theta, seed=0)


def _tenants(scale: Scale) -> int:
    return scale.pick(10_000, 100_000, 100_000)


def _duration(scale: Scale, small: float) -> float:
    return scale.pick(30.0, small, 900.0)


def _policies(num_shards: int) -> dict:
    """The three §6.2 routing policies; double hashing spreads each tenant
    over 8 shards, as in the paper."""
    return {
        "hashing": HashRouting(num_shards),
        "double-hashing": DoubleHashRouting(num_shards, offset=8),
        "dynamic-secondary-hashing": DynamicSecondaryHashRouting(num_shards),
    }


@functools.cache
def _comparison(scale: Scale, theta: float, rate: float, duration: float) -> dict:
    """The three policies on one static scenario: policy name → report.

    Fig 10's 160K row is Fig 12's θ=1 row and Fig 11's θ=1 row is Fig 13,
    so each seeded comparison is simulated once per process; every caller
    gets the same reports, which none of them mutates.
    """
    config = sim_config(scale)
    return run_policy_comparison(
        _policies(config.num_shards),
        lambda: StaticScenario(rate=rate, duration=duration),
        config=config,
        workload=workload(theta, _tenants(scale)),
    )


@experiment("fig01")
def fig01_skew_characterization(scale: Scale) -> ExperimentResult:
    """Normalized throughput of the top 1000 sellers (power law)."""
    samples = scale.pick(20_000, 200_000, 2_000_000)
    sampler = ZipfSampler(100_000, 1.0, seed=0)
    counts = Counter(sampler.sample_rank() for _ in range(samples))
    ranked = sorted(counts.values(), reverse=True)
    smallest = ranked[min(999, len(ranked) - 1)]
    normalized = [count / smallest for count in ranked[:1000]]
    rows = [
        (rank, fmt(normalized[min(rank, len(normalized)) - 1], 1))
        for rank in (1, 10, 100, 1000)
    ]
    top10 = sum(ranked[:10]) / sum(ranked)
    return ExperimentResult(
        figure="fig01",
        title="normalized throughput of top 1000 sellers",
        headers=["ranked seller", "normalized throughput"],
        rows=rows,
        notes=[f"top-10 share {top10:.2%} (paper: 14.14%)"],
        values={"normalized": normalized, "top10_share": top10},
    )


def _sweep_result(figure, title, key, sweep, columns, label=str) -> ExperimentResult:
    """One row per swept value (shown by *label*): each (header, report
    field, digits) column for every policy."""
    return ExperimentResult(
        figure=figure,
        title=title,
        headers=[key]
        + [f"{header} {n}" for header, _, _ in columns for n in POLICY_NAMES],
        rows=[
            (
                label(value),
                *(
                    fmt(getattr(reports[n], field), digits)
                    for _, field, digits in columns
                    for n in POLICY_NAMES
                ),
            )
            for value, reports in sweep.items()
        ],
        values={"reports": sweep},
    )


@experiment("fig10")
def fig10_throughput_vs_rate(scale: Scale) -> ExperimentResult:
    """Write TPS and avg delay vs generating rate at θ=1."""
    rates = (40_000, 80_000, 120_000, 160_000, 200_000)
    sweep = {rate: _comparison(scale, 1.0, rate, _duration(scale, 90.0)) for rate in rates}
    return _sweep_result(
        "fig10",
        "write throughput (TPS) and avg delay (s) vs generating rate, θ=1",
        "rate",
        sweep,
        [("tput", "throughput", 0), ("delay", "avg_delay", 2)],
        label=lambda rate: fmt(rate, 0),
    )


THETAS = (0.0, 0.5, 1.0, 1.5, 2.0)


@experiment("fig11")
def fig11_throughput_vs_skew(scale: Scale) -> ExperimentResult:
    """Write TPS and avg delay vs θ at 160K TPS."""
    sweep = {
        theta: _comparison(scale, theta, 160_000, _duration(scale, 120.0))
        for theta in THETAS
    }
    return _sweep_result(
        "fig11",
        "write throughput (TPS) and avg delay (s) vs θ at 160K TPS",
        "theta",
        sweep,
        [("tput", "throughput", 0), ("delay", "avg_delay", 2)],
    )


@experiment("fig12")
def fig12_stddev(scale: Scale) -> ExperimentResult:
    """Stddev of per-node and per-shard throughput vs θ."""
    sweep = {
        theta: _comparison(scale, theta, 160_000, _duration(scale, 90.0))
        for theta in THETAS
    }
    return _sweep_result(
        "fig12",
        "stddev of per-node (8) and per-shard (512) write throughput vs θ",
        "theta",
        sweep,
        [("node-std", "node_throughput_std", 0), ("shard-std", "shard_throughput_std", 1)],
    )


@experiment("fig13")
def fig13_node_distribution(scale: Scale) -> ExperimentResult:
    """Per-node throughput/CPU per policy + shard-size ratios at θ=1."""
    reports = _comparison(scale, 1.0, 160_000, _duration(scale, 120.0))
    rows = []
    for name in POLICY_NAMES:
        report = reports[name]
        rows.append(
            (
                name,
                fmt(float(report.node_throughput.min()), 0),
                fmt(float(report.node_throughput.max()), 0),
                f"{report.node_cpu.min() * 100:.0f}-{report.node_cpu.max() * 100:.0f}%",
                fmt(report.shard_size_ratio, 1),
            )
        )
    return ExperimentResult(
        figure="fig13",
        title="per-node throughput range, CPU range and shard-size max/min at θ=1",
        headers=["policy", "min node tput", "max node tput", "cpu range", "shard max/min"],
        rows=rows,
        notes=["paper shard ratios: hashing >100x, dynamic 16x, double 13x"],
        values={"reports": reports},
    )


@experiment("fig14")
def fig14_adaptivity(scale: Scale) -> ExperimentResult:
    """Real-time throughput with two injected hotspot groups."""
    config = sim_config(scale, balance_window=10.0, consensus_interval=5.0)
    duration = scale.pick(120.0, 360.0, 360.0)
    shifts = (duration / 6, duration * 7 / 12)
    simulations = {}
    for name, policy in _policies(config.num_shards).items():
        sim = WriteSimulation(
            policy,
            HotspotShiftScenario(
                rate=160_000, duration=duration, shift_times=shifts, shift_amount=2000
            ),
            config=config,
            workload=workload(1.0, _tenants(scale)),
        )
        sim.run()
        simulations[name] = sim
    series = {n: dict(sim.metrics.throughput_series()) for n, sim in simulations.items()}
    checkpoints = [
        shifts[0] - 10,
        shifts[0] + 10,
        (shifts[0] + shifts[1]) / 2,
        shifts[1] + 10,
        duration - 10,
    ]
    rows = [
        (f"t={int(t)}s", *(fmt(series[n][float(int(t))], 0) for n in POLICY_NAMES))
        for t in checkpoints
    ]
    commits = simulations["dynamic-secondary-hashing"].rule_commits
    return ExperimentResult(
        figure="fig14",
        title=f"real-time throughput (TPS); hotspot groups at {shifts[0]:.0f}s, {shifts[1]:.0f}s",
        headers=["time"] + list(POLICY_NAMES),
        rows=rows,
        notes=[f"{len(commits)} secondary hashing rules committed"],
        values={"series": series, "shifts": shifts, "rule_commits": commits},
    )


@experiment("fig15")
def fig15_replication(scale: Scale) -> ExperimentResult:
    """Throughput and CPU: logical vs physical replication."""
    config = sim_config(scale)
    sweep = {"logical": {}, "physical": {}}
    for name, model in (
        ("logical", ReplicationCostModel.logical()),
        ("physical", ReplicationCostModel.physical()),
    ):
        for rate in (80_000, 120_000, 160_000, 200_000, 240_000):
            sweep[name][rate] = WriteSimulation(
                DoubleHashRouting(config.num_shards, offset=8),
                StaticScenario(rate=rate, duration=_duration(scale, 60.0)),
                config=config,
                workload=workload(1.0, _tenants(scale)),
                replication=model,
            ).run()
    rows = [
        (
            fmt(rate, 0),
            fmt(logical.throughput, 0),
            fmt(sweep["physical"][rate].throughput, 0),
            f"{logical.avg_cpu * 100:.0f}%",
            f"{sweep['physical'][rate].avg_cpu * 100:.0f}%",
        )
        for rate, logical in sweep["logical"].items()
    ]
    return ExperimentResult(
        figure="fig15",
        title="write throughput (TPS) and avg CPU — logical vs physical replication",
        headers=["rate", "tput logical", "tput physical", "cpu logical", "cpu physical"],
        rows=rows,
        values={"reports": sweep},
    )


def _query_latency_ms(cpu_utilization: float) -> float:
    """Average query latency from node utilization (M/M/1-style inflation,
    capped — coordinators shed queries rather than queue unboundedly)."""
    usable = min(cpu_utilization, 0.97)
    return min(BASE_QUERY_MS / (1.0 - usable), BASE_QUERY_MS * 40)


@experiment("fig19")
def fig19_online_spike(scale: Scale) -> ExperimentResult:
    """Max write delay and avg query latency around the Single's Day kickoff
    (dynamic policy), with hashing as the baseline that never adapts."""
    config = SimulationConfig(
        sample_per_tick=scale.pick(300, 1200, 2400),
        balance_window=10.0,
        consensus_interval=5.0,
    )
    spike = scale.pick(60.0, 300.0, 600.0)
    duration = scale.pick(240.0, 1500.0, 1800.0)
    runs = {}
    for name, policy in (
        ("dynamic", DynamicSecondaryHashRouting(config.num_shards)),
        ("hashing", HashRouting(config.num_shards)),
    ):
        runs[name] = WriteSimulation(
            policy,
            SinglesDayScenario(
                baseline_rate=40_000,
                duration=duration,
                spike_time=spike,
                spike_factor=10.0,
                decay_seconds=120.0,
                plateau_factor=3.2,
                hotspot_shift=1500,
            ),
            config=config,
            workload=workload(1.0, _tenants(scale)),
        )
        runs[name].run()
    delays = dict(runs["dynamic"].metrics.max_delay_series())
    hashing = dict(runs["hashing"].metrics.max_delay_series())
    query_ms = {
        s.time: _query_latency_ms(float(s.node_cpu.mean()))
        for s in runs["dynamic"].metrics.samples
    }
    tail = duration - 100.0
    rows = [
        (f"t={int(t - spike):+d}s", fmt(delays[t], 1), fmt(query_ms[t], 0))
        for t in sorted({spike - 60, spike + 30, spike + 120, spike + 300, spike + 600, tail})
        if t in delays
    ]
    commits = runs["dynamic"].rule_commits
    return ExperimentResult(
        figure="fig19",
        title="max write delay (s) and avg query latency (ms) around the Single's "
        "Day kickoff (t=0 is midnight)",
        headers=["time", "max write delay", "avg query latency"],
        rows=rows,
        notes=[
            f"{len(commits)} rules committed",
            f"max write delay at t={int(tail - spike):+d}s — dynamic: "
            f"{delays[tail]:.1f}s, hashing: {hashing[tail]:.1f}s",
            "paper: delay peaks ~350s and is fully digested in <7 minutes",
        ],
        values={
            "spike": spike,
            "tail": tail,
            "delays": delays,
            "hashing_delays": hashing,
            "query_ms": query_ms,
            "rule_commits": commits,
        },
    )
