"""Ablation: the consensus effective-time interval T (§4.3).

The paper argues T must exceed the broadcast round trip + clock skew for
strict consistency, stay below the load-balancing horizon (~60 s) for
effectiveness, and that — as long as T covers the consensus time — workload
processing is never blocked. This bench measures, across T values, how many
writes land in the blocked window during an active consensus round, and the
end-to-end adaptation lag in the simulator.
"""

from __future__ import annotations

from repro.consensus import (
    ConsensusConfig,
    ConsensusMaster,
    Participant,
    RuleProposal,
)
from repro.consensus.messages import PrepareMessage
from repro.experiments.base import ExperimentResult, fmt
from repro.experiments.write_side import workload
from repro.routing import DynamicSecondaryHashRouting
from repro.sim import SimulationConfig, WriteSimulation
from repro.workload import HotspotShiftScenario

INTERVALS = (1.0, 5.0, 15.0, 30.0)


def blocked_fraction(effective_interval: float, consensus_time: float = 0.5) -> float:
    """Fraction of a steady write stream blocked during one round.

    Writes with creation time before the effective time always proceed;
    only writes created inside (t_effective, commit_time] window could block,
    which is empty whenever T > consensus_time.
    """
    participant = Participant("p")
    master = ConsensusMaster(
        [participant], ConsensusConfig(effective_interval=effective_interval)
    )
    # Drive a prepare manually so we can probe the blocked window.
    prepare = PrepareMessage(1, RuleProposal("c", "t", 8), effective_interval)
    participant.on_prepare(prepare)
    # Stream of writes during the consensus round: creation times span
    # [0, consensus_time] — all before the effective time iff T > that span.
    total = 200
    blocked = sum(
        0 if participant.execute_write(i * consensus_time / total) else 1
        for i in range(total)
    )
    return blocked / total


def test_ablation_interval_vs_blocking(benchmark):
    rows = []
    for interval in INTERVALS:
        fraction = blocked_fraction(interval)
        rows.append((interval, f"{fraction * 100:.1f}%"))
    benchmark.pedantic(lambda: blocked_fraction(5.0), rounds=1, iterations=1)
    print(ExperimentResult(
        "consensus",
        "Ablation: writes blocked during a consensus round vs interval T "
        "(consensus takes ~0.5s)",
        ["T (s)", "blocked writes"],
        rows,
    ).render())
    # T larger than the consensus time ⇒ non-blocking (the §4.3 guarantee).
    for interval in INTERVALS:
        assert blocked_fraction(interval) == 0.0

    # A T smaller than the consensus duration WOULD block the tail of the
    # stream — demonstrating why T must dominate the round trip.
    assert blocked_fraction(0.2, consensus_time=1.0) > 0.0


def test_ablation_interval_vs_adaptation_lag(benchmark):
    """Larger T delays when committed rules take effect: the simulator's
    recovery after a hotspot shift is later for larger T."""

    def recovery_time(interval: float) -> float:
        config = SimulationConfig(
            sample_per_tick=600,
            balance_window=5.0,
            consensus_interval=interval,
        )
        sim = WriteSimulation(
            DynamicSecondaryHashRouting(config.num_shards),
            HotspotShiftScenario(
                rate=200_000, duration=150.0, shift_times=(30.0,), shift_amount=1500
            ),
            config=config,
            workload=workload(1.2, tenants=10_000),
        )
        sim.run()
        after_shift = [t for t, _, _ in sim.rule_commits if t > 30.0]
        return min(after_shift) if after_shift else float("inf")

    lag_small = benchmark.pedantic(lambda: recovery_time(2.0), rounds=1, iterations=1)
    lag_large = recovery_time(30.0)
    print(ExperimentResult(
        "consensus",
        "Ablation: first post-shift rule effective time vs interval T",
        ["T (s)", "first effective rule (s, shift at 30s)"],
        [(2.0, fmt(lag_small, 1)), (30.0, fmt(lag_large, 1))],
    ).render())
    assert lag_small < lag_large
    # Both adapt within the paper's 60 s load-balancing horizon + T.
    assert lag_small < 90.0
