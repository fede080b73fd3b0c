"""Figure 19: max write delay and average query latency around the Single's
Day kickoff.

Paper shape: at 00:00 the workload spikes and the max write delay rises
sharply (to ~350 s); after hotspots are detected and secondary hashing rules
adopted, ESDB digests the backlog in under 7 minutes and write delays return
to zero, while the average query latency stays bounded (≤164 ms) throughout.

The reproduction drives the simulator with the scripted Single's-Day
scenario (baseline → 10x spike with a fresh hotspot group → decay) under the
dynamic policy, and derives query latency from per-tick node utilization
with an M/M/1-style inflation of the baseline latency.
"""

from __future__ import annotations

import pytest

from repro.experiments import run
from repro.experiments.write_side import BASE_QUERY_MS


@pytest.fixture(scope="module")
def fig19(scale):
    result = run("fig19", scale)
    print(result.render())
    return result.values


def test_fig19_spike_digested_after_adaptation(fig19):
    spike, delays = fig19["spike"], fig19["delays"]
    before = delays[spike - 60]
    peak = max(v for t, v in delays.items() if t >= spike)
    tail = delays[fig19["tail"]]

    # The spike produces a visible write-delay excursion...
    assert peak > before * 3
    # ...which the system digests: delays return to (near) baseline.
    assert tail < before + 2.0
    # Adaptation happened via committed rules after the spike.
    assert any(t >= spike for t, _, _ in fig19["rule_commits"])
    # Query latency stays bounded throughout (paper: ≤164 ms).
    assert max(fig19["query_ms"].values()) <= BASE_QUERY_MS * 40


def test_fig19_hashing_baseline_never_recovers(fig19):
    """Contrast: without adaptive balancing the backlog persists far longer
    (the pre-ESDB '100 minutes of write delay' experience)."""
    dyn_tail = fig19["delays"][fig19["tail"]]
    hash_tail = fig19["hashing_delays"][fig19["tail"]]
    assert hash_tail > dyn_tail + 10.0
