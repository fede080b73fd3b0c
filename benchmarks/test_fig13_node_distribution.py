"""Figure 13: per-node throughput + CPU usage under each routing policy
(a–c) and normalized shard sizes (d), at θ = 1.

Paper shape: with hashing, the hotspot's primary/replica node pair runs at
full capacity while the rest idle; with dynamic secondary hashing every node
participates (CPU ≈ 85% there). Shard sizes: hashing ≈ Zipf with a
largest/smallest ratio >100x; dynamic ≈ 16x; double hashing ≈ 13x (most
uniform).
"""

from __future__ import annotations

import pytest

from repro.experiments import run


@pytest.fixture(scope="module")
def reports(scale):
    result = run("fig13", scale)
    print(result.render())
    return result.values["reports"]


def test_fig13abc_per_node_throughput_and_cpu(reports):
    hash_cpu = reports["hashing"].node_cpu
    dyn_cpu = reports["dynamic-secondary-hashing"].node_cpu

    # Hashing: busiest node saturated, several nodes nearly idle relative to it.
    assert hash_cpu.max() > 0.9
    assert hash_cpu.min() < hash_cpu.max() * 0.75
    # Dynamic: all nodes participate at high, even utilization.
    assert dyn_cpu.min() > 0.5
    assert dyn_cpu.max() - dyn_cpu.min() < 0.3
    # Dynamic spreads throughput: min-node throughput far above hashing's.
    assert (
        reports["dynamic-secondary-hashing"].node_throughput.min()
        > reports["hashing"].node_throughput.min()
    )


def test_fig13d_normalized_shard_sizes(reports):
    # Ordering of imbalance: hashing >> dynamic >= double (paper: >100x, 16x, 13x).
    assert reports["hashing"].shard_size_ratio > 50
    assert reports["dynamic-secondary-hashing"].shard_size_ratio < (
        reports["hashing"].shard_size_ratio / 2
    )
    assert (
        reports["double-hashing"].shard_size_ratio
        <= reports["dynamic-secondary-hashing"].shard_size_ratio * 1.5
    )
