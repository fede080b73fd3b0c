"""Figure 12: standard deviation of write throughput across the 8 nodes (a)
and the 512 shards (b), vs skewness factor θ.

Paper shape: at θ ∈ {0, 0.5} the three policies differ only slightly; as θ
grows, hashing's stddev explodes while dynamic secondary hashing stays far
lower — slightly above double hashing, which is the uniform optimum.
"""

from __future__ import annotations

import pytest

from repro.experiments import run

NAMES = ("hashing", "double-hashing", "dynamic-secondary-hashing")
RATE = 160_000


@pytest.fixture(scope="module")
def sweep(scale):
    result = run("fig12", scale)
    print(result.render())
    return result.values["reports"]


def test_fig12a_node_throughput_stddev(sweep):
    # Low θ: all policies comparable (within one order of magnitude).
    low = [sweep[0.0][n].node_throughput_std for n in NAMES]
    assert max(low) < RATE * 0.05
    # High θ: hashing's imbalance dominates.
    for theta in (1.5, 2.0):
        hash_std = sweep[theta]["hashing"].node_throughput_std
        dyn_std = sweep[theta]["dynamic-secondary-hashing"].node_throughput_std
        dbl_std = sweep[theta]["double-hashing"].node_throughput_std
        assert hash_std > dyn_std * 3, theta
        assert dyn_std >= dbl_std * 0.5, theta  # dynamic close to optimum


def test_fig12b_shard_throughput_stddev(sweep):
    for theta in (1.0, 1.5, 2.0):
        hash_std = sweep[theta]["hashing"].shard_throughput_std
        dyn_std = sweep[theta]["dynamic-secondary-hashing"].shard_throughput_std
        assert hash_std > dyn_std, theta
    # Stddev of hashing grows with θ (more skew, more shard imbalance).
    assert (
        sweep[2.0]["hashing"].shard_throughput_std
        > sweep[0.5]["hashing"].shard_throughput_std
    )
