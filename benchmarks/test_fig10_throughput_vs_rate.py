"""Figure 10: write throughput (a) and average delay (b) vs generating rate
at θ = 1, for the three routing policies.

Paper shape: hashing's throughput plateaus early (~90K in the paper's
testbed) while double hashing and dynamic secondary hashing keep scaling to
the cluster ceiling (~140K there); past each policy's ceiling its delay
takes off, hashing's far more steeply.
"""

from __future__ import annotations

import pytest

from repro.experiments import run

NAMES = ("hashing", "double-hashing", "dynamic-secondary-hashing")


@pytest.fixture(scope="module")
def sweep(scale):
    result = run("fig10", scale)
    print(result.render())
    return result.values["reports"]


def test_fig10a_throughput_vs_generating_rate(sweep):
    # Hashing plateaus: its throughput stops growing between 160K and 200K,
    # while the balanced policies keep improving past hashing's ceiling.
    hash_top = sweep[200_000]["hashing"].throughput
    hash_prev = sweep[160_000]["hashing"].throughput
    assert hash_top <= hash_prev * 1.05
    for name in ("double-hashing", "dynamic-secondary-hashing"):
        assert sweep[200_000][name].throughput > hash_top * 1.1, name
    # Dynamic tracks double hashing closely (the paper's headline).
    ratio = (
        sweep[200_000]["dynamic-secondary-hashing"].throughput
        / sweep[200_000]["double-hashing"].throughput
    )
    assert ratio > 0.9


def test_fig10b_delay_vs_generating_rate(sweep):
    # Below every ceiling: all delays small.
    for name in NAMES:
        assert sweep[40_000][name].avg_delay < 1.0
    # Hashing's delay takes off first (before the balanced ceilings) and
    # stays the worst at every saturating rate.
    assert (
        sweep[160_000]["hashing"].avg_delay
        > sweep[160_000]["double-hashing"].avg_delay + 1.0
    )
    assert (
        sweep[200_000]["hashing"].avg_delay
        > sweep[200_000]["dynamic-secondary-hashing"].avg_delay
    )
    # Balanced policies stay low until their (higher) ceiling.
    assert sweep[160_000]["double-hashing"].avg_delay < 1.0
    assert sweep[160_000]["dynamic-secondary-hashing"].avg_delay < 5.0
