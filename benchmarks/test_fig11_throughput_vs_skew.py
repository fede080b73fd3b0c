"""Figure 11: write throughput (a) and average delay (b) vs skewness factor
θ ∈ {0, 0.5, 1, 1.5, 2} at a 160K TPS generating rate.

Paper shape: at θ=0 all three policies are equivalent (workload naturally
balanced); as θ grows, hashing's throughput collapses and its delay grows by
orders of magnitude, while double hashing and dynamic secondary hashing stay
flat — with dynamic's delay slightly above double's (it never reaches a
perfectly uniform distribution).
"""

from __future__ import annotations

import pytest

from repro.experiments import run

NAMES = ("hashing", "double-hashing", "dynamic-secondary-hashing")


@pytest.fixture(scope="module")
def sweep(scale):
    result = run("fig11", scale)
    print(result.render())
    return result.values["reports"]


def test_fig11a_throughput_vs_theta(sweep):
    # θ=0: all three within a few percent of each other.
    base = [sweep[0.0][n].throughput for n in NAMES]
    assert max(base) / min(base) < 1.1
    # Hashing collapses as θ grows; balanced policies stay flat.
    assert sweep[2.0]["hashing"].throughput < sweep[0.0]["hashing"].throughput * 0.6
    for name in ("double-hashing", "dynamic-secondary-hashing"):
        assert sweep[2.0][name].throughput > sweep[0.0][name].throughput * 0.9, name


def test_fig11b_delay_vs_theta(sweep):
    # Hashing's delay at extreme skew is orders of magnitude above its θ=0
    # value (paper: >100x).
    assert (
        sweep[2.0]["hashing"].avg_delay
        > max(sweep[0.0]["hashing"].avg_delay, 0.2) * 20
    )
    # Balanced policies' delays stay in the same band across θ; dynamic sits
    # at or above double hashing (never perfectly uniform) but stays close.
    for theta in sweep:
        double = sweep[theta]["double-hashing"].avg_delay
        dynamic = sweep[theta]["dynamic-secondary-hashing"].avg_delay
        assert dynamic <= max(double * 5, double + 15.0), theta
        assert sweep[theta]["hashing"].avg_delay >= double * 0.99, theta
