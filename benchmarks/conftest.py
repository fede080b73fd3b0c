"""Shared fixtures for the figure-reproduction benchmarks.

Every ``test_figNN_*`` module in this directory takes one figure of the
paper's evaluation (§6) from ``repro.experiments.run("figNN", scale)``,
prints its table and asserts the qualitative shape (who wins, roughly by
what factor, where crossovers fall). Absolute numbers differ from the
paper — the substrate is a simulator, not Alibaba's testbed (see DESIGN.md).

``--scale`` (tiny | small | paper, default small) picks the experiment
scale. Assertions on counts and model outputs are seeded and run at every
scale; assertions on ``perf_counter`` clocks take the ``clocks`` fixture and
are skipped at ``tiny``, where a timing is noise.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--scale",
        choices=("tiny", "small", "paper"),
        default="small",
        help="experiment scale of the figure benchmarks (default: small)",
    )


@pytest.fixture(scope="session")
def scale(request) -> str:
    return request.config.getoption("--scale")


@pytest.fixture
def clocks(scale):
    """Skip a clock assertion at tiny scale, saying why."""
    if scale == "tiny":
        reason = "clock assertion: timings at --scale tiny are noise; run --scale small"
        print(f"\nskipped: {reason}")
        pytest.skip(reason)
