"""Shared helpers for the figure-reproduction benchmarks.

Every module in this directory regenerates one figure of the paper's
evaluation (§6). Each test prints the same rows/series the paper reports
and asserts the qualitative shape (who wins, roughly by what factor, where
crossovers fall). Absolute numbers differ from the paper — the substrate is
a simulator, not Alibaba's testbed (see DESIGN.md).
"""

from __future__ import annotations

from repro.routing import DoubleHashRouting, DynamicSecondaryHashRouting, HashRouting
from repro.sim import SimulationConfig
from repro.workload import WorkloadConfig

#: Simulation scale used by all write-side benches. Matches the paper's
#: topology (8 nodes / 512 shards); sampling keeps runs in seconds.
SIM = SimulationConfig(sample_per_tick=1500)

#: Paper workload: 100K tenants (θ set per experiment).
NUM_TENANTS = 100_000

#: Double hashing distributes each tenant over 8 shards in the paper.
DOUBLE_OFFSET = 8


def make_policies(num_shards: int = SIM.num_shards) -> dict:
    """The three §6.2 routing policies, freshly constructed."""
    return {
        "hashing": HashRouting(num_shards),
        "double-hashing": DoubleHashRouting(num_shards, offset=DOUBLE_OFFSET),
        "dynamic-secondary-hashing": DynamicSecondaryHashRouting(num_shards),
    }


def workload(theta: float, seed: int = 0, tenants: int = NUM_TENANTS) -> WorkloadConfig:
    return WorkloadConfig(num_tenants=tenants, theta=theta, seed=seed)


def print_table(title: str, headers: list, rows: list) -> None:
    """Render one figure's data as an aligned text table."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def fmt(value: float, digits: int = 1) -> str:
    return f"{value:,.{digits}f}"
