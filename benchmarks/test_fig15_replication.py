"""Figure 15: write throughput (a) and average cluster CPU usage (b) with
logical vs physical replication.

Paper shape: logical replication's throughput stops rising around the
cluster's re-execution ceiling while physical replication keeps scaling
(140K vs 180K+ in the paper); at equal rates physical replication's CPU
usage is always lower.
"""

from __future__ import annotations

import pytest

from repro.experiments import run


@pytest.fixture(scope="module")
def sweep(scale):
    result = run("fig15", scale)
    print(result.render())
    return result.values["reports"]


def test_fig15a_throughput_logical_vs_physical(sweep):
    top = max(sweep["logical"])
    # Logical replication hits its ceiling between 160K and 200K...
    logical_top = sweep["logical"][top].throughput
    assert logical_top < top * 0.85
    # ...while physical replication still scales well past it.
    physical_top = sweep["physical"][top].throughput
    assert physical_top > logical_top * 1.2
    # Below the ceiling both keep up with the offered rate.
    assert sweep["logical"][80_000].throughput == pytest.approx(80_000, rel=0.05)
    assert sweep["physical"][80_000].throughput == pytest.approx(80_000, rel=0.05)


def test_fig15b_cpu_logical_vs_physical(sweep):
    # Physical replication's CPU is lower at every offered rate.
    for rate in sweep["logical"]:
        assert sweep["physical"][rate].avg_cpu < sweep["logical"][rate].avg_cpu, rate


def test_fig15_real_engine_cpu_accounting():
    """Cross-check the cost model against the real storage engines: replica
    CPU under physical replication is a small fraction of logical. Not a
    figure series, so it builds its own engines."""
    from repro.replication import LogicalReplicator, PhysicalReplicator
    from repro.storage import EngineConfig, Schema, ShardEngine
    from repro.workload import TransactionLogGenerator, WorkloadConfig

    config = EngineConfig(schema=Schema.transaction_logs(), auto_refresh_every=None)
    generator = TransactionLogGenerator(WorkloadConfig(num_tenants=100, seed=0))
    logical = LogicalReplicator(ShardEngine(config), ShardEngine(config))
    primary = ShardEngine(config)
    physical = PhysicalReplicator(primary)
    for i in range(300):
        doc = generator.generate(float(i))
        logical.index(doc)
        primary.index(doc)
    logical.refresh()
    primary.refresh()
    physical.replicate()
    logical_cpu = logical.accounting.replica_cpu
    physical_cpu = physical.accounting.replica_cpu
    print(
        f"\nreplica CPU for 300 docs — logical: {logical_cpu:,.0f} units, "
        f"physical: {physical_cpu:,.0f} units "
        f"({physical_cpu / logical_cpu:.1%} of logical)"
    )
    assert physical_cpu < logical_cpu * 0.3
