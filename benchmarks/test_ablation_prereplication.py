"""Ablation: pre-replication of merged segments (§5.2).

The paper's claim: replicating a large merged segment inside the quick
incremental rounds delays the visibility of freshly refreshed segments;
shipping merged segments *immediately when the merge finishes*, on an
independent track, keeps them out of the refresh-round segment diff and
bounds the visibility delay of fresh data.

This bench builds the same primary timeline twice — a big merge at t=10,
a small refresh at t=20 — and measures the fresh segment's visibility delay
with and without the early pre-replication call.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentResult
from repro.replication import PhysicalReplicator
from repro.storage import EngineConfig, Schema, ShardEngine, TieredMergePolicy

NETWORK_SECONDS_PER_BYTE = 1e-5  # slow link so copy time dominates


def _build_primary() -> ShardEngine:
    config = EngineConfig(schema=Schema.transaction_logs(), auto_refresh_every=None)
    return ShardEngine(config, merge_policy=TieredMergePolicy(merge_factor=2))


def _timeline(prereplicate_early: bool) -> float:
    """Run the merge-then-refresh timeline; return the fresh segment's
    visibility delay on the replica."""
    primary = _build_primary()
    replicator = PhysicalReplicator(
        primary, network_seconds_per_byte=NETWORK_SECONDS_PER_BYTE
    )

    # t=0..9: two refreshes accumulate, triggering a (large) merge.
    replicator.advance_clock(0.0)
    for batch in range(2):
        for i in range(300):
            primary.index(
                {
                    "transaction_id": batch * 1000 + i,
                    "tenant_id": "t",
                    "created_time": float(i),
                    "status": i % 3,
                    "auction_title": "red cotton shirt classic premium " * 3,
                }
            )
        primary.refresh()
    assert primary.stats.merges >= 1
    replicator.replicate(now=5.0)  # baseline sync point (copies everything once)

    # A fresh merge appears at t=10 (another pair of refreshes).
    replicator.advance_clock(10.0)
    for batch in range(2, 4):
        for i in range(300):
            primary.index(
                {
                    "transaction_id": batch * 1000 + i,
                    "tenant_id": "t",
                    "created_time": float(i),
                    "status": i % 3,
                    "auction_title": "blue silk dress vintage handmade " * 3,
                }
            )
        primary.refresh()
    if prereplicate_early:
        # The §5.2 design: merged segments ship the moment the merge ends.
        replicator.run_prereplication()

    # t=20: one small fresh segment refreshes; the next round must make it
    # visible on the replica quickly.
    replicator.advance_clock(20.0)
    for i in range(20):
        primary.index(
            {
                "transaction_id": 90_000 + i,
                "tenant_id": "t",
                "created_time": 20.0 + i,
                "status": 0,
            }
        )
    fresh = primary.refresh()
    assert fresh is not None
    replicator.replicate(now=20.0)
    assert replicator.in_sync()
    return replicator.accounting.visibility_delays[-1]


def test_ablation_prereplication_bounds_visibility_delay(benchmark):
    with_pre = benchmark.pedantic(lambda: _timeline(True), rounds=1, iterations=1)
    without_pre = _timeline(False)
    print(ExperimentResult(
        "prereplication",
        "Ablation: visibility delay of a fresh segment (s) with/without "
        "pre-replication of merged segments",
        ["variant", "fresh-segment visibility delay"],
        [
            ("pre-replication on", f"{with_pre:.3f}"),
            ("pre-replication off", f"{without_pre:.3f}"),
        ],
    ).render())
    # Shipping the merged segment early keeps it out of the refresh round's
    # diff: the fresh segment becomes visible sooner.
    assert with_pre < without_pre
    # And dramatically so — the merged segment is ~an order of magnitude
    # larger than the fresh one.
    assert with_pre < without_pre * 0.5
