"""Figure 16: query throughput of the top 2000 tenants under the three
routing policies.

Paper setup: 512 shards, 40M docs, 100K tenants (θ=1), the tenant+time
template query with LIMIT 100. Paper shape: double hashing is far below the
other two (every query fans out to 8 subqueries); dynamic secondary hashing
matches hashing for small tenants (single subquery, +63% over double
hashing there) and does not collapse for large tenants because their shards
are smaller and subqueries parallelize.

This reproduction scales the corpus down (Python engine) but keeps the
topology ratios: the measured quantity is real end-to-end SQL latency on
the real storage engine, inverted into QPS.
"""

from __future__ import annotations

import pytest

from repro.experiments import run


@pytest.fixture(scope="module")
def fig16(scale):
    result = run("fig16", scale)
    print(result.render())
    return result.values


def _big_and_small(fig16) -> tuple:
    """The largest and the smallest tenant rank measured."""
    ranks = list(fig16["fanout"]["hashing"])
    return ranks[0], ranks[-1]


def test_fig16_subquery_fanout_by_tenant_rank(fig16):
    fanout = fig16["fanout"]
    big, small = _big_and_small(fig16)
    # Small tenants: double hashing pays 8 subqueries; hashing and dynamic
    # pay one.
    assert fanout["double-hashing"][small] == 8
    assert fanout["dynamic-secondary-hashing"][small] == 1
    # Large tenants: dynamic fans out (>1 subquery).
    assert fanout["dynamic-secondary-hashing"][big] > 1


def test_fig16_query_throughput_by_tenant_rank(fig16, clocks):
    qps = fig16["qps"]
    big, small = _big_and_small(fig16)
    # Small tenants: the paper reports dynamic ≈ hashing, +63% over double
    # hashing there.
    assert qps["dynamic-secondary-hashing"][small] > qps["double-hashing"][small] * 1.3
    ratio_small = (
        qps["dynamic-secondary-hashing"][small] / qps["hashing"][small]
    )
    assert 0.7 < ratio_small < 1.4  # dynamic ≈ hashing for small tenants

    # Large tenants must not collapse — no significant drop versus hashing
    # (paper's claim; shards are smaller).
    assert qps["dynamic-secondary-hashing"][big] > qps["hashing"][big] * 0.5
    # Double hashing is the lowest-QPS policy outside the extreme head —
    # for every tenant whose data fits one shard it pays 8 subqueries for
    # nothing. (For the single largest tenant its smaller shards can win.)
    for rank in qps["hashing"]:
        if rank < 20:
            continue
        best_other = max(qps["hashing"][rank], qps["dynamic-secondary-hashing"][rank])
        assert qps["double-hashing"][rank] < best_other, rank
