"""Ablation: power-of-two offsets vs exact offsets (§4.1/§4.2 design choice).

The paper chooses ``s`` among powers of two "to limit the number of
secondary hashing rules and accelerate the search in the rule list". This
bench quantifies that: with exact (arbitrary-integer) offsets, a tenant
population produces nearly as many distinct offsets as tenants, so the rule
list grows linearly; with power-of-two bucketing the distinct-offset count
is logarithmic while the achieved balance (post-split per-shard share) is
within 2x of exact.
"""

from __future__ import annotations

import math

from benchmarks.conftest import print_table
from repro.balancer import compute_offset_size
from repro.routing import RuleList
from repro.workload.zipf import zipf_weights

NUM_SHARDS = 512
TARGET = 0.004
NUM_TENANTS = 2000
THETA = 1.0


def exact_offset(share: float) -> int:
    """The unbucketed alternative: smallest integer meeting the target."""
    return max(1, min(NUM_SHARDS, math.ceil(share / TARGET)))


def build_rule_lists():
    weights = zipf_weights(NUM_TENANTS, THETA)
    pow2_rules = RuleList()
    exact_rules = RuleList()
    pow2_offsets = []
    exact_offsets = []
    for tenant, share in enumerate(weights):
        p2 = compute_offset_size(float(share), NUM_SHARDS, TARGET)
        ex = exact_offset(float(share))
        if p2 > 1:
            pow2_rules.update(0.0, p2, tenant)
            pow2_offsets.append(p2)
        if ex > 1:
            exact_rules.update(0.0, ex, tenant)
            exact_offsets.append(ex)
    return pow2_rules, exact_rules, weights, pow2_offsets, exact_offsets


def test_ablation_power_of_two_offsets(benchmark):
    pow2_rules, exact_rules, weights, pow2_offsets, exact_offsets = benchmark.pedantic(
        build_rule_lists, rounds=1, iterations=1
    )

    pow2_distinct = len(set(pow2_offsets))
    exact_distinct = len(set(exact_offsets))
    # Achieved balance: the worst per-shard share after splitting.
    worst_pow2 = max(
        (float(weights[t]) / compute_offset_size(float(weights[t]), NUM_SHARDS, TARGET))
        for t in range(NUM_TENANTS)
    )
    worst_exact = max(
        float(weights[t]) / exact_offset(float(weights[t])) for t in range(NUM_TENANTS)
    )
    print_table(
        "Ablation: power-of-two vs exact secondary-hashing offsets",
        ["variant", "rules", "distinct offsets", "worst per-shard share"],
        [
            ("power-of-two", len(pow2_rules), pow2_distinct, f"{worst_pow2:.5f}"),
            ("exact", len(exact_rules), exact_distinct, f"{worst_exact:.5f}"),
        ],
    )

    # Rule-list economy: pow2 needs log-many distinct offsets...
    assert pow2_distinct <= math.ceil(math.log2(NUM_SHARDS)) + 1
    assert pow2_distinct < exact_distinct
    # Because rules with equal (t, s) merge, the pow2 rule list is tiny.
    assert len(pow2_rules) <= pow2_distinct
    assert len(exact_rules) >= len(pow2_rules)
    # ...while sacrificing at most 2x on the balance target (a power-of-two
    # bucket over-splits, never under-splits past the 2x rounding).
    assert worst_pow2 <= TARGET
    assert worst_pow2 <= worst_exact * 2.01


def test_ablation_rule_match_speed(benchmark):
    """Rule matching stays fast even with many tenants in the list — the
    per-tenant index makes match() independent of total rule count."""
    rules = RuleList()
    for tenant in range(5000):
        rules.update(float(tenant % 16), 2 ** (tenant % 9 + 1) % 512 or 2, tenant)

    def match_many():
        total = 0
        for tenant in range(0, 5000, 7):
            total += rules.match(tenant, 100.0)
        return total

    total = benchmark(match_many)
    assert total > 0
