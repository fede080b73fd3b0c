"""Analytic query-throughput model at full paper scale.

The Python engine cannot hold the paper's 40M-document corpus, but query
throughput in Figure 16 is governed by quantities we can compute exactly at
full scale:

* **fan-out** — how many subqueries a tenant query issues (1 for hashing,
  the static ``s`` for double hashing, ``L(k1)`` for dynamic);
* **per-query engine work** — every subquery pays a fixed dispatch +
  index-search cost, and the scan/fetch work is bounded by the template
  query's ``LIMIT 100`` regardless of tenant size (indexes + early
  termination), growing with tenant size only up to that bound.

Total work per query for a tenant with ``D`` documents and fan-out ``f``::

    work = f * per_subquery_overhead + search_per_doc * min(D, limit * fetch_factor)

and single-client QPS = 1 / work. This reproduces the paper's observations:

* small tenants — work is overhead-dominated, so double hashing's ``f = 8``
  costs ~60%+ throughput versus the single-subquery policies;
* large tenants — work is scan-dominated (the LIMIT bound), so dynamic
  secondary hashing's wide fan-out costs only a modest constant, and its
  throughput "does not drop significantly" versus hashing.

The constants were fitted once against the measured small-scale runs of
``benchmarks/test_fig16_query_throughput.py``; the shape conclusions are
insensitive to them across an order of magnitude, which the tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.routing import RoutingPolicy
from repro.workload.zipf import zipf_weights


@dataclass(frozen=True)
class QueryCostModel:
    """Constants of the analytic work model (seconds)."""

    per_subquery_overhead: float = 200e-6  # dispatch + fixed index search
    search_per_doc: float = 1.2e-6  # posting/scan/fetch work per doc
    limit: int = 100  # LIMIT of the template query
    fetch_factor: int = 200  # docs touched per returned row, max

    def work(self, docs: float, fanout: int) -> float:
        """Total engine work for one query (seconds of engine time)."""
        if fanout < 1:
            raise ConfigurationError("fanout must be >= 1")
        scanned = min(docs, self.limit * self.fetch_factor)
        return self.per_subquery_overhead * fanout + self.search_per_doc * scanned

    def qps(self, docs: float, fanout: int) -> float:
        """Single-client queries/second (work model: QPS = 1 / work)."""
        return 1.0 / self.work(docs, fanout)

@dataclass(frozen=True)
class QueryScaleResult:
    """Per-rank query throughput for one policy at full scale."""

    policy: str
    ranks: np.ndarray
    qps: np.ndarray
    fanout: np.ndarray


def model_query_throughput(
    policy: RoutingPolicy,
    *,
    num_tenants: int = 100_000,
    total_docs: float = 40_000_000,
    theta: float = 1.0,
    ranks: list | None = None,
    cost: QueryCostModel | None = None,
) -> QueryScaleResult:
    """Model Figure 16 at the paper's scale for one routing policy.

    Tenant ``rank`` holds ``total_docs x zipf_weight(rank)`` documents; its
    fan-out comes from the *actual* policy object (for dynamic secondary
    hashing, commit rules first — e.g. via
    :func:`commit_paper_scale_rules`).
    """
    cost = cost or QueryCostModel()
    ranks = list(ranks) if ranks is not None else [1, 10, 100, 500, 1000, 2000]
    weights = zipf_weights(num_tenants, theta)
    qps = []
    fanouts = []
    for rank in ranks:
        docs = float(weights[rank - 1]) * total_docs
        fanout = len(policy.query_shards(rank))
        qps.append(cost.qps(docs, fanout))
        fanouts.append(fanout)
    return QueryScaleResult(
        policy=policy.name,
        ranks=np.array(ranks),
        qps=np.array(qps),
        fanout=np.array(fanouts),
    )


def commit_paper_scale_rules(
    policy,
    *,
    num_tenants: int = 100_000,
    theta: float = 1.0,
    num_shards: int = 512,
    target_share_per_shard: float = 0.004,
    effective_time: float = 0.0,
) -> int:
    """Populate a dynamic policy's rule list the way Algorithm 1 would at
    steady state for a Zipf(θ) tenant population. Returns rules committed."""
    from repro.balancer import compute_offset_size

    weights = zipf_weights(num_tenants, theta)
    committed = 0
    for rank, weight in enumerate(weights, start=1):
        offset = compute_offset_size(float(weight), num_shards, target_share_per_shard)
        if offset > 1:
            policy.rules.update(effective_time, offset, rank)
            committed += 1
        else:
            break  # weights are monotone decreasing: all further offsets are 1
    return committed
