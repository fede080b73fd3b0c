"""Ablation: write-client workload batching and hotspot isolation (§3.1).

Quantifies the two client-side techniques:

* **workload batching** — under a workload where rows are modified
  repeatedly in a short window (order status: created → paid → shipped),
  coalescing materializes only the final state, cutting dispatched writes;
* **hotspot isolation** — with an isolated hotspot queue, ordinary tenants'
  writes dispatch ahead of a flood of hotspot writes.
"""

from __future__ import annotations

import random

from repro.client import WriteClient, WriteClientConfig
from repro.experiments.base import ExperimentResult
from repro.routing import HashRouting

NUM_ROWS = 2_000
UPDATES_PER_ROW = 4


class _CountingSink:
    def __init__(self):
        self.dispatched = 0
        self.order = []

    def __call__(self, shard_id, sources):
        self.dispatched += len(sources)
        self.order.extend(s["tenant_id"] for s in sources)


def _order_lifecycle_workload(rng: random.Random):
    """Each row receives several status updates within the batching window."""
    writes = []
    for row in range(NUM_ROWS):
        for status in range(UPDATES_PER_ROW):
            writes.append(
                {
                    "transaction_id": row,
                    "tenant_id": f"t{row % 50}",
                    "created_time": row * 0.001,
                    "status": status,
                }
            )
    rng.shuffle(writes)
    return writes


def test_ablation_workload_batching(benchmark):
    writes = _order_lifecycle_workload(random.Random(3))

    def run(coalesce_window):
        sink = _CountingSink()
        client = WriteClient(
            HashRouting(64), sink, WriteClientConfig(coalesce_window=coalesce_window)
        )
        for source in writes:
            client.submit(source)
        client.flush()
        return sink.dispatched

    with_batching = benchmark.pedantic(lambda: run(10**9), rounds=1, iterations=1)
    without_batching = run(1)  # window of 1: every write flushes immediately

    print(ExperimentResult(
        "batching",
        "Ablation: workload batching of repeated row modifications",
        ["variant", "submitted", "dispatched", "writes saved"],
        [
            (
                "batching on",
                len(writes),
                with_batching,
                f"{(1 - with_batching / len(writes)) * 100:.0f}%",
            ),
            ("batching off", len(writes), without_batching, "0%"),
        ],
    ).render())

    # With an unbounded window every row collapses to one dispatched write.
    assert with_batching == NUM_ROWS
    assert without_batching == len(writes)
    assert with_batching < without_batching / (UPDATES_PER_ROW - 1)


def test_ablation_hotspot_isolation(benchmark):
    """Ordinary tenants' writes must dispatch before the hotspot flood."""

    def run():
        sink = _CountingSink()
        client = WriteClient(
            HashRouting(64), sink, WriteClientConfig(coalesce_window=10**9)
        )
        client.mark_hotspot("whale")
        for i in range(3000):
            client.submit(
                {
                    "transaction_id": 10_000 + i,
                    "tenant_id": "whale",
                    "created_time": 0.0,
                }
            )
        for i in range(100):
            client.submit(
                {"transaction_id": i, "tenant_id": f"small-{i}", "created_time": 0.0}
            )
        client.flush()
        return sink.order

    order = benchmark.pedantic(run, rounds=1, iterations=1)
    first_whale = order.index("whale")
    last_small = max(i for i, t in enumerate(order) if t != "whale")
    print(
        f"\nhotspot isolation: all {100} ordinary-tenant writes dispatched "
        f"before the first of {3000} hotspot writes "
        f"(first hotspot at position {first_whale})"
    )
    assert last_small < first_whale
