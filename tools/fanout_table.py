"""What a cold statement costs per shard it fans out to: dynamic secondary
hashing against a one-shard ``HashRouting`` twin holding the same documents.

    python tools/fanout_table.py [--seed 7] [--smoke]

Builds the benchmark's ``query_cold`` inputs at *seed* (``bench.workloads``),
loads their documents, balance rounds and refreshes into an instance with
the default dynamic routing, and the same documents into a twin routed by
plain hashing, both with caches off. Both corpora are frozen out of the
cyclic collector (``gc.freeze()``). Every statement runs once on each
instance to warm up, then two timed passes run each statement on the
dynamic instance and right after on the twin.

Prints, per fan-out k of the dynamic instance, the statements per pass and
the median µs per statement on each instance, and their ratio; then the
extra cost of one subquery at the largest k, ``(dynamic - twin) / (k - 1)``.
``--smoke`` loads the same documents but times 1/20 of the open and closed
loops' statements and none of the traced slice: it checks that the probe
runs and that both instances answer alike, not the clock.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.workloads import NUM_NODES, NUM_SHARDS, WORKLOADS  # noqa: E402  (puts src/ on the path)
from repro import ESDB, EsdbConfig  # noqa: E402
from repro.cluster import ClusterTopology  # noqa: E402
from repro.routing import HashRouting  # noqa: E402

PASSES = 2


def load(seed: int, smoke: bool):
    """The dynamic instance, its twin and the statements, loaded."""
    workload = WORKLOADS["query_cold"]
    sizes = workload.sizes.scaled(0.05, traced=False) if smoke else workload.sizes
    inputs = workload.build(seed, sizes)
    config = EsdbConfig(topology=ClusterTopology(NUM_NODES, NUM_SHARDS), cache=False)
    dynamic = ESDB(config)
    twin = ESDB(config, policy=HashRouting(NUM_SHARDS))
    statements = []
    for op in inputs.setup + [op for _, op in inputs.open_loop] + inputs.closed_loop + inputs.traced:
        if op.kind == "query":
            statements.append(op.payload)
        elif op.kind == "bulk":
            dynamic.bulk_write(op.payload)
            twin.bulk_write(op.payload)
        elif op.kind == "rebalance":
            dynamic.rebalance()
        else:
            dynamic.refresh()
            twin.refresh()
    return dynamic, twin, statements


def measure(dynamic, twin, statements: list[str]) -> dict[int, tuple[list, list]]:
    """Per dynamic fan-out, the µs samples of its statements on each instance."""
    fanout = []
    for sql in statements:  # the warm-up pass
        ours, theirs = dynamic.execute_sql(sql), twin.execute_sql(sql)
        if ours.total_hits != theirs.total_hits:
            raise SystemExit(f"the instances disagree on {sql!r}")
        fanout.append(ours.subqueries)
    samples: dict[int, tuple[list, list]] = defaultdict(lambda: ([], []))
    clock = time.perf_counter
    for _ in range(PASSES):
        for sql, k in zip(statements, fanout):
            start = clock()
            dynamic.execute_sql(sql)
            middle = clock()
            twin.execute_sql(sql)
            end = clock()
            samples[k][0].append((middle - start) * 1e6)
            samples[k][1].append((end - middle) * 1e6)
    return samples


def table(samples: dict[int, tuple[list, list]]) -> list[str]:
    lines = [
        "| subqueries (dynamic) | statements per pass | dynamic µs | hash twin µs | ratio |",
        "|---|---|---|---|---|",
    ]
    for k in sorted(samples):
        ours, theirs = (statistics.median(s) for s in samples[k])
        lines.append(
            f"| {k} | {len(samples[k][0]) // PASSES} | {ours:.0f} | {theirs:.0f} "
            f"| {ours / theirs:.2f} |"
        )
    k = max(samples)
    if k > 1:
        ours, theirs = (statistics.median(s) for s in samples[k])
        lines.append(f"\nextra cost per subquery at k = {k}: {(ours - theirs) / (k - 1):.1f} µs")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true", help="1/20 of the timed statements")
    args = parser.parse_args(argv)
    dynamic, twin, statements = load(args.seed, args.smoke)
    gc.collect()
    gc.freeze()
    print("\n".join(table(measure(dynamic, twin, statements))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
