"""``python -m repro.obsv`` — dashboard over a small skewed demo workload.

Builds a tiny cluster, drives a hot-tenant write stream through it (one
tenant takes the majority of the traffic, so the balancer commits rules
and the observer raises alerts), runs a few queries, and prints either the
text dashboard (default), the JSON cluster snapshot (``--json``), or the
retained structured events (``--events``, filterable with ``--kind`` /
``--tenant``). ``--bundle PATH`` writes the full flight-recorder
diagnostics bundle instead — the payload CI validates and archives as a
workflow artifact; ``--governed`` and ``--chaos`` spice the demo workload
with admission control and a mid-run node crash so the bundle's event log
has throttle/shed and fault entries to show, and ``--slo`` turns on SLO
tracking and heavy-hitter profiling, which fill the dashboard's ``slo`` and
``heavy hitters`` sections.
"""

from __future__ import annotations

import argparse
import json
import random
import sys


def build_demo(
    seed: int = 0,
    writes: int = 600,
    governed: bool = False,
    chaos: bool = False,
    slo: bool = False,
):
    """A small instance after a skewed burst: 4 nodes / 8 shards, one
    whale tenant at ~60% of the stream, balance rounds every ~5s of
    logical time. Returns the populated :class:`~repro.esdb.ESDB`.

    With *governed*, per-tenant admission control is enabled at rates the
    whale tenant overruns, so some writes throttle or shed (caught here —
    the demo keeps going) and the event log fills. With *chaos*, a node is
    crashed a third of the way in and recovered at two thirds. With *slo*,
    objective tracking and heavy-hitter profiling are on — combined with
    *governed*, the whale's throttles burn the write-availability error
    budget and fire ``slo_burn`` alerts."""
    from repro.balancer import BalancerConfig
    from repro.cluster import ClusterTopology
    from repro.errors import TenantThrottledError
    from repro.esdb import ESDB, EsdbConfig
    from repro.obsv.config import ObsvConfig
    from repro.tenancy import TenancyConfig

    config = EsdbConfig(
        topology=ClusterTopology(num_nodes=4, num_shards=8, replicas_per_shard=1),
        balancer=BalancerConfig(hotspot_share=0.2, target_share_per_shard=0.05),
        consensus_interval=1.0,
        # Zero info thresholds: every operation lands in the slow logs, so
        # the demo dashboard has a tail to show.
        obsv=ObsvConfig(index_info_seconds=0.0, search_info_seconds=0.0),
        tenancy=(
            TenancyConfig(
                enabled=True, write_rate=10.0, write_burst=20.0, queue_capacity=8
            )
            if governed
            else TenancyConfig()
        ),
        slo=slo,
    )
    db = ESDB(config)
    rng = random.Random(seed)
    tenants = [f"t{i}" for i in range(2, 10)]
    clock = 0.0
    crash_at, recover_at = writes // 3, (2 * writes) // 3
    for txn in range(writes):
        clock += 0.05
        if chaos and txn == crash_at:
            db.inject_fault("crash_node", 1)
        if chaos and txn == recover_at:
            db.recover("crash_node", 1)
        tenant = "whale" if rng.random() < 0.6 else rng.choice(tenants)
        try:
            db.write(
                {
                    "transaction_id": txn,
                    "tenant_id": tenant,
                    "created_time": clock,
                    "status": txn % 3,
                    "group": txn % 5,
                    "amount": rng.randint(1, 500),
                    "quantity": 1 + txn % 4,
                    "auction_title": "demo item",
                    "attributes": "attr_0001:v1;attr_0002:v2",
                }
            )
        except TenantThrottledError:
            # Governed demo: the whale overruns its bucket by design; the
            # rejection is the point (it lands in the event log).
            continue
        if txn and txn % 100 == 0:
            db.rebalance()
    if chaos:
        db.recover()
    db.rebalance()
    db.refresh()
    db.execute_sql("SELECT * FROM logs WHERE tenant_id = 'whale' LIMIT 5")
    db.execute_sql(
        "SELECT status, COUNT(*) FROM logs WHERE tenant_id = 'whale' GROUP BY status"
    )
    return db


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obsv",
        description="Render the observability dashboard over a demo skewed workload.",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the JSON cluster snapshot instead of the text dashboard",
    )
    parser.add_argument(
        "--events",
        action="store_true",
        help="print the structured event log instead of the dashboard",
    )
    parser.add_argument(
        "--kind", default=None, help="with --events: only this event kind"
    )
    parser.add_argument(
        "--tenant", default=None, help="with --events: only this tenant"
    )
    parser.add_argument(
        "--bundle",
        metavar="PATH",
        default=None,
        help="write the validated diagnostics bundle JSON to PATH and exit",
    )
    parser.add_argument(
        "--slo",
        action="store_true",
        help=(
            "enable SLO tracking + heavy-hitter profiling in the demo (the "
            "dashboard's slo and heavy-hitter sections)"
        ),
    )
    parser.add_argument(
        "--governed",
        action="store_true",
        help="enable per-tenant admission control (throttle/shed events)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="crash and recover a node mid-workload (fault events)",
    )
    parser.add_argument(
        "--writes", type=int, default=600, help="demo writes to ingest (default: 600)"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    return parser


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.writes < 1:
        print("--writes must be >= 1", file=sys.stderr)
        return 2
    from repro.obsv.bundle import validate_bundle
    from repro.obsv.cat import cat_events
    from repro.obsv.dashboard import render_dashboard
    from repro.obsv.snapshot import snapshot

    db = build_demo(
        seed=args.seed,
        writes=args.writes,
        governed=args.governed,
        chaos=args.chaos,
        slo=args.slo,
    )
    snap = snapshot(db)
    if args.bundle is not None:
        problems = validate_bundle(snap)
        if problems:
            for problem in problems:
                print(f"invalid bundle: {problem}", file=sys.stderr)
            return 1
        with open(args.bundle, "w", encoding="utf-8") as handle:
            json.dump(snap, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"wrote diagnostics bundle to {args.bundle} "
            f"({len(snap['events']['entries'])} event(s), "
            f"{len(snap['traces'])} trace(s))"
        )
        return 0
    if args.events:
        print(cat_events(snap, kind=args.kind, tenant=args.tenant).render())
        return 0
    if args.json:
        print(json.dumps(snap["cluster"], indent=2, sort_keys=True))
    else:
        print(render_dashboard(snap))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
