"""``python -m repro.faults`` — run a seeded chaos scenario.

Generates (or hand-assembles, with ``--scenario failover``) a fault plan,
drives it through a :class:`~repro.faults.runner.ChaosRunner`, prints the
plan, the fault log and the invariant report, and exits non-zero when any
post-recovery invariant is violated — the same contract the CI chaos-smoke
step relies on. ``--check-determinism`` runs the scenario twice and
verifies the two report fingerprints are identical.
"""

from __future__ import annotations

import argparse
import sys


def build_failover_plan(seed: int, steps: int, num_shards: int):
    """The canonical scenario: crash a primary mid-workload (forcing a
    replica promotion), crash + recover a node around it, and blackhole
    client dispatch long enough to exercise retry + dead-lettering."""
    from repro.faults import FaultPlan

    shard = seed % num_shards
    plan = FaultPlan(seed=seed)
    plan.add(steps // 5, "blackhole_dispatch", (shard + 1) % num_shards)
    plan.add(steps // 3, "crash_node", 1)
    plan.add(steps // 2, "crash_primary", shard)
    plan.add(steps // 2 + steps // 10, "corrupt_translog", (shard + 2) % num_shards)
    plan.add(2 * steps // 3, "crash_node", 1, recover=True)
    plan.add(3 * steps // 4, "blackhole_dispatch", (shard + 1) % num_shards,
             recover=True)
    return plan


#: The tenant that floods in the noisy-neighbor scenario.
FLOOD_TENANT = "tenant-flood"


def build_noisy_neighbor_plan(seed: int, steps: int, num_shards: int):
    """The noisy-neighbor scenario's (light) fault schedule: one dispatch
    blackhole + recovery while the flood runs, so governance is exercised
    together with — not instead of — an ordinary fault. The flood itself
    comes from ``ChaosConfig.flood_tenant`` / ``flood_factor``."""
    from repro.faults import FaultPlan

    shard = seed % num_shards
    plan = FaultPlan(seed=seed)
    plan.add(steps // 4, "blackhole_dispatch", shard)
    plan.add(steps // 2, "blackhole_dispatch", shard, recover=True)
    return plan


def noisy_neighbor_config(args) -> "object":
    """The governed ChaosConfig the noisy-neighbor scenario runs with."""
    from repro.faults import ChaosConfig
    from repro.tenancy import TenancyConfig

    return ChaosConfig(
        steps=args.steps,
        num_nodes=args.nodes,
        num_shards=args.shards,
        replicas_per_shard=args.replicas,
        flood_tenant=FLOOD_TENANT,
        flood_factor=args.flood_factor,
        tenancy=None if args.no_governance else TenancyConfig.strict(),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Run a deterministic chaos scenario and check recovery invariants.",
    )
    parser.add_argument("--seed", type=int, default=0, help="plan + workload seed")
    parser.add_argument("--steps", type=int, default=400,
                        help="workload steps (default: 400)")
    parser.add_argument("--nodes", type=int, default=3, help="cluster nodes")
    parser.add_argument("--shards", type=int, default=8, help="shard count")
    parser.add_argument("--replicas", type=int, default=2, help="replicas per shard")
    parser.add_argument(
        "--scenario", choices=("failover", "random", "noisy-neighbor"),
        default="failover",
        help="'failover' = the canonical crash-primary scenario; "
             "'random' = a seed-generated schedule; "
             "'noisy-neighbor' = one tenant floods a governed cluster and "
             "must be throttled without any victim write being shed",
    )
    parser.add_argument(
        "--intensity", type=float, default=1.0,
        help="fraction of fault classes a random plan fires (default: 1.0)",
    )
    parser.add_argument(
        "--flood-factor", type=int, default=20,
        help="noisy-neighbor: extra flood-tenant writes per step (default: 20)",
    )
    parser.add_argument(
        "--no-governance", action="store_true",
        help="noisy-neighbor: run the same flood ungoverned (comparison runs; "
             "the isolation invariant is skipped)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="drive the workload from a recorded trace file (v1 or v2, see "
             "python -m repro.workload.trace) instead of the built-in Zipf "
             "generator; the fault plan is scaled to the trace's length",
    )
    parser.add_argument(
        "--check-determinism", action="store_true",
        help="run the scenario twice and require identical report fingerprints",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the plan and fault log, print only the report")
    return parser


def _run(args):
    from repro.faults import ChaosConfig, ChaosRunner, FaultPlan

    steps = args.steps
    if args.trace is not None:
        # Scale the plan to the trace so every scheduled fault actually
        # fires inside the recorded workload.
        from repro.workload.trace import read_trace_events

        _, events = read_trace_events(args.trace)
        steps = max(sum(1 for _ in events), 10)
    if args.scenario == "noisy-neighbor":
        plan = build_noisy_neighbor_plan(args.seed, steps, args.shards)
        config = noisy_neighbor_config(args)
        if args.trace is not None:
            from dataclasses import replace

            config = replace(config, trace_path=args.trace)
    else:
        if args.scenario == "random":
            plan = FaultPlan.random(
                args.seed, steps, args.nodes, args.shards,
                intensity=args.intensity,
            )
        else:
            plan = build_failover_plan(args.seed, steps, args.shards)
        config = ChaosConfig(
            steps=steps,
            num_nodes=args.nodes,
            num_shards=args.shards,
            replicas_per_shard=args.replicas,
            trace_path=args.trace,
        )
    runner = ChaosRunner(plan, config)
    report = runner.run()
    return plan, runner, report


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.steps < 10:
        parser.error("--steps must be >= 10")
    if args.replicas < 1:
        parser.error("--replicas must be >= 1 (chaos needs something to fail over to)")

    from repro.obsv import cat_faults
    from repro.tenancy import cat_tenant_governance

    plan, runner, report = _run(args)
    if not args.quiet:
        print(plan.describe())
        print()
        print(cat_faults(runner.db).render())
        print()
        if runner.db.governor is not None:
            print(cat_tenant_governance(runner.db, k=8).render())
            print()
    print(report.render())

    if args.check_determinism:
        _, _, second = _run(args)
        if second.fingerprint() != report.fingerprint():
            print("!! determinism check FAILED: fingerprints differ")
            print(f"   first:  {report.fingerprint()}")
            print(f"   second: {second.fingerprint()}")
            return 1
        print(f"determinism check ok: {report.fingerprint()}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
