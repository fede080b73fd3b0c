"""Command-line entry point: regenerate the paper's figures.

Examples::

    python -m repro.experiments --list
    python -m repro.experiments fig11
    python -m repro.experiments fig10 fig12 --scale tiny
    python -m repro.experiments all --scale small
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments import available, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the evaluation figures of the ESDB paper (§6).",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        help="figure ids (e.g. fig10 fig16), or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=["tiny", "small", "paper"],
        default="small",
        help="experiment scale (default: small; 'paper' runs full durations)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available figure ids and exit"
    )
    parser.add_argument(
        "--profile",
        metavar="OUT_JSON",
        default=None,
        help=(
            "capture telemetry for the whole run (metrics from every ESDB "
            "instance plus recent traces) and write a JSON dump here"
        ),
    )
    parser.add_argument(
        "--dashboard",
        action="store_true",
        help=(
            "after the run, print the repro.obsv text dashboard for every "
            "ESDB instance the experiments created"
        ),
    )
    parser.add_argument(
        "--history",
        action="store_true",
        help=(
            "after the run, print the performance-history table "
            "(cat_timeseries sparklines) for every ESDB instance created"
        ),
    )
    return parser


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for figure in available():
            print(figure)
        return 0
    figures = args.figures
    if not figures:
        build_parser().print_help()
        return 2
    if figures == ["all"]:
        figures = available()
    unknown = [f for f in figures if f not in available()]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(available())}", file=sys.stderr)
        return 2
    profile = None
    if args.profile is not None:
        from repro.telemetry import Telemetry, set_default_telemetry

        profile = Telemetry()
        set_default_telemetry(profile)
    if args.dashboard or args.history:
        from repro.obsv import runtime as obsv_runtime

        obsv_runtime.start_capture()
    try:
        for figure in figures:
            start = time.perf_counter()
            result = run(figure, scale=args.scale)
            elapsed = time.perf_counter() - start
            print(result.render())
            print(f"({elapsed:.1f}s at scale={args.scale})\n")
    finally:
        if args.dashboard or args.history:
            from repro.obsv import runtime as obsv_runtime

            from repro.obsv import cat_timeseries, render_dashboard, snapshot

            for db in obsv_runtime.stop_capture():
                if args.dashboard:
                    print(render_dashboard(snapshot(db)))
                    print()
                if args.history:
                    print(cat_timeseries(db).render())
                    print()
        if profile is not None:
            from repro.telemetry import profile_dump, set_default_telemetry

            set_default_telemetry(None)
            traces = list(profile.tracer.finished)[-20:]
            payload = profile_dump(profile.metrics, traces)
            with open(args.profile, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            print(f"telemetry profile written to {args.profile}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
