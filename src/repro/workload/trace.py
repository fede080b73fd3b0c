"""Workload traces: persist a generated workload and replay it.

The paper's production experiments run against recorded transaction-log
traces. This module gives the reproduction the same workflow: generate a
deterministic trace once, save it as JSON Lines, and read it back — so that
two runs under comparison consume byte-identical workloads. The chaos runner
(``python -m repro.faults --trace``) is the reader.

Two on-disk versions:

* **v1** — header + one document per line, evenly spaced ``created_time``
  (the stationary ``stream(rate, duration)`` generator). Written when no
  arrival process is supplied, byte-identical to older releases, and always
  readable.
* **v2** — written when an :class:`~repro.workload.arrivals.ArrivalProcess`
  is supplied. The header carries the process's (and optional tenant
  churn's) ``describe()`` record and the body-record count; each body line
  is ``{"t": <arrival timestamp>, "doc": {...}}``.

Also exposes a tiny CLI::

    python -m repro.workload.trace --out trace.jsonl --rate 500 --duration 10
    python -m repro.workload.trace --out trace.jsonl --arrival bursty \\
        --rate 200 --duration 20 --churn
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.errors import ConfigurationError
from repro.workload.arrivals import (
    ArrivalProcess,
    BurstyProcess,
    PoissonProcess,
    TenantChurn,
)
from repro.workload.generator import TransactionLogGenerator, WorkloadConfig

#: Latest writer version. v1 traces remain readable (and are still what
#: :func:`write_trace` produces when no arrival process is given).
TRACE_VERSION = 2

_READABLE_VERSIONS = (1, 2)


@dataclass(frozen=True)
class TraceInfo:
    """Header record describing how a trace was produced.

    ``count``/``arrival``/``churn`` are v2-only: the exact number of body
    records plus the ``describe()`` records of the arrival process and the
    tenant-churn schedule that produced them.
    """

    version: int
    num_tenants: int
    theta: float
    seed: int
    rate: float
    duration: float
    count: int | None = None
    arrival: dict | None = None
    churn: dict | None = None

    def to_json(self) -> dict:
        payload = {
            "type": "header",
            "version": self.version,
            "num_tenants": self.num_tenants,
            "theta": self.theta,
            "seed": self.seed,
            "rate": self.rate,
            "duration": self.duration,
        }
        if self.version >= 2:
            payload["count"] = self.count
            payload["arrival"] = self.arrival
            if self.churn is not None:
                payload["churn"] = self.churn
        return payload

    @staticmethod
    def from_json(payload: dict) -> "TraceInfo":
        if payload.get("type") != "header":
            raise ConfigurationError("trace does not start with a header record")
        version = payload.get("version")
        if version not in _READABLE_VERSIONS:
            raise ConfigurationError(
                f"unsupported trace version {version!r}"
            )
        return TraceInfo(
            version=version,
            num_tenants=payload["num_tenants"],
            theta=payload["theta"],
            seed=payload["seed"],
            rate=payload["rate"],
            duration=payload["duration"],
            count=payload.get("count"),
            arrival=payload.get("arrival"),
            churn=payload.get("churn"),
        )


def write_trace(
    path: str | Path,
    *,
    rate: float | None = None,
    duration: float | None = None,
    workload: WorkloadConfig | None = None,
    arrival: ArrivalProcess | None = None,
    churn: TenantChurn | None = None,
) -> TraceInfo:
    """Generate a deterministic trace and write it as JSON Lines.

    Without *arrival* this is the classic v1 writer (requires *rate* and
    *duration*; evenly spaced timestamps, byte-identical to older
    releases). With *arrival* it writes a v2 trace: the process's realized
    timestamps become per-document arrival times, optional *churn* remaps
    the Zipf rank→tenant table as flash tenants spawn and die, and the
    header records both so the stream can be rebuilt from the file alone.

    Returns the header for convenience.
    """
    config = workload or WorkloadConfig()
    path = Path(path)
    if arrival is None:
        if churn is not None:
            raise ConfigurationError("tenant churn requires an arrival process")
        if rate is None or duration is None:
            raise ConfigurationError("v1 traces require rate and duration")
        info = TraceInfo(
            version=1,
            num_tenants=config.num_tenants,
            theta=config.theta,
            seed=config.seed,
            rate=rate,
            duration=duration,
        )
        generator = TransactionLogGenerator(config)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(info.to_json()) + "\n")
            for doc in generator.stream(rate=rate, duration=duration):
                handle.write(json.dumps(doc, ensure_ascii=False) + "\n")
        return info

    if churn is not None and churn.duration != arrival.duration:
        raise ConfigurationError(
            "churn and arrival process must cover the same duration"
        )
    times = list(arrival.times())
    info = TraceInfo(
        version=TRACE_VERSION,
        num_tenants=config.num_tenants,
        theta=config.theta,
        seed=config.seed,
        rate=len(times) / arrival.duration,
        duration=arrival.duration,
        count=len(times),
        arrival=arrival.describe(),
        churn=churn.describe() if churn is not None else None,
    )
    generator = TransactionLogGenerator(config)
    # Occupancy bookkeeping is stateful — replay the schedule on a fresh
    # instance so writing the same trace twice stays byte-identical even
    # when the caller reuses one churn object.
    live_churn = TenantChurn(**churn.describe()) if churn is not None else None
    churn_events = live_churn.events if live_churn is not None else []
    churn_index = 0
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(info.to_json()) + "\n")
        for t in times:
            while churn_index < len(churn_events) and churn_events[churn_index].time <= t:
                live_churn.apply_event(generator.tenants, churn_events[churn_index])
                churn_index += 1
            doc = generator.generate(created_time=t)
            handle.write(
                json.dumps({"t": t, "doc": doc}, ensure_ascii=False) + "\n"
            )
    return info


def read_trace_events(path: str | Path) -> tuple[TraceInfo, Iterator[tuple[float, dict]]]:
    """Open a trace; returns ``(header, (arrival_time, document) iterator)``.

    The iterator is lazy, so a large trace replays in constant memory, and
    closes the file when exhausted (or abandoned). v1 traces report each
    document's ``created_time`` as its arrival time, so a consumer handles
    both versions through one code path. Blank lines are skipped; a
    malformed line raises :class:`ConfigurationError` with its line number.
    """
    path = Path(path)
    handle = path.open("r", encoding="utf-8")
    try:  # the handle is closed on every header error
        first = handle.readline()
        if not first:
            raise ConfigurationError(f"trace {path} is empty")
        try:
            payload = json.loads(first)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"trace {path} header is not JSON") from exc
        info = TraceInfo.from_json(payload)
    except BaseException:
        handle.close()
        raise

    def events() -> Iterator[tuple[float, dict]]:
        with handle:
            for line_number, line in enumerate(handle, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ConfigurationError(
                        f"trace {path} line {line_number} is not JSON"
                    ) from exc
                if info.version == 1:
                    if not isinstance(record, dict):
                        raise ConfigurationError(
                            f"trace {path} line {line_number} is not a document"
                        )
                    yield float(record.get("created_time", 0.0)), record
                elif (
                    not isinstance(record, dict)
                    or "t" not in record
                    or not isinstance(record.get("doc"), dict)
                ):
                    raise ConfigurationError(
                        f"trace {path} line {line_number} is not a v2 arrival record"
                    )
                else:
                    yield float(record["t"]), record["doc"]

    return info, events()


def _build_arrival(args) -> tuple[ArrivalProcess | None, TenantChurn | None]:
    """Construct the CLI-requested arrival process + churn (None → v1)."""
    if args.arrival == "none":
        if args.churn:
            raise ConfigurationError("--churn requires --arrival")
        return None, None
    if args.arrival == "poisson":
        process: ArrivalProcess = PoissonProcess(
            args.rate, duration=args.duration, seed=args.seed
        )
    else:
        process = BurstyProcess(
            on_rate=args.rate,
            duration=args.duration,
            off_rate=args.rate * 0.05,
            mean_on_seconds=args.mean_on,
            mean_off_seconds=args.mean_off,
            seed=args.seed,
        )
    churn = None
    if args.churn:
        churn = TenantChurn(
            duration=args.duration,
            spawn_rate=args.churn_rate,
            mean_lifetime_seconds=args.churn_lifetime,
            seed=args.seed,
        )
    return process, churn


def _main(argv: list | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.workload.trace",
        description="Generate a deterministic transaction-log trace (JSONL).",
    )
    parser.add_argument("--out", required=True, help="output .jsonl path")
    parser.add_argument("--rate", type=float, default=1000.0, help="docs/second")
    parser.add_argument("--duration", type=float, default=10.0, help="seconds")
    parser.add_argument("--tenants", type=int, default=100_000)
    parser.add_argument("--theta", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--arrival",
        choices=("none", "poisson", "bursty"),
        default="none",
        help="arrival process (v2 trace); 'none' writes a classic v1 trace",
    )
    parser.add_argument(
        "--mean-on", type=float, default=2.0,
        help="bursty: mean on-state dwell (seconds)",
    )
    parser.add_argument(
        "--mean-off", type=float, default=2.0,
        help="bursty: mean off-state dwell (seconds)",
    )
    parser.add_argument(
        "--churn", action="store_true",
        help="add flash-tenant churn (requires --arrival)",
    )
    parser.add_argument("--churn-rate", type=float, default=0.2,
                        help="flash-tenant spawns per second")
    parser.add_argument("--churn-lifetime", type=float, default=5.0,
                        help="mean flash-tenant lifetime (seconds)")
    args = parser.parse_args(argv)
    try:
        arrival, churn = _build_arrival(args)
        info = write_trace(
            args.out,
            rate=args.rate,
            duration=args.duration,
            workload=WorkloadConfig(
                num_tenants=args.tenants, theta=args.theta, seed=args.seed
            ),
            arrival=arrival,
            churn=churn,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}")
        return 2
    count = info.count if info.count is not None else int(info.rate * info.duration)
    extra = f", arrival={args.arrival}" if arrival is not None else ""
    extra += ", churn" if churn is not None else ""
    print(
        f"wrote {count} docs to {args.out} "
        f"(tenants={info.num_tenants}, theta={info.theta}, seed={info.seed}{extra})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
