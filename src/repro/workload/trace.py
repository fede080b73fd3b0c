"""Workload traces: persist generated workloads and replay them.

The paper's production experiments run against recorded transaction-log
traces. This module gives the reproduction the same workflow: generate a
deterministic trace once, save it as JSON Lines, and replay it — into an
:class:`~repro.esdb.ESDB` instance, into a benchmark, or into another tool —
so that two systems under comparison consume byte-identical workloads.

Two on-disk versions:

* **v1** — header + one document per line, evenly spaced ``created_time``
  (the stationary ``stream(rate, duration)`` generator). Still written
  when no arrival process is supplied, byte-identical to older releases,
  and always readable.
* **v2** — written when an :class:`~repro.workload.arrivals.ArrivalProcess`
  is supplied. The header carries the process (and optional tenant-churn)
  metadata needed to rebuild the stream; each body line is
  ``{"t": <arrival timestamp>, "doc": {...}}``. One recorded v2 trace
  drives the simulator (:func:`scenario_from_trace`), a live instance
  (:func:`replay_trace`) and the chaos runner from the same file.

Also exposes a tiny CLI::

    python -m repro.workload.trace --out trace.jsonl --rate 500 --duration 10
    python -m repro.workload.trace --out trace.jsonl --arrival bursty \\
        --rate 200 --duration 20 --churn
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.workload.arrivals import (
    ArrivalProcess,
    ArrivalStats,
    BurstyProcess,
    DiurnalRate,
    PoissonProcess,
    SpikeRate,
    TenantChurn,
    TraceScenario,
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
    records plus the JSON payloads that rebuild the arrival process and
    tenant-churn schedule (see :func:`repro.workload.arrivals.arrival_from_json`
    and :meth:`repro.workload.arrivals.TenantChurn.from_json`).
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
    live_churn = TenantChurn.from_json(churn.describe()) if churn is not None else None
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


def _open_trace(path: Path):
    """Open *path* and parse its header; the handle is closed on every
    error path (empty file, non-JSON header, rejected header)."""
    handle = path.open("r", encoding="utf-8")
    try:
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
    return info, handle


def _body_records(path: Path, handle) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_number, parsed_record)`` for the body, closing the
    handle when exhausted (or when the caller abandons the iterator)."""
    with handle:
        for line_number, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                yield line_number, json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"trace {path} line {line_number} is not JSON"
                ) from exc


def _unwrap(path: Path, info: TraceInfo, line_number: int, record) -> tuple[float, dict]:
    """Normalize one body record to ``(arrival_time, document)``."""
    if info.version >= 2:
        if (
            not isinstance(record, dict)
            or "t" not in record
            or not isinstance(record.get("doc"), dict)
        ):
            raise ConfigurationError(
                f"trace {path} line {line_number} is not a v2 arrival record"
            )
        return float(record["t"]), record["doc"]
    if not isinstance(record, dict):
        raise ConfigurationError(
            f"trace {path} line {line_number} is not a document"
        )
    return float(record.get("created_time", 0.0)), record


def read_trace(path: str | Path) -> tuple[TraceInfo, Iterator[dict]]:
    """Open a trace; returns ``(header, documents iterator)``.

    The iterator is lazy so arbitrarily large traces replay in constant
    memory, and yields plain documents for *both* versions (v2's arrival
    envelope is stripped). Malformed lines raise
    :class:`ConfigurationError` with the line number.
    """
    path = Path(path)
    info, handle = _open_trace(path)

    def documents() -> Iterator[dict]:
        for line_number, record in _body_records(path, handle):
            yield _unwrap(path, info, line_number, record)[1]

    return info, documents()


def read_trace_events(path: str | Path) -> tuple[TraceInfo, Iterator[tuple[float, dict]]]:
    """Open a trace; returns ``(header, (arrival_time, document) iterator)``.

    v1 traces report each document's ``created_time`` as its arrival time,
    so time-aware consumers (simulator, chaos runner) handle both versions
    through one code path.
    """
    path = Path(path)
    info, handle = _open_trace(path)

    def events() -> Iterator[tuple[float, dict]]:
        for line_number, record in _body_records(path, handle):
            yield _unwrap(path, info, line_number, record)

    return info, events()


def trace_churn(info: TraceInfo) -> TenantChurn | None:
    """Rebuild the recorded churn schedule from a v2 header (None when the
    trace carries no churn)."""
    if info.churn is None:
        return None
    return TenantChurn.from_json(info.churn)


def scenario_from_trace(path: str | Path, tick_seconds: float = 1.0) -> TraceScenario:
    """Build a :class:`~repro.workload.arrivals.TraceScenario` from a
    recorded trace, so the simulator replays the trace's exact offered-rate
    curve (and churn schedule) tick by tick."""
    info, events = read_trace_events(path)
    times = [t for t, _ in events]
    return TraceScenario(
        times,
        duration=info.duration,
        churn=trace_churn(info),
        tick_seconds=tick_seconds,
    )


def load_into(
    db,
    documents: Iterable[dict],
    *,
    refresh: bool = True,
    batch_size: int = 256,
    stop_on_error: bool = True,
    errors: list | None = None,
) -> int:
    """Replay trace *documents* into an :class:`~repro.esdb.ESDB` instance
    through the batched ``bulk_write`` path.

    Returns the number of documents actually applied (not merely
    submitted). Failures are surfaced per document: each is appended to
    *errors* (when given) as ``(absolute_position, exception)``, and with
    ``stop_on_error`` (the default) the first failure re-raises after its
    batch completes. Falls back to one ``db.write`` per document for
    database objects without a bulk path.
    """
    if batch_size < 1:
        raise ConfigurationError("batch_size must be >= 1")
    bulk = getattr(db, "bulk_write", None)
    applied = 0
    if bulk is None:
        position = 0
        first_error: BaseException | None = None
        for doc in documents:
            try:
                db.write(doc)
                applied += 1
            except Exception as exc:
                if errors is not None:
                    errors.append((position, exc))
                if stop_on_error:
                    first_error = exc
                    break
            position += 1
        if first_error is not None:
            raise first_error
    else:
        base = 0
        batch: list[dict] = []

        def flush() -> BaseException | None:
            nonlocal applied, base
            result = bulk(batch, stop_on_error=stop_on_error)
            applied += result.applied
            first = None
            for item in result.errors:
                if errors is not None:
                    errors.append((base + item.position, item.error))
                if first is None:
                    first = item.error
            base += len(batch)
            batch.clear()
            return first

        first_error = None
        for doc in documents:
            batch.append(doc)
            if len(batch) >= batch_size:
                first_error = flush()
                if first_error is not None and stop_on_error:
                    break
        if batch and not (first_error is not None and stop_on_error):
            first_error = first_error or flush()
        if first_error is not None and stop_on_error:
            raise first_error
    if refresh:
        db.refresh()
    return applied


def replay_trace(
    db,
    path: str | Path,
    *,
    batch_size: int = 256,
    refresh: bool = True,
) -> ArrivalStats:
    """Replay a recorded trace into *db* with full workload realism:
    the logical clock advances along the recorded arrival timestamps,
    documents land through the batched bulk path, and the realized stream's
    statistics are published to telemetry.

    Emits ``workload.arrival_rate`` / ``workload.live_tenants`` time-series
    points (when the instance records time series), sets
    ``workload_realized_rate`` / ``workload_burstiness`` /
    ``workload_live_tenants`` gauges, and leaves the stats object on
    ``db.arrivals`` for the dashboard. Returns the stats.
    """
    info, events = read_trace_events(path)
    churn = trace_churn(info)
    stats = ArrivalStats()
    timeseries = getattr(db, "timeseries", None)
    batch: list[dict] = []
    batch_start: float | None = None
    last_t = 0.0

    def flush(now: float) -> None:
        nonlocal batch_start
        if not batch:
            return
        db.advance_clock(now)
        load_into(db, batch, refresh=False, batch_size=batch_size)
        if timeseries is not None:
            span = max(now - (batch_start or 0.0), 1e-9)
            timeseries.record("workload.arrival_rate", now, len(batch) / span)
            if churn is not None:
                timeseries.record(
                    "workload.live_tenants", now, float(churn.live_count(now))
                )
        batch.clear()
        batch_start = None

    for t, doc in events:
        stats.record(t)
        if churn is not None:
            stats.set_live_tenants(churn.live_count(t))
        if batch_start is None:
            batch_start = t
        batch.append(doc)
        last_t = t
        if len(batch) >= batch_size:
            flush(t)
    flush(last_t)
    if refresh:
        db.refresh()

    metrics = getattr(getattr(db, "telemetry", None), "metrics", None)
    if metrics is not None:
        metrics.gauge("workload_realized_rate").set(stats.realized_rate)
        metrics.gauge("workload_burstiness").set(stats.burstiness)
        metrics.gauge("workload_live_tenants").set(float(stats.live_tenants))
    db.arrivals = stats
    return stats


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
    elif args.arrival == "bursty":
        process = BurstyProcess(
            on_rate=args.rate,
            duration=args.duration,
            off_rate=args.rate * 0.05,
            mean_on_seconds=args.mean_on,
            mean_off_seconds=args.mean_off,
            seed=args.seed,
        )
    elif args.arrival == "diurnal":
        process = PoissonProcess(
            DiurnalRate(args.rate, amplitude=0.6, period=args.duration),
            duration=args.duration,
            seed=args.seed,
        )
    elif args.arrival == "spike":
        process = PoissonProcess(
            SpikeRate(args.rate, spike_time=args.duration / 3.0),
            duration=args.duration,
            seed=args.seed,
        )
    else:  # pragma: no cover - argparse choices guard this
        raise ConfigurationError(f"unknown arrival kind {args.arrival!r}")
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
        choices=("none", "poisson", "bursty", "diurnal", "spike"),
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
