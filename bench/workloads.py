"""The four workloads. Every input — documents, SQL text, due times, and the
places where refresh, rebalance and the hotspot shift happen — is generated
here from the seed before anything is timed; the program receives only the
generated inputs, and no tick depends on the wall clock.

Logical time is the documents' ``created_time``. In a timed phase it equals
the arrival time at the phase's reference rate (the system runs in real
time); set-up phases lay down a sparser history so that the balancer has
already committed rules for the hot tenants when timing starts.
"""

from __future__ import annotations

import heapq
import random
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Iterator

from repro.workload.arrivals import PoissonProcess
from repro.workload.generator import (
    SUB_ATTRIBUTE_COUNT,
    TransactionLogGenerator,
    WorkloadConfig,
)
from repro.workload.zipf import ZipfSampler

from bench.loadgen import Op

NUM_TENANTS = 5000
NUM_NODES = 8
NUM_SHARDS = 64
THETA = 1.0
HOTSPOT_SHIFT = 37  # ranks the tenant mapping rotates by at the hotspot shift
#: The shape of the traffic does not depend on ``--seed``: the tenant of every
#: document and statement, each statement's class and which columns it
#: filters, the hot set and its popularity, and the arrival times are drawn
#: from this constant. ``--seed`` changes the values: every document's
#: fields, every time range and filter constant. With the shape seeded too,
#: the balancer (which grants offsets in powers of two from sampled shares)
#: flips some hot tenants' offsets between seeds, and a few hundred statements
#: over a heavy-tailed cost mix put the median elsewhere: query_cold
#: throughput moved from 550 to 1,010 qps across ten seeds — noise that would
#: hide a change to the program.
SKEW_SEED = 2022
TABLE = "transaction_logs"
BULK_CHUNK = 256  # documents per preload bulk call
MIXED_BULK = 16  # documents per bulk call in mixed_realtime
#: ``--seconds`` this many gives the sizes below; other values scale the
#: timed phases in proportion.
REFERENCE_SECONDS = 9


@dataclass(frozen=True)
class QuerySpec:
    """A tenant-scoped statement in structured form. ``sql()`` renders what
    the program receives; the oracle evaluates the fields directly."""

    kind: str  # filter | topk | subattr | agg | point
    tenant: int
    time_range: tuple[float, float] | None = None
    filters: tuple[tuple[str, str, object], ...] = ()  # (column, op, value)
    attr: tuple[str, str] | None = None
    limit: int | None = None

    def sql(self) -> str:
        where = [f"tenant_id = {self.tenant}"]
        if self.time_range is not None:
            low, high = self.time_range
            where.append(f"created_time BETWEEN {low!r} AND {high!r}")
        where.extend(f"{column} {op} {value!r}" for column, op, value in self.filters)
        if self.attr is not None:
            where.append(f"ATTR({self.attr[0]}) = '{self.attr[1]}'")
        select = "status, COUNT(*), SUM(amount)" if self.kind == "agg" else "*"
        sql = f"SELECT {select} FROM {TABLE} WHERE " + " AND ".join(where)
        if self.kind == "agg":
            sql += " GROUP BY status"
        if self.kind == "topk":
            sql += " ORDER BY created_time DESC"
        if self.limit is not None:
            sql += f" LIMIT {self.limit}"
        return sql


def point_query(doc: dict) -> QuerySpec:
    """The tenant-scoped statement that must return exactly *doc*."""
    created = doc["created_time"]
    return QuerySpec("point", doc["tenant_id"], (created, created))


class StatementGenerator:
    """Draws tenant-scoped statements, distinct but for the odd repeated
    sub-attribute filter (its value has ten choices): 60 % Fig 17 template (time range plus
    1-4 of status/group/quantity/amount, ``LIMIT 100``), 20 % latest-20 by
    ``created_time``, 10 % Fig 18 sub-attribute filter with the name drawn
    Zipf over 1,500, 10 % ``GROUP BY status`` with ``COUNT``/``SUM``."""

    def __init__(self, seed: int) -> None:
        self.tenants = ZipfSampler(NUM_TENANTS, THETA, seed=SKEW_SEED + 1)
        self._shape = random.Random(SKEW_SEED + 2)  # classes, columns, hot tenants
        self._subattrs = ZipfSampler(SUB_ATTRIBUTE_COUNT, THETA, seed=SKEW_SEED + 3)
        self._rng = random.Random(seed + 2)  # the values

    def _time_range(self, horizon: float) -> tuple[float, float]:
        low = round(self._rng.uniform(0.0, 0.6 * horizon), 4)
        return low, round(low + self._rng.uniform(0.2, 0.4) * horizon, 4)

    def _filters(self) -> tuple[tuple[str, str, object], ...]:
        rng = self._rng
        pool = (
            lambda: ("status", "=", rng.randint(0, 3)),
            lambda: ("group", ">=", rng.randint(1, 800)),
            lambda: ("quantity", ">=", rng.randint(1, 5)),
            lambda: ("amount", "<=", rng.randint(500, 5000)),
        )
        chosen = self._shape.sample(pool, self._shape.randint(1, len(pool)))
        return tuple(make() for make in chosen)

    def statement(self, horizon: float, tenant: int | None = None) -> QuerySpec:
        if tenant is None:
            tenant = self.tenants.sample()
        draw = self._shape.random()
        if draw < 0.6:
            return QuerySpec(
                "filter", tenant, self._time_range(horizon), self._filters(), limit=100
            )
        if draw < 0.8:
            return QuerySpec("topk", tenant, self._time_range(horizon), limit=20)
        if draw < 0.9:
            name = TransactionLogGenerator.subattribute_name(self._subattrs.sample_rank())
            return QuerySpec(
                "subattr", tenant, attr=(name, f"v{self._rng.randint(0, 9)}"), limit=100
            )
        return QuerySpec("agg", tenant, self._time_range(horizon))

    def query(self, horizon: float, tenant: int | None = None) -> Op:
        spec = self.statement(horizon, tenant)
        return Op("query", spec.sql(), spec)

    def hot_set(self, count: int, tenants: int, horizon: float) -> list[Op]:
        """*count* statements over the *tenants* hottest tenants."""
        return [
            self.query(horizon, self.tenants.tenant_at(self._shape.randint(1, tenants)))
            for _ in range(count)
        ]


@dataclass(frozen=True)
class Sizes:
    """Sizes of one workload at ``REFERENCE_SECONDS``."""

    preload_docs: int  # bulk-loaded before timing (sparse history)
    warmup_ops: int  # untimed operations of the timed kind
    open_seconds: float  # open-loop phase length
    open_rate: float  # foreground operations per second in the open loop
    closed_ops: int  # closed-loop phase: documents or queries
    traced_ops: int  # traced closed-loop slice
    hot_statements: int = 0

    def scaled(self, timed: float, everything: float = 1.0, traced: bool = True) -> "Sizes":
        """Scale the timed phases by *timed* and all sizes by *everything*;
        without *traced* the traced slice is not generated."""
        both = timed * everything
        return replace(
            self,
            preload_docs=int(self.preload_docs * everything),
            warmup_ops=max(1, int(self.warmup_ops * everything)),
            open_seconds=self.open_seconds * both,
            closed_ops=max(1, int(self.closed_ops * both)),
            traced_ops=max(1, int(self.traced_ops * everything)) if traced else 0,
        )


@dataclass
class Inputs:
    """What one repetition of a workload runs, in order."""

    setup: list[Op]  # preload and warm-up, untimed
    open_loop: list[tuple[float, Op]]
    closed_loop: list[Op]
    traced: list[Op]

    def crc32(self) -> int:
        """Checksum of the whole operation stream (documents, SQL, due times
        and tick positions) — equal streams, equal number."""
        crc = 0
        for op in self.setup + self.closed_loop + self.traced:
            crc = zlib.crc32(repr((op.kind, op.payload)).encode(), crc)
        for due, op in self.open_loop:
            crc = zlib.crc32(repr((due, op.kind, op.payload)).encode(), crc)
        return crc


class DocStream:
    """Documents in logical-time order from one seeded generator."""

    def __init__(self, seed: int) -> None:
        self.generator = TransactionLogGenerator(
            WorkloadConfig(num_tenants=NUM_TENANTS, theta=THETA, seed=seed)
        )
        self.generator.tenants = ZipfSampler(NUM_TENANTS, THETA, seed=SKEW_SEED)
        self.clock = 0.0  # logical time of the next phase's start

    def at(self, offset: float) -> dict:
        return self.generator.generate(self.clock + offset)

    def shift_hotspots(self) -> None:
        self.generator.tenants.rotate_hotspots(HOTSPOT_SHIFT)


def _ticks(kind: str, period: float, until: float, phase: float = 0.0) -> Iterator[tuple[float, Op]]:
    """``kind`` every *period* logical seconds in ``(0, until]``."""
    count = 1
    while count * period + phase <= until:
        yield count * period + phase, Op(kind)
        count += 1


def _timeline(
    stream: DocStream,
    duration: float,
    arrivals: list[tuple[float, str]],
    make: dict[str, Callable[[float], Op]],
    ticks: list[tuple[float, Op]],
    shift_at: float | None,
) -> list[tuple[float, Op]]:
    """Merge arrivals (``(time, kind)``) and ticks into one schedule in time
    order, generating each operation as its time comes so that the hotspot
    shift at *shift_at* changes what is generated after it. Advances the
    stream's logical clock by *duration*."""
    events: list[tuple[float, int, str]] = [(t, 1, kind) for t, kind in arrivals]
    if shift_at is not None:
        events.append((shift_at, 0, "shift"))
    schedule: list[tuple[float, Op]] = []
    tick_iter = iter(sorted(ticks, key=lambda tick: tick[0]))
    pending = next(tick_iter, None)
    for t, _, kind in sorted(events):
        while pending is not None and pending[0] <= t:
            schedule.append(pending)
            pending = next(tick_iter, None)
        if kind == "shift":
            make["shift"](t)
        else:
            schedule.append((t, make[kind](t)))
    while pending is not None:
        schedule.append(pending)
        pending = next(tick_iter, None)
    stream.clock += duration
    return schedule


def _poisson(rate: float, duration: float, stream: int) -> list[float]:
    """Poisson arrival times; *stream* tells the phases' processes apart."""
    if duration <= 0:
        return []  # a phase this run does not need (the traced slice)
    return list(PoissonProcess(rate, duration, seed=SKEW_SEED + stream).times())


def _evenly(count: int, rate: float) -> list[float]:
    return [i / rate for i in range(count)]


# -- set-up shared by the three preloaded workloads ---------------------------

PRELOAD_RATE = 400.0  # documents per logical second of preloaded history
PRELOAD_REBALANCE = 5.0  # logical seconds between balance rounds while loading


def _preload(stream: DocStream, docs: int) -> list[Op]:
    """``bulk_write`` chunks with a balance round every five logical seconds,
    then a refresh: hot tenants end up spread over several shards."""
    ops: list[Op] = []
    next_round = PRELOAD_REBALANCE
    for first in range(0, docs, BULK_CHUNK):
        if first / PRELOAD_RATE >= next_round:
            ops.append(Op("rebalance"))
            next_round += PRELOAD_REBALANCE
        ops.append(Op("bulk", [
            stream.at(i / PRELOAD_RATE) for i in range(first, min(first + BULK_CHUNK, docs))
        ]))
    stream.clock += docs / PRELOAD_RATE
    ops.append(Op("refresh"))
    return ops


# -- the workloads -----------------------------------------------------------

def ingest_skew(seed: int, sizes: Sizes) -> Inputs:
    """Single-document writes on an empty database: warm-up history, then
    Poisson arrivals at the reference rate with a balance round every logical
    second and the hotspot shift half-way, then the same back to back."""
    stream = DocStream(seed)
    rate = sizes.open_rate
    write = {"write": lambda t: Op("write", stream.at(t)),
             "shift": lambda t: stream.shift_hotspots()}

    def phase(times: list[float], duration: float, shift_at: float | None = None):
        return _timeline(
            stream, duration, [(t, "write") for t in times], write,
            list(_ticks("rebalance", 1.0, duration)), shift_at,
        )

    # Ten logical seconds of sparse history, so the first rules (effective
    # five seconds after they commit) already apply when timing starts.
    warm_seconds = 10.0
    warmup = _timeline(
        stream, warm_seconds,
        [(t, "write") for t in _evenly(sizes.warmup_ops, sizes.warmup_ops / warm_seconds)],
        write, list(_ticks("rebalance", 2.5, warm_seconds)), None,
    )
    open_loop = phase(
        _poisson(rate, sizes.open_seconds, 10), sizes.open_seconds,
        shift_at=sizes.open_seconds / 2,
    )
    closed = phase(_evenly(sizes.closed_ops, rate), sizes.closed_ops / rate)
    traced = phase(_evenly(sizes.traced_ops, rate), sizes.traced_ops / rate)
    return Inputs(
        setup=[op for _, op in warmup],
        open_loop=open_loop,
        closed_loop=[op for _, op in closed],
        traced=[op for _, op in traced],
    )


def query_cold(seed: int, sizes: Sizes) -> Inputs:
    """Distinct statements over preloaded data: every cache misses."""
    stream = DocStream(seed)
    setup = _preload(stream, sizes.preload_docs)
    horizon = stream.clock
    statements = StatementGenerator(seed)
    setup += [statements.query(horizon) for _ in range(sizes.warmup_ops)]
    due = _poisson(sizes.open_rate, sizes.open_seconds, 10)
    return Inputs(
        setup=setup,
        open_loop=[(t, statements.query(horizon)) for t in due],
        closed_loop=[statements.query(horizon) for _ in range(sizes.closed_ops)],
        traced=[statements.query(horizon) for _ in range(sizes.traced_ops)],
    )


def query_hot_repeat(seed: int, sizes: Sizes) -> Inputs:
    """A small set of statements over the hottest tenants, repeated with
    Zipf popularity after one priming pass: the result cache answers."""
    stream = DocStream(seed)
    setup = _preload(stream, sizes.preload_docs)
    statements = StatementGenerator(seed)
    hot = statements.hot_set(sizes.hot_statements, 50, stream.clock)
    popularity = ZipfSampler(len(hot), THETA, seed=SKEW_SEED + 5)

    def pick() -> Op:
        return hot[popularity.sample_rank() - 1]

    setup += hot  # the priming pass fills the caches
    setup += [pick() for _ in range(sizes.warmup_ops)]
    due = _poisson(sizes.open_rate, sizes.open_seconds, 10)
    return Inputs(
        setup=setup,
        open_loop=[(t, pick()) for t in due],
        closed_loop=[pick() for _ in range(sizes.closed_ops)],
        traced=[pick() for _ in range(sizes.traced_ops)],
    )


#: Shares of mixed_realtime's foreground calls: the rest are queries, half
#: from the hot set and half distinct.
MIXED_BULK_SHARE = 0.25


def mixed_realtime(seed: int, sizes: Sizes) -> Inputs:
    """Bulk writes beside queries on one merged schedule, with a refresh and
    a balance round every second and the hotspot shift half-way."""
    stream = DocStream(seed)
    setup = _preload(stream, sizes.preload_docs)
    statements = StatementGenerator(seed)
    hot = statements.hot_set(sizes.hot_statements, 50, stream.clock)
    popularity = ZipfSampler(len(hot), THETA, seed=SKEW_SEED + 5)
    coin = random.Random(SKEW_SEED + 4)  # which calls repeat a hot statement
    setup += hot
    bulk_rate = sizes.open_rate * MIXED_BULK_SHARE
    query_rate = sizes.open_rate - bulk_rate

    def bulk(t: float) -> Op:
        # One call's documents share the call's arrival time, a microsecond
        # apart so that created_time stays unique per document.
        return Op("bulk", [stream.at(t + i * 1e-6) for i in range(MIXED_BULK)])

    def query(t: float) -> Op:
        if coin.random() < 0.5:
            return hot[popularity.sample_rank() - 1]
        return statements.query(stream.clock + t)

    def shift(t: float) -> None:
        stream.shift_hotspots()
        statements.tenants.rotate_hotspots(HOTSPOT_SHIFT)

    make = {"bulk": bulk, "query": query, "shift": shift}

    def phase(duration: float, arrival_stream: int, shift_at: float | None = None):
        arrivals = list(heapq.merge(
            ((t, "bulk") for t in _poisson(bulk_rate, duration, arrival_stream)),
            ((t, "query") for t in _poisson(query_rate, duration, arrival_stream + 1)),
        ))
        ticks = list(_ticks("refresh", 1.0, duration))
        ticks += list(_ticks("rebalance", 1.0, duration - 0.5, phase=0.5))
        return _timeline(stream, duration, arrivals, make, ticks, shift_at)

    setup += [op for _, op in phase(sizes.warmup_ops / sizes.open_rate, 40)]
    setup.append(Op("refresh"))
    open_loop = phase(sizes.open_seconds, 10, shift_at=sizes.open_seconds / 2)
    closed = phase(sizes.closed_ops / sizes.open_rate, 50)
    traced = phase(sizes.traced_ops / sizes.open_rate, 60)
    return Inputs(
        setup=setup,
        open_loop=open_loop,
        closed_loop=[op for _, op in closed],
        traced=[op for _, op in traced],
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Sizes], Inputs]
    sizes: Sizes


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ingest_skew",
            "write-only on an empty database: the write pipeline does nearly all "
            "the work, the query layer none",
            ingest_skew,
            Sizes(preload_docs=0, warmup_ops=2000, open_seconds=3.0, open_rate=1200.0,
                  closed_ops=6000, traced_ops=4000),
        ),
        Workload(
            "query_cold",
            "read-only, every statement distinct so no cache can answer: the "
            "query and storage layers do the work",
            query_cold,
            Sizes(preload_docs=8000, warmup_ops=200, open_seconds=4.0, open_rate=200.0,
                  closed_ops=800, traced_ops=600),
        ),
        Workload(
            "query_hot_repeat",
            "read-only, 200 repeated statements that fit the result cache: "
            "facade, cache and telemetry do the work, parse/plan/storage none",
            query_hot_repeat,
            Sizes(preload_docs=8000, warmup_ops=500, open_seconds=3.0, open_rate=2500.0,
                  closed_ops=30_000, traced_ops=5000, hot_statements=200),
        ),
        Workload(
            "mixed_realtime",
            "bulk writes beside hot and distinct queries with per-second refresh "
            "and rebalance: a gain for one side that costs the other shows",
            mixed_realtime,
            Sizes(preload_docs=8000, warmup_ops=100, open_seconds=3.5, open_rate=120.0,
                  closed_ops=400, traced_ops=400, hot_statements=200),
        ),
    )
}
