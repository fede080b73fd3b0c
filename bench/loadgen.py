"""Load generation and the harness maths: open-loop and closed-loop drivers,
percentiles, and a garbage-collection pause watch.

An open loop issues each operation at a due time fixed in advance and charges
its latency from that *due* time, so a stall is paid by every request queued
behind it. A closed loop issues the same operations back to back and gives
the capacity. Clocks are injectable so the tests can fake a stall.

Both loops can keep a ``MachineClock``: short probes between operations that
record how fast the machine itself was running, from which a
``ReferenceTimeline`` converts wall-clock instants to seconds at one fixed
machine speed.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

#: Operations whose latency is reported; the rest (``refresh``, ``rebalance``)
#: are ticks that run at their place in the schedule and delay what follows.
FOREGROUND = ("write", "bulk", "query")

#: The repo's default SLO thresholds (``repro.slo``): p99 write < 10 ms,
#: p99 query < 50 ms. A bulk call is a write.
LIMIT_SECONDS = {"write": 0.010, "bulk": 0.010, "query": 0.050}

PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


class Op(NamedTuple):
    """One operation of a schedule. ``payload`` is a document (``write``), a
    list of documents (``bulk``) or SQL text (``query``); ``spec`` is the
    structured form of a query, which the oracle evaluates."""

    kind: str
    payload: object = None
    spec: object = None


def _rank(n: int, q: float) -> int:
    """Nearest rank of the *q*-th percentile among *n* samples (rounded
    first: 99.9 % of 10,000 is 9990, not 9990.000000000002)."""
    return max(1, math.ceil(round(q * n / 100.0, 6)))


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank *q*-th percentile of *n*."""
    return n - _rank(n, q)


def supported_percentiles(n: int) -> list[float]:
    """The percentiles worth printing for *n* samples: the median, and every
    higher one that still has at least ten samples beyond it."""
    return [q for q in PERCENTILES if q == 50.0 or samples_beyond(n, q) >= 10]


class MachineClock:
    """Records how fast the machine runs, moment by moment.

    A probe is a fixed loop of dependent reads scattered over an 8 MB array
    (no allocation, so the collector and the heap's size do not enter). On
    this kind of box the same Python code runs up to twice slower for seconds
    or minutes at a time, whatever the program does, and the probe slows down
    with it. Probes are taken between operations — every ``PROBE_EVERY``
    seconds in a closed loop and during set-up, in idle gaps of an open loop —
    so they delay nothing that is timed.
    """

    PROBE_STEPS = 2000
    PROBE_EVERY = 0.025  # seconds between probes where the harness is never idle
    IDLE_EVERY = 0.010  # and where it is idle often (an open loop)

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._table = array("q", range(1 << 20))
        self._position = 1
        self.marks: list[tuple[float, float]] = []  # (start, end) of every probe
        self.last = float("-inf")  # when the last probe ended
        self._took = 0.001  # what it took

    def probe(self) -> float:
        """Run one probe; returns the clock reading at its end."""
        table, position, clock = self._table, self._position, self._clock
        mask = len(table) - 1
        start = clock()
        for _ in range(self.PROBE_STEPS):
            position = (position * 1103515245 + 12345 + table[position]) & mask
        self.last = clock()
        self._took = self.last - start
        self._position = position
        self.marks.append((start, self.last))
        return self.last

    def idle(self, now: float, until: float) -> None:
        """Probe in an idle gap, if the gap is twice what the last probe took
        and ``IDLE_EVERY`` has passed since."""
        if until - now > 2 * self._took and now - self.last >= self.IDLE_EVERY:
            self.probe()

    def tick(self, now: float) -> float:
        """Probe if ``PROBE_EVERY`` has passed since the last one; returns the
        clock reading to go on from."""
        return self.probe() if now - self.last >= self.PROBE_EVERY else now

    def timeline(self) -> "ReferenceTimeline":
        return ReferenceTimeline(self.marks)


#: What a probe takes on the reference machine: this box at its fastest. Only
#: ratios between two versions of the program matter, so the value is a
#: convention, not a measurement to keep current.
PROBE_REFERENCE_SECONDS = 0.00027


class ReferenceTimeline:
    """Converts wall-clock instants to *reference seconds*: the time that
    would have passed had the machine run at the reference speed throughout.

    Each probe's slowdown is the median duration of the probes within
    ``window`` seconds of it over ``PROBE_REFERENCE_SECONDS``. Between two
    probes reference time advances at one over the mean of their slowdowns;
    during a probe it stands still, so probes cost nothing that is measured.
    """

    def __init__(self, marks: Sequence[tuple[float, float]], window: float = 0.1) -> None:
        if not marks:
            raise ValueError("a reference timeline needs at least one probe")
        starts = [start for start, _ in marks]
        durations = [end - start for start, end in marks]
        self.slowdowns: list[float] = []
        low = high = 0
        for start in starts:
            while starts[low] < start - window:
                low += 1
            while high < len(starts) and starts[high] <= start + window:
                high += 1
            self.slowdowns.append(
                statistics.median(durations[low:high]) / PROBE_REFERENCE_SECONDS
            )
        self._times: list[float] = []
        self._reference: list[float] = []
        reference = 0.0
        for i, (start, end) in enumerate(marks):
            if i:
                rate = 2.0 / (self.slowdowns[i - 1] + self.slowdowns[i])
                reference += (start - marks[i - 1][1]) * rate
            self._times += [start, end]
            self._reference += [reference, reference]

    def at(self, instant: float) -> float:
        """Reference seconds at wall-clock *instant* (zero at the first probe)."""
        times, reference = self._times, self._reference
        i = bisect_right(times, instant)
        if i == 0:
            return reference[0] - (times[0] - instant) / self.slowdowns[0]
        if i == len(times):
            return reference[-1] + (instant - times[-1]) / self.slowdowns[-1]
        span = times[i] - times[i - 1]
        if span <= 0:
            return reference[i]
        share = (instant - times[i - 1]) / span
        return reference[i - 1] + (reference[i] - reference[i - 1]) * share

    def between(self, start: float, end: float) -> float:
        return self.at(end) - self.at(start)


def capped_mean(latencies: dict[str, list[float]]) -> float:
    """Mean latency with each call counted at most at its limit: a miss is a
    miss, however late. Unlike the plain mean, which grows with the square
    of a stall's length (more requests delayed, each for longer), this grows
    with its length, and unlike a percentile it has no cliff where the
    stalled share of requests crosses the percentile."""
    total = sum(
        min(v, LIMIT_SECONDS[kind]) for kind, values in latencies.items() for v in values
    )
    return total / sum(len(values) for values in latencies.values())


@dataclass
class OpenLoopResult:
    latencies: dict[str, list[float]] = field(default_factory=dict)  # from due time
    stamps: list[tuple[str, float, float]] = field(default_factory=list)  # kind, due, end
    lateness: list[float] = field(default_factory=list)  # issue - due, generator idle before
    busy: float = 0.0  # seconds spent inside operations, ticks included
    elapsed: float = 0.0
    backlog_max: int = 0  # most operations due but not yet issued

    def all_latencies(self) -> list[float]:
        return sorted(v for values in self.latencies.values() for v in values)

    def over_limit(self) -> int:
        return sum(
            1
            for kind, values in self.latencies.items()
            for v in values
            if v > LIMIT_SECONDS[kind]
        )

    def reference_latencies(self, timeline: ReferenceTimeline) -> dict[str, list[float]]:
        """The latencies in reference seconds instead of wall-clock seconds."""
        out: dict[str, list[float]] = {kind: [] for kind in self.latencies}
        for kind, due, end in self.stamps:
            out[kind].append(timeline.between(due, end))
        return out


def run_open_loop(
    schedule: Sequence[tuple[float, Op]],
    execute: Callable[[Op], None],
    clock: Callable[[], float] = time.perf_counter,
    machine: MachineClock | None = None,
) -> OpenLoopResult:
    """Issue ``schedule`` (``(due seconds from start, op)``, ascending) at
    its due times on one thread; an operation that comes due while an earlier
    one is still running waits, and that wait is part of its latency. The
    generator spins until a due time (a sleep on this kind of machine
    overshoots by up to 5 ms, and the second core is free), and with a
    *machine* clock it probes while it has time to spare."""
    result = OpenLoopResult(latencies={kind: [] for kind in FOREGROUND})
    dues = [due for due, _ in schedule]
    start = machine.probe() if machine is not None else clock()
    for position, (due, op) in enumerate(schedule):
        target = start + due
        now = clock()
        if now < target:
            while now < target:
                if machine is not None:
                    machine.idle(now, target)
                now = clock()
            if op.kind in FOREGROUND:
                result.lateness.append(now - target)
        else:
            backlog = bisect_right(dues, now - start) - position
            if backlog > result.backlog_max:
                result.backlog_max = backlog
        execute(op)
        end = clock()
        result.busy += end - now
        if op.kind in FOREGROUND:
            result.latencies[op.kind].append(end - target)
            result.stamps.append((op.kind, target, end))
    result.elapsed = clock() - start
    if machine is not None:
        machine.probe()
    return result


@dataclass
class ClosedLoopResult:
    durations: list[float] = field(default_factory=list)  # per op, ticks included
    started: float = 0.0  # wall-clock instants of the loop's first and last op
    ended: float = 0.0
    elapsed: float = 0.0  # seconds inside operations (probes excluded)
    units: int = 0  # documents written + queries answered

    @property
    def units_per_s(self) -> float:
        return self.units / self.elapsed


def run_closed_loop(
    ops: Sequence[Op],
    execute: Callable[[Op], None],
    clock: Callable[[], float] = time.perf_counter,
    machine: MachineClock | None = None,
) -> ClosedLoopResult:
    """Issue ``ops`` back to back with one client. Throughput counts
    documents and queries; the ticks between them cost time but no units.
    With a *machine* clock, a probe runs between two operations every
    ``PROBE_EVERY`` seconds, outside every operation's duration."""
    result = ClosedLoopResult()
    durations = result.durations
    result.started = previous = machine.probe() if machine is not None else clock()
    for op in ops:
        execute(op)
        now = clock()
        durations.append(now - previous)
        previous = machine.tick(now) if machine is not None else now
    result.ended = previous
    result.elapsed = sum(durations)
    result.units = sum(op_units(op) for op in ops)
    return result


def op_units(op: Op) -> int:
    if op.kind == "bulk":
        return len(op.payload)
    return 1 if op.kind in FOREGROUND else 0


class GcWatch:
    """Garbage-collection pauses while the watch is open, from
    ``gc.callbacks`` (the collector stops the only thread there is)."""

    def __init__(self) -> None:
        self.pause_total = 0.0
        self.pause_max = 0.0
        self.gen2_count = 0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        pause = time.perf_counter() - self._started
        self.pause_total += pause
        self.pause_max = max(self.pause_max, pause)
        if info["generation"] == 2:
            self.gen2_count += 1

    # Re-entrant: pauses add up over every block the watch is opened for.
    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)
