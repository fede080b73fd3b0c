"""The harness maths: percentile rule, latency from due time, backlog."""

import pytest

from bench.loadgen import (
    PROBE_REFERENCE_SECONDS,
    MachineClock,
    Op,
    ReferenceTimeline,
    capped_mean,
    op_units,
    percentile,
    run_closed_loop,
    run_open_loop,
    samples_beyond,
    supported_percentiles,
)


class FakeClock:
    """Advances ten microseconds per reading; an operation advances ``now``."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1e-5
        return self.now


def test_percentile_is_nearest_rank():
    values = sorted(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 99) == 10
    assert supported_percentiles(999) == [50.0, 90.0]
    assert supported_percentiles(1000) == [50.0, 90.0, 99.0]
    assert supported_percentiles(9999) == [50.0, 90.0, 99.0]
    assert supported_percentiles(10_000) == [50.0, 90.0, 99.0, 99.9]
    assert supported_percentiles(5) == [50.0]


def test_open_loop_charges_a_stall_to_the_requests_queued_behind_it():
    clock = FakeClock()
    schedule = [(i * 0.010, Op("write", i)) for i in range(10)]

    def execute(op: Op) -> None:
        clock.now += 0.200 if op.payload == 2 else 0.001

    result = run_open_loop(schedule, execute, clock=clock)
    latencies = result.latencies["write"]
    assert len(latencies) == 10
    assert latencies[0] == pytest.approx(0.001, abs=1e-4)
    assert latencies[2] == pytest.approx(0.200, abs=1e-4)
    # Op 3 was due at 30 ms but could only start when the stall ended at
    # 220 ms: its 1 ms of service reads as 191 ms from its due time, and
    # each later request waits 9 ms less (10 ms later due, 1 ms more queue).
    assert latencies[3] == pytest.approx(0.191, abs=1e-3)
    assert latencies[4] == pytest.approx(0.182, abs=1e-3)
    assert all(latency > 0.120 for latency in latencies[3:])
    # Ops 3..9 were all due by the time op 3 was issued.
    assert result.backlog_max == 7
    # Lateness is only taken where the generator was idle before the issue
    # (ops 1 and 2; op 0 was already due when the loop started).
    assert len(result.lateness) == 2
    assert max(result.lateness) < 1e-4
    assert result.over_limit() == 8  # the stall and the seven behind it
    # Eight calls count as their 10 ms limit, two as their 1 ms of service.
    assert capped_mean(result.latencies) == pytest.approx((8 * 0.010 + 2 * 0.001) / 10, abs=1e-4)
    assert result.busy == pytest.approx(0.209, abs=1e-3)


def test_open_loop_ticks_delay_but_are_not_samples():
    clock = FakeClock()
    schedule = [(0.0, Op("query", "q")), (0.010, Op("refresh")), (0.011, Op("query", "q"))]

    def execute(op: Op) -> None:
        clock.now += 0.100 if op.kind == "refresh" else 0.001

    result = run_open_loop(schedule, execute, clock=clock)
    assert len(result.latencies["query"]) == 2
    assert result.latencies["query"][1] == pytest.approx(0.100, abs=2e-3)
    assert result.all_latencies() == sorted(result.latencies["query"])


def test_closed_loop_counts_documents_and_queries_not_ticks():
    clock = FakeClock()
    ops = [Op("bulk", [1, 2, 3]), Op("refresh"), Op("query", "q"), Op("write", 4)]

    def execute(op: Op) -> None:
        clock.now += 0.010

    result = run_closed_loop(ops, execute, clock=clock)
    assert [op_units(op) for op in ops] == [3, 0, 1, 1]
    assert result.units == 5
    assert len(result.durations) == 4
    assert result.elapsed == pytest.approx(0.040, abs=1e-4)
    assert result.units_per_s == pytest.approx(125, rel=1e-2)



def test_reference_timeline_stretches_and_shrinks_wall_time_by_the_probes():
    unit = PROBE_REFERENCE_SECONDS
    # Probes one second apart: at reference speed until t=3, then twice slower.
    marks = [(float(t), t + unit) for t in range(0, 4)]
    marks += [(float(t), t + 2 * unit) for t in range(4, 8)]
    timeline = ReferenceTimeline(marks, window=0.5)
    assert timeline.slowdowns == pytest.approx([1.0] * 4 + [2.0] * 4)
    assert timeline.between(1.5, 2.5) == pytest.approx(1.0, rel=1e-3)
    assert timeline.between(5.5, 6.5) == pytest.approx(0.5, rel=1e-3)
    # Between a fast and a slow probe the rate is one over their mean.
    assert timeline.between(3.25, 3.75) == pytest.approx(0.5 / 1.5, rel=1e-3)
    # During a probe reference time stands still; outside the probes it
    # continues at the nearest probe's rate.
    assert timeline.between(4.0, 4.0 + 2 * unit) == pytest.approx(0.0, abs=1e-12)
    assert timeline.between(-2.0, -1.0) == pytest.approx(1.0)
    assert timeline.between(9.0, 10.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ReferenceTimeline([])


def test_slowdown_is_a_median_over_neighbouring_probes():
    unit = PROBE_REFERENCE_SECONDS
    marks = [(0.00, 0.00 + unit), (0.01, 0.01 + 9 * unit), (0.02, 0.02 + unit)]
    assert ReferenceTimeline(marks, window=0.1).slowdowns == pytest.approx([1.0, 1.0, 1.0])
    assert ReferenceTimeline(marks, window=0.001).slowdowns == pytest.approx([1.0, 9.0, 1.0])


def test_loops_probe_between_operations_never_inside_them():
    clock = FakeClock()
    machine = MachineClock(clock=clock)
    ops = [Op("write", i) for i in range(100)]

    def execute(op: Op) -> None:
        clock.now += 0.001

    closed = run_closed_loop(ops, execute, clock=clock, machine=machine)
    assert len(machine.marks) >= 100 * 0.001 / MachineClock.PROBE_EVERY
    assert closed.elapsed == pytest.approx(0.1, rel=0.05)  # probes are not in it
    assert closed.ended - closed.started > closed.elapsed
    inside = sum(end - start for start, end in machine.marks[1:])
    assert closed.ended - closed.started == pytest.approx(closed.elapsed + inside, rel=0.02)

    before = len(machine.marks)
    schedule = [(i * 0.010, Op("query", "q")) for i in range(20)]
    result = run_open_loop(schedule, execute, clock=clock, machine=machine)
    assert len(machine.marks) > before + 2  # probed in the idle gaps
    assert max(result.lateness) < 1e-4  # and was back in time for every due time
    assert result.latencies["query"] == pytest.approx([0.001] * 20, abs=1e-4)
    reference = result.reference_latencies(machine.timeline())["query"]
    assert len(reference) == 20 and all(value > 0 for value in reference)
