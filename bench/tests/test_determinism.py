"""Equal seeds give equal operation streams and equal counts; another seed
gives another stream. Counts never depend on the wall clock."""

import pytest

from bench.metrics import COUNT_METRICS
from bench.runner import run_workload
from bench.workloads import WORKLOADS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_and_stream_repeat_exactly(name):
    first = run_workload(name, seed=1, smoke=True, trace=True)
    second = run_workload(name, seed=1, smoke=True, trace=True)
    other = run_workload(name, seed=2, smoke=True, trace=True)
    assert first["failed"] == second["failed"] == other["failed"] == 0
    assert first["attempted"] == second["attempted"]
    for metric in sorted(COUNT_METRICS):
        assert first["values"][metric] == second["values"][metric], metric
    assert first["values"]["loadgen.stream_crc32"] != other["values"]["loadgen.stream_crc32"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_counts_repeat_exactly(name):
    first = run_workload(name, seed=1, smoke=True)
    second = run_workload(name, seed=1, smoke=True)
    assert first["failed"] == second["failed"] == 0
    for metric in ("node_load_max_over_mean", "query_fanout_mean"):
        assert first["values"][metric] == second["values"][metric], metric
    assert all(value > 0 for value in first["values"].values())
