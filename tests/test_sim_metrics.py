"""Direct tests for the simulation metrics collector and report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import MetricsCollector
from repro.sim.metrics import SimulationReport


def _tick(collector: MetricsCollector, t: float, completed: float,
          node_tp=None, cpu=None, shard_tp=None, delay=0.5):
    n = collector.num_nodes
    s = collector.num_shards
    collector.record_tick(
        time=t,
        offered=completed,
        completed=completed,
        avg_delay=delay,
        max_delay=delay * 2,
        node_throughput=np.array(node_tp if node_tp is not None else [completed / n] * n),
        node_cpu=np.array(cpu if cpu is not None else [0.5] * n),
        shard_throughput=np.array(
            shard_tp if shard_tp is not None else [completed / s] * s
        ),
    )


class TestCollector:
    def test_series_ordering(self):
        collector = MetricsCollector(num_nodes=2, num_shards=4)
        for t in range(5):
            _tick(collector, float(t), completed=100.0)
        series = collector.throughput_series()
        assert [t for t, _ in series] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert all(v == 100.0 for _, v in series)

    def test_delay_and_max_delay_series(self):
        collector = MetricsCollector(num_nodes=2, num_shards=4)
        _tick(collector, 0.0, 10.0, delay=1.5)
        assert [(s.time, s.avg_delay) for s in collector.samples] == [(0.0, 1.5)]
        assert collector.max_delay_series() == [(0.0, 3.0)]

    def test_shard_totals_accumulate(self):
        collector = MetricsCollector(num_nodes=2, num_shards=2)
        _tick(collector, 0.0, 10.0, shard_tp=[8.0, 2.0])
        _tick(collector, 1.0, 10.0, shard_tp=[8.0, 2.0])
        assert collector.shard_sizes.tolist() == [16.0, 4.0]

    def test_warmup_excluded_from_report(self):
        collector = MetricsCollector(num_nodes=2, num_shards=2)
        _tick(collector, 0.0, 1.0)  # warmup junk
        _tick(collector, 10.0, 100.0)
        _tick(collector, 11.0, 100.0)
        report = collector.report(warmup=5.0)
        assert report.throughput == pytest.approx(100.0)

    def test_report_with_all_ticks_in_warmup_falls_back(self):
        collector = MetricsCollector(num_nodes=2, num_shards=2)
        _tick(collector, 0.0, 42.0)
        report = collector.report(warmup=100.0)
        assert report.throughput == pytest.approx(42.0)


class TestReportProperties:
    def _report(self, node_tp, shard_tp, cpu, shard_sizes):
        return SimulationReport(
            offered_rate=100.0,
            throughput=100.0,
            avg_delay=0.2,
            max_delay=0.4,
            node_throughput=np.array(node_tp),
            node_cpu=np.array(cpu),
            shard_throughput=np.array(shard_tp),
            shard_sizes=np.array(shard_sizes),
        )

    def test_stddevs(self):
        report = self._report([10, 20], [5, 5, 10, 10], [0.5, 0.7], [1, 2, 3, 4])
        assert report.node_throughput_std == pytest.approx(5.0)
        assert report.shard_throughput_std == pytest.approx(np.std([5, 5, 10, 10]))

    def test_avg_cpu(self):
        report = self._report([1, 1], [1, 1, 1, 1], [0.4, 0.6], [1, 1, 1, 1])
        assert report.avg_cpu == pytest.approx(0.5)

    def test_shard_size_ratio_ignores_empty_shards(self):
        report = self._report([1, 1], [1] * 4, [0.5, 0.5], [0, 2, 8, 0])
        assert report.shard_size_ratio == pytest.approx(4.0)

    def test_shard_size_ratio_all_empty(self):
        report = self._report([1, 1], [1] * 4, [0.5, 0.5], [0, 0, 0, 0])
        assert report.shard_size_ratio == 1.0
