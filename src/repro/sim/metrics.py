"""Metric collection for the write simulation.

Collects the exact series the paper plots: cluster throughput over time
(Figs 10a, 11a, 14), average write delay (Figs 10b, 11b), max write delay
(Fig 19), per-node and per-shard throughput with their standard deviations
(Figs 12, 13a–c), per-node CPU usage (Figs 13, 15b) and shard sizes
(Fig 13d).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.metrics import exponential_buckets, summarize

# Write delays land between sub-millisecond and tens of seconds; 48 buckets
# growing 1.35x from 1ms keep the interpolation error of the quantiles small.
DELAY_BUCKETS = exponential_buckets(1e-3, 1.35, 48)


@dataclass
class TickSample:
    """Per-tick aggregate measurements."""

    time: float
    offered: float  # writes generated this tick
    completed: float  # writes whose primary work finished this tick
    avg_delay: float  # mean completion delay of this tick's arrivals
    max_delay: float  # worst-node backlog delay
    node_throughput: np.ndarray
    node_cpu: np.ndarray


@dataclass
class MetricsCollector:
    """Accumulates tick samples and exposes the paper's summary statistics."""

    num_nodes: int
    num_shards: int
    samples: list = field(default_factory=list)
    shard_throughput_total: np.ndarray = None
    shard_sizes: np.ndarray = None

    def __post_init__(self) -> None:
        self.shard_throughput_total = np.zeros(self.num_shards)
        self.shard_sizes = np.zeros(self.num_shards)

    def record_tick(
        self,
        time: float,
        offered: float,
        completed: float,
        avg_delay: float,
        max_delay: float,
        node_throughput: np.ndarray,
        node_cpu: np.ndarray,
        shard_throughput: np.ndarray,
    ) -> None:
        self.samples.append(
            TickSample(
                time=time,
                offered=offered,
                completed=completed,
                avg_delay=avg_delay,
                max_delay=max_delay,
                node_throughput=node_throughput.copy(),
                node_cpu=node_cpu.copy(),
            )
        )
        self.shard_throughput_total += shard_throughput
        self.shard_sizes += shard_throughput

    # -- series ------------------------------------------------------------
    def throughput_series(self) -> list[tuple[float, float]]:
        return [(s.time, s.completed) for s in self.samples]

    def max_delay_series(self) -> list[tuple[float, float]]:
        return [(s.time, s.max_delay) for s in self.samples]

    # -- summaries ------------------------------------------------------------
    def report(self, warmup: float = 0.0) -> "SimulationReport":
        """Summarize ticks after *warmup* seconds into a report."""
        steady = [s for s in self.samples if s.time >= warmup]
        if not steady:
            steady = self.samples
        duration = max(len(steady), 1)
        throughput = sum(s.completed for s in steady) / duration
        offered = sum(s.offered for s in steady) / duration
        delays = [s.avg_delay for s in steady]
        node_tp = np.mean([s.node_throughput for s in steady], axis=0)
        node_cpu = np.mean([s.node_cpu for s in steady], axis=0)
        ticks_counted = max(len(self.samples), 1)
        shard_tp = self.shard_throughput_total / ticks_counted
        quantiles = summarize(delays, buckets=DELAY_BUCKETS)
        return SimulationReport(
            offered_rate=offered,
            throughput=throughput,
            avg_delay=float(statistics.fmean(delays)) if delays else 0.0,
            max_delay=max((s.max_delay for s in steady), default=0.0),
            node_throughput=node_tp,
            node_cpu=node_cpu,
            shard_throughput=shard_tp,
            shard_sizes=self.shard_sizes.copy(),
            delay_p50=quantiles["p50"],
            delay_p95=quantiles["p95"],
            delay_p99=quantiles["p99"],
        )


@dataclass(frozen=True)
class SimulationReport:
    """Steady-state summary of one simulation run.

    All the paper's write-side metrics in one place; benchmark harnesses
    print rows straight from these fields.
    """

    offered_rate: float
    throughput: float
    avg_delay: float
    max_delay: float
    node_throughput: np.ndarray
    node_cpu: np.ndarray
    shard_throughput: np.ndarray
    shard_sizes: np.ndarray
    # Per-tick write-delay quantiles over the steady window, computed with
    # the same bucketed-histogram math as repro.telemetry histograms.
    delay_p50: float = 0.0
    delay_p95: float = 0.0
    delay_p99: float = 0.0

    @property
    def node_throughput_std(self) -> float:
        """Stddev of per-node throughput (Figure 12a)."""
        return float(np.std(self.node_throughput))

    @property
    def shard_throughput_std(self) -> float:
        """Stddev of per-shard throughput (Figure 12b)."""
        return float(np.std(self.shard_throughput))

    @property
    def avg_cpu(self) -> float:
        """Mean CPU utilization across nodes (Figure 15b)."""
        return float(np.mean(self.node_cpu))

    @property
    def shard_size_ratio(self) -> float:
        """Largest/smallest non-empty shard size (Figure 13d's 100x vs 16x
        vs 13x comparison)."""
        nonzero = self.shard_sizes[self.shard_sizes > 0]
        if nonzero.size == 0:
            return 1.0
        return float(nonzero.max() / nonzero.min())
