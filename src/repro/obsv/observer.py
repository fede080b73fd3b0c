"""The per-instance Observer: slow logs + skew windows + alerts in one box.

The ESDB facade owns one Observer (when ``ObsvConfig.enabled``), one of its
recording consumers (:mod:`repro.consumers`): each write batch and query
feeds the slow logs after its span closes. The observer counts no load of
its own: every window the workload monitor closed — mid-stream or at
``ESDB.rebalance`` — is rolled once, oldest first (:meth:`Observer.roll`),
deriving that window's skew statistics and alerts, so an alert and the
rule it triggers share one measurement. Alerts and slow-log volumes are
mirrored into the telemetry registry (``obsv_*`` series) so they travel
with metric exports.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.obsv.config import (
    HOT_SHARD_RATIO,
    HOT_TENANT_SHARE,
    INDEX_WARN_SECONDS,
    MAX_ALERTS,
    SEARCH_WARN_SECONDS,
    ObsvConfig,
)
from repro.obsv.skew import (
    annotation_reason,
    detect_alerts,
    rule_measurement,
    summarize_windows,
    window_stats,
)
from repro.obsv.slowlog import SlowLog
from repro.telemetry.runtime import NULL_REGISTRY

#: Newest entries of each slow log a snapshot retains.
SNAPSHOT_SLOWLOG_TAIL = 20

if TYPE_CHECKING:
    from repro.balancer.monitor import WorkloadMonitor
    from repro.obsv.slowlog import SlowLogEntry
    from repro.telemetry import Span


class Observer:
    """Live introspection state for one database instance."""

    def __init__(
        self,
        monitor: "WorkloadMonitor",
        num_shards: int,
        config: ObsvConfig | None = None,
        metrics=NULL_REGISTRY,
    ) -> None:
        self.config = config or ObsvConfig()
        self.monitor = monitor
        self.num_shards = num_shards
        #: Statistics of the monitor's closed windows, one per window, in
        #: order (the monitor's retention).
        self.windows: deque = deque(maxlen=monitor.windows.maxlen)
        #: The monitor's closed-window count this observer has rolled up to.
        self._rolled = monitor.closed
        self.index_slowlog = SlowLog(
            "index",
            warn_seconds=INDEX_WARN_SECONDS,
            info_seconds=self.config.index_info_seconds,
        )
        self.search_slowlog = SlowLog(
            "search",
            warn_seconds=SEARCH_WARN_SECONDS,
            info_seconds=self.config.search_info_seconds,
        )
        self.alerts: deque = deque(maxlen=MAX_ALERTS)
        #: Alerts raised since the previous balance round: what the round
        #: hands to the tenant governor's governance policy.
        self.unclaimed_alerts: deque = deque(maxlen=MAX_ALERTS)
        #: Alert attribution callback ``alert -> dict``: extra measurement
        #: entries merged into every fired alert (the facade installs the
        #: heavy-hitter profiler here when SLOs are on, upgrading "tenant X
        #: is hot" to "tenant X is hot *because of these keys and queries*").
        self.attributor = lambda alert: {}
        self._metrics = metrics

    # -- recording ---------------------------------------------------------
    def record_write(
        self,
        tenant: object,
        shard: int,
        elapsed: float,
        now: float,
        trace: "Span | None" = None,
    ) -> "SlowLogEntry | None":
        """Feed one applied write into the index slow log: *trace* is the
        operation's root span, and an entry keeps it with its trace id.
        Returns the slow-log entry when the write crossed a threshold."""
        return self._count(
            self.index_slowlog.record(now, elapsed, tenant, shard, "write", trace)
        )

    def record_search(
        self,
        tenant: object | None,
        elapsed: float,
        now: float,
        detail: str = "",
        trace: "Span | None" = None,
    ) -> "SlowLogEntry | None":
        """Feed one executed query (*detail* is its SQL text) into the
        search slow log. Returns the slow-log entry when the query crossed a
        threshold — the facade turns it into a ``slow_query`` event."""
        return self._count(
            self.search_slowlog.record(now, elapsed, tenant, None, detail, trace)
        )

    def _count(self, entry: "SlowLogEntry | None") -> "SlowLogEntry | None":
        if entry is not None:
            self._metrics.counter(
                "obsv_slowlog_entries_total", log=entry.log, level=entry.level
            ).inc()
        return entry

    # -- windows and alerts ------------------------------------------------
    def roll(self) -> None:
        """Derive the statistics of the oldest window the monitor closed
        that this observer has not rolled yet, and run hot-spot detection
        on them."""
        monitor = self.monitor
        stats = window_stats(monitor.windows[self._rolled - monitor.closed], self.num_shards)
        self._rolled += 1
        self.windows.append(stats)
        fresh = detect_alerts(
            stats,
            hot_tenant_share=HOT_TENANT_SHARE,
            hot_shard_ratio=HOT_SHARD_RATIO,
        )
        for alert in fresh:
            # Alert is frozen but its measurement dict is shared state by
            # design: attribution enriches it in place.
            alert.measurement.update(self.attributor(alert))
            self.alerts.append(alert)
            self.unclaimed_alerts.append(alert)
            self._metrics.counter("obsv_alerts_total", kind=alert.kind).inc()

    def _catch_up(self) -> None:
        """Roll every window the monitor closed since the last roll (one
        write batch can close several), skipping any it already evicted."""
        monitor = self.monitor
        self._rolled = max(self._rolled, monitor.closed - len(monitor.windows))
        while self._rolled < monitor.closed:
            self.roll()

    # -- the facade's recording consumer -------------------------------------
    def on_writes(self, batch) -> None:
        """Roll the windows the batch closed — before the profiler records
        the batch, which attribution reads — then log each applied write."""
        if self._rolled < self.monitor.closed:
            self._catch_up()
        tenants = batch.tenants
        for item in batch.applied:
            self.record_write(
                tenants[item.position], item.shard_id, batch.per_doc, batch.now, batch.span
            )

    def on_query(self, query) -> None:
        """Log an executed query; an entry is a ``slow_query`` event."""
        if query.result is None:
            return
        entry = self.record_search(
            query.tenant, query.root.duration, query.now, query.sql, query.root
        )
        if entry is not None:
            query.emit(
                "slow_query", tenant=entry.tenant, ctx=query.ctx,
                level=entry.level, elapsed=entry.elapsed,
            )

    def on_round(self, balance) -> None:
        """Roll the round's window; annotate each rule it committed with
        that window's measurement ("why did L(k1) grow"); hand the round
        every alert raised since the previous one."""
        self._catch_up()
        for tenant, offset, effective_time in balance.committed:
            measurement = rule_measurement(self.windows[-1], tenant)
            balance.rules.annotate(
                effective_time, offset, tenant,
                reason=annotation_reason(tenant, offset, measurement),
                measurement=measurement or {},
            )
        balance.alerts.extend(self.unclaimed_alerts)
        self.unclaimed_alerts.clear()

    # -- snapshot -----------------------------------------------------------
    def slow_traces(self) -> list["Span"]:
        """The span trees of the slow-log entries :meth:`snapshot` retains
        (an entry carries only its ``trace_id``)."""
        return [
            entry.trace
            for log in (self.index_slowlog, self.search_slowlog)
            for entry in log.tail(SNAPSHOT_SLOWLOG_TAIL)
            if entry.trace is not None
        ]

    def snapshot(self) -> dict:
        """JSON-ready dump of everything the observer holds."""
        return {
            "slowlog": {
                "index": [e.to_dict() for e in self.index_slowlog.tail(SNAPSHOT_SLOWLOG_TAIL)],
                "search": [e.to_dict() for e in self.search_slowlog.tail(SNAPSHOT_SLOWLOG_TAIL)],
                "counts": {
                    "index": dict(self.index_slowlog.counts),
                    "search": dict(self.search_slowlog.counts),
                },
            },
            "skew": {
                "summary": summarize_windows(self.windows),
                "windows": [w.to_dict() for w in self.windows],
            },
            "alerts": [a.to_dict() for a in self.alerts],
        }
