"""The per-instance Observer: slow logs + skew windows + alerts in one box.

The ESDB facade owns one Observer (when ``ObsvConfig.enabled``); its write
and query paths feed the slow logs after each operation's span closes. The
observer counts no load of its own: whenever the workload monitor closes a
window — mid-stream or at ``ESDB.rebalance`` — the facade calls
:meth:`Observer.roll`, which derives that window's skew statistics and
alerts, so an alert and the rule it triggers share one measurement. Alerts
and slow-log volumes are mirrored into the telemetry registry (``obsv_*``
series) so they travel with metric exports.
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
    WindowStats,
    annotation_reason,
    detect_alerts,
    rule_measurement,
    summarize_windows,
    window_stats,
)
from repro.obsv.slowlog import SlowLog

if TYPE_CHECKING:
    from repro.balancer.monitor import WorkloadMonitor
    from repro.obsv.slowlog import SlowLogEntry
    from repro.routing.rules import RuleList
    from repro.telemetry import Span


class Observer:
    """Live introspection state for one database instance."""

    def __init__(
        self,
        monitor: "WorkloadMonitor",
        num_shards: int,
        config: ObsvConfig | None = None,
        metrics=None,
    ) -> None:
        self.config = config or ObsvConfig()
        self.monitor = monitor
        self.num_shards = num_shards
        #: Statistics of the monitor's closed windows, one per window, in
        #: order (the monitor's retention).
        self.windows: deque = deque(maxlen=monitor.windows.maxlen)
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
        #: Alerts raised by the most recent :meth:`roll` — the batch the
        #: facade hands to the tenant governor's governance policy.
        self.last_alerts: list = []
        #: Optional alert attribution callback ``alert -> dict``: extra
        #: measurement entries merged into every fired alert (the facade
        #: installs the heavy-hitter profiler here, upgrading "tenant X is
        #: hot" to "tenant X is hot *because of these keys and queries*").
        self.attributor = None
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
        if entry is not None and self._metrics is not None:
            self._metrics.counter(
                "obsv_slowlog_entries_total", log=entry.log, level=entry.level
            ).inc()
        return entry

    # -- windows and alerts ------------------------------------------------
    def roll(self) -> WindowStats:
        """Derive the statistics of the window the monitor just closed and
        run hot-spot detection on them."""
        stats = window_stats(self.monitor.windows[-1], self.num_shards)
        self.windows.append(stats)
        fresh = detect_alerts(
            stats,
            hot_tenant_share=HOT_TENANT_SHARE,
            hot_shard_ratio=HOT_SHARD_RATIO,
        )
        self.last_alerts = list(fresh)
        for alert in fresh:
            if self.attributor is not None:
                # Alert is frozen but its measurement dict is shared state
                # by design: attribution enriches it in place.
                alert.measurement.update(self.attributor(alert))
            self.alerts.append(alert)
            if self._metrics is not None:
                self._metrics.counter("obsv_alerts_total", kind=alert.kind).inc()
        return stats

    # -- rule annotations --------------------------------------------------
    def annotate_committed(
        self,
        rules: "RuleList",
        tenant: object,
        offset: int,
        effective_time: float,
    ) -> None:
        """Annotate a freshly committed rule with the window measurement
        that triggered it ("why did L(k1) grow"): the window the
        rebalance round closed."""
        measurement = rule_measurement(self.windows[-1], tenant)
        rules.annotate(
            effective_time,
            offset,
            tenant,
            reason=annotation_reason(tenant, offset, measurement),
            measurement=measurement or {},
        )

    # -- snapshot -----------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready dump of everything the observer holds."""
        return {
            "slowlog": {
                "index": [e.to_dict() for e in self.index_slowlog.tail(20)],
                "search": [e.to_dict() for e in self.search_slowlog.tail(20)],
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
