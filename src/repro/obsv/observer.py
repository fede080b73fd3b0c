"""The per-instance Observer: slow logs + skew windows + alerts in one box.

The ESDB facade owns one Observer (when ``ObsvConfig.enabled``); its write
and query paths feed it after each operation's span closes, and
``ESDB.rebalance`` rolls its skew window in lockstep with the workload
monitor so every closed window corresponds to exactly one balancing
decision. Alerts and slow-log volumes are mirrored into the telemetry
registry (``obsv_*`` series) so they travel with metric exports.
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
    SkewWindow,
    WindowStats,
    annotation_reason,
    detect_alerts,
    rule_measurement,
    summarize_windows,
)
from repro.obsv.slowlog import SlowLog

if TYPE_CHECKING:
    from repro.obsv.slowlog import SlowLogEntry
    from repro.routing.rules import RuleList
    from repro.telemetry import Span


class Observer:
    """Live introspection state for one database instance."""

    def __init__(
        self,
        config: ObsvConfig | None = None,
        num_shards: int = 1,
        metrics=None,
        window_seconds: float = 10.0,
    ) -> None:
        self.config = config or ObsvConfig()
        self.skew = SkewWindow(num_shards, window_seconds=window_seconds)
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
        trace_id: str | None = None,
    ) -> "SlowLogEntry | None":
        """Feed one routed write: skew accounting + index slow log.
        Returns the slow-log entry when the write crossed a threshold.

        Rolls the skew window first when *now* crossed its boundary — the
        workload monitor does the same with identical window length, so
        both always close windows at the same instant.
        """
        if self.skew.due(now):
            self.roll(now)
        self.skew.record(tenant, shard)
        entry = self.index_slowlog.record(
            time=now,
            elapsed=elapsed,
            tenant=tenant,
            shard=shard,
            detail=f"write shard={shard}",
            trace=trace,
            trace_id=trace_id,
        )
        if entry is not None and self._metrics is not None:
            self._metrics.counter(
                "obsv_slowlog_entries_total", log="index", level=entry.level
            ).inc()
        return entry

    def record_search(
        self,
        tenant: object | None,
        elapsed: float,
        now: float,
        detail: str = "",
        trace: "Span | None" = None,
        trace_id: str | None = None,
    ) -> "SlowLogEntry | None":
        """Feed one executed query into the search slow log. Returns the
        slow-log entry when the query crossed a threshold — the facade
        turns it into a ``slow_query`` event."""
        entry = self.search_slowlog.record(
            time=now,
            elapsed=elapsed,
            tenant=tenant,
            detail=detail,
            trace=trace,
            trace_id=trace_id,
        )
        if entry is not None and self._metrics is not None:
            self._metrics.counter(
                "obsv_slowlog_entries_total", log="search", level=entry.level
            ).inc()
        return entry

    # -- windows and alerts ------------------------------------------------
    def roll(self, now: float) -> WindowStats:
        """Close the open skew window and run hot-spot detection on it."""
        stats = self.skew.roll(now)
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
        that triggered it ("why did L(k1) grow")."""
        measurement = rule_measurement(self.skew.last(), tenant)
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
                "summary": summarize_windows(self.skew.windows),
                "windows": [w.to_dict() for w in self.skew.windows],
                "open_window_writes": self.skew.current_writes,
            },
            "alerts": [a.to_dict() for a in self.alerts],
        }
