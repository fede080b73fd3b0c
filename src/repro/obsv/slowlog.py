"""Index and search slow logs (the Elasticsearch operator surface).

A :class:`SlowLog` keeps the last N operations that crossed a latency
threshold in a bounded ring buffer. Each entry records who (tenant), where
(shard), how long (elapsed seconds), what (a detail string — the SQL text
or a document id) and, when tracing is enabled, the full span tree of the
operation — so a slow query's per-stage breakdown is one ``tail()`` away
instead of a re-run with ``explain_analyze``.

Levels follow the ES convention: an operation logs at ``warn`` when it
meets the warn threshold, else at ``info`` when it meets the info
threshold, else not at all. ``math.inf`` mutes a level.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.telemetry import Span

#: Detail strings are clipped so a pathological SQL text cannot bloat the log.
MAX_DETAIL_CHARS = 160


@dataclass(frozen=True)
class SlowLogEntry:
    """One slow operation."""

    log: str  # "index" | "search"
    level: str  # "warn" | "info"
    time: float  # instance clock at record time
    elapsed: float  # seconds the operation took
    tenant: str | None
    shard: int | None
    detail: str
    trace: "Span | None"  # span tree of the operation, when traced
    trace_id: str | None = None  # distributed trace id, when tracing is on

    def describe(self) -> str:
        where = []
        if self.tenant is not None:
            where.append(f"tenant={self.tenant}")
        if self.shard is not None:
            where.append(f"shard={self.shard}")
        location = f" {' '.join(where)}" if where else ""
        suffix = f" trace={self.trace_id}" if self.trace_id is not None else ""
        return (
            f"[{self.level}] {self.log} {self.elapsed * 1e3:.3f}ms"
            f"{location} :: {self.detail}{suffix}"
        )

    def to_dict(self) -> dict:
        out = {
            "log": self.log,
            "level": self.level,
            "time": self.time,
            "elapsed": self.elapsed,
            "tenant": self.tenant,
            "shard": self.shard,
            "detail": self.detail,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        return out


class SlowLog:
    """A bounded ring buffer of :class:`SlowLogEntry` with level thresholds."""

    def __init__(
        self,
        log: str,
        warn_seconds: float,
        info_seconds: float,
        capacity: int = 128,
    ) -> None:
        if warn_seconds < info_seconds:
            raise ConfigurationError("warn threshold must be >= info threshold")
        if capacity < 1:
            raise ConfigurationError("slow log capacity must be >= 1")
        self.log = log
        self.warn_seconds = warn_seconds
        self.info_seconds = info_seconds
        self.entries: deque = deque(maxlen=capacity)
        #: Monotone per-level totals — survive ring-buffer eviction.
        self.counts: dict[str, int] = {"warn": 0, "info": 0}

    def level_for(self, elapsed: float) -> str | None:
        """The level *elapsed* seconds logs at, or None (fast enough)."""
        if elapsed >= self.warn_seconds:
            return "warn"
        if elapsed >= self.info_seconds:
            return "info"
        return None

    def record(
        self,
        time: float,
        elapsed: float,
        tenant: object | None = None,
        shard: int | None = None,
        detail: str = "",
        trace: "Span | None" = None,
    ) -> SlowLogEntry | None:
        """Record one operation; returns the entry, or None below threshold.
        The entry's text is *detail*, stripped, then `` shard=N`` when the
        operation names a shard; its trace id is read off *trace*, the
        operation's root. Nothing is formatted below threshold."""
        level = self.level_for(elapsed)
        if level is None:
            return None
        text = str(detail).strip()
        if shard is not None:
            text = f"{text} shard={shard}"
        entry = SlowLogEntry(
            log=self.log,
            level=level,
            time=time,
            elapsed=elapsed,
            tenant=str(tenant) if tenant is not None else None,
            shard=shard,
            detail=text[:MAX_DETAIL_CHARS],
            trace=trace,
            trace_id=trace.trace_id if trace is not None else None,
        )
        self.entries.append(entry)
        self.counts[level] += 1
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    def tail(self, n: int = 10) -> list[SlowLogEntry]:
        """The most recent *n* entries, oldest first."""
        entries = list(self.entries)
        return entries[-n:] if n < len(entries) else entries
