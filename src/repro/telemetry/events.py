"""Structured event log: a bounded ring of typed operational events.

Metrics say *how much*, traces say *where the time went*, and this log
says *what happened*: every discrete operational decision the cluster
makes — a tenant throttled, a write shed, a QoS demotion, a fault
injected or recovered, a replica promoted, a query crossing the slow
threshold, a rule-list commit — lands here as a typed, timestamped,
trace-stamped event. The ring is bounded (old events fall off) but the
per-kind counters are monotone, so rates survive eviction.

Events are emitted in the order the instance makes its decisions, so for
a seeded workload the sequence of (kind, tenant, shard) tuples is
identical from run to run — the same determinism contract the chaos
fingerprints pin.
"""

from __future__ import annotations

import threading
from collections import deque

from repro.errors import ConfigurationError

#: Every event kind the system emits, in one place so consumers
#: (dashboard, cat_events, bundle schema) can validate against it.
EVENT_KINDS = (
    "throttle",
    "shed",
    "demotion",
    "fault_inject",
    "fault_recover",
    "promotion",
    "slow_query",
    "rule_commit",
    "slo_burn",
    "slo_recovered",
)


class Event:
    """One operational event: what happened, to whom, under which trace."""

    __slots__ = ("seq", "time", "kind", "tenant", "shard", "trace_id", "detail")

    def __init__(
        self,
        seq: int,
        time: float,
        kind: str,
        tenant: str | None = None,
        shard: int | None = None,
        trace_id: str | None = None,
        detail: dict | None = None,
    ) -> None:
        self.seq = seq
        self.time = time
        self.kind = kind
        self.tenant = tenant
        self.shard = shard
        self.trace_id = trace_id
        self.detail = detail or {}

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
            "tenant": self.tenant,
            "shard": self.shard,
            "trace_id": self.trace_id,
            "detail": dict(self.detail),
        }

    def describe(self) -> str:
        parts = [f"#{self.seq}", self.kind]
        if self.tenant is not None:
            parts.append(f"tenant={self.tenant}")
        if self.shard is not None:
            parts.append(f"shard={self.shard}")
        if self.trace_id is not None:
            parts.append(f"trace={self.trace_id}")
        if self.detail:
            flat = ",".join(
                f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(self.detail.items())
            )
            parts.append(flat)
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.describe()})"


class EventLog:
    """Bounded, thread-safe ring of :class:`Event` with monotone counters."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ConfigurationError("event log capacity must be >= 1")
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)
        self._counts: dict[str, int] = {}
        self._seq = 0
        self._lock = threading.Lock()

    def emit(
        self,
        kind: str,
        time: float,
        tenant: str | None = None,
        shard: int | None = None,
        trace_id: str | None = None,
        **detail,
    ) -> Event:
        """Append one event; returns it (mostly for tests)."""
        if kind not in EVENT_KINDS:
            raise ConfigurationError(
                f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}"
            )
        with self._lock:
            seq = self._seq
            self._seq += 1
            event = Event(
                seq, time, kind, tenant=tenant, shard=shard,
                trace_id=trace_id, detail=detail,
            )
            self._events.append(event)
            self._counts[kind] = self._counts.get(kind, 0) + 1
        return event

    def query(
        self,
        kind: str | None = None,
        tenant: str | None = None,
        trace_id: str | None = None,
        limit: int | None = None,
    ) -> list[Event]:
        """Events still in the ring matching every given filter, oldest
        first; *limit* keeps only the most recent matches."""
        with self._lock:
            events = list(self._events)
        matched = [
            event
            for event in events
            if (kind is None or event.kind == kind)
            and (tenant is None or event.tenant == tenant)
            and (trace_id is None or event.trace_id == trace_id)
        ]
        if limit is not None and limit >= 0:
            matched = matched[-limit:]
        return matched

    def tail(self, n: int = 10) -> list[Event]:
        """The n most recent events, oldest first."""
        with self._lock:
            events = list(self._events)
        return events[-n:] if n >= 0 else events

    def counts(self) -> dict[str, int]:
        """Monotone totals per kind since startup (survive ring eviction)."""
        with self._lock:
            return dict(self._counts)

    def to_dicts(self, limit: int | None = None) -> list[dict]:
        return [event.to_dict() for event in self.query(limit=limit)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def total(self) -> int:
        """Events ever emitted (including those evicted from the ring)."""
        with self._lock:
            return self._seq
