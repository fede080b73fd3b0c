"""The routing-aware write client (§3.1).

Three techniques accelerate writing and contain hotspots:

* **One-hop routing** — the client knows the routing policy, so a write goes
  directly to its worker (write client → worker) instead of bouncing through
  a round-robin coordinator (two hops).
* **Hotspot isolation** — workloads are buffered in a queue before batch
  dispatch; workloads of detected hotspot tenants move to a separate queue
  so a blocked hotspot never stalls everyone else's writes.
* **Workload batching** — when the same row is modified repeatedly in a
  short window, the client coalesces the modifications and materializes
  only the final state, eliminating repeated writes.
"""

from __future__ import annotations

import enum
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError, TenantThrottledError
from repro.routing import RoutingPolicy
from repro.telemetry.metrics import exponential_buckets
from repro.telemetry.runtime import NULL_TELEMETRY


class BatchDecision(enum.Enum):
    """What the client did with one submitted write."""

    QUEUED = "queued"  # appended to the main queue
    ISOLATED = "isolated"  # appended to the hotspot queue
    COALESCED = "coalesced"  # merged into a pending write for the same row


@dataclass(frozen=True)
class WriteClientConfig:
    """Write-client tuning.

    Attributes:
        batch_size: maximum writes dispatched to one worker per flush.
        coalesce_window: pending writes to the same row id within the queue
            are merged (the "frequently modified row" batching).
        dispatch_retries: extra dispatch attempts per batch after the first
            fails (bounded retry with exponential backoff).
        backoff_base_seconds: backoff before retry ``n`` is
            ``base * 2**(n-1)`` seconds; 0 disables sleeping (tests).
    """

    batch_size: int = 128
    coalesce_window: int = 1024
    dispatch_retries: int = 3
    backoff_base_seconds: float = 0.005

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.dispatch_retries < 0:
            raise ConfigurationError("dispatch_retries must be >= 0")
        if self.backoff_base_seconds < 0:
            raise ConfigurationError("backoff_base_seconds must be >= 0")


@dataclass
class PendingWrite:
    """One queued write: target shard plus the document source."""

    tenant_id: object
    doc_id: object
    shard_id: int
    source: dict
    created_time: float
    coalesce_count: int = 1


class WriteClient:
    """Buffers, coalesces and dispatches writes with one-hop routing.

    Dispatch is performed through a caller-supplied ``dispatch`` callable
    ``(shard_id, [sources]) -> None`` so the client is reusable against the
    real engine facade, the simulator, or a test double.
    """

    def __init__(
        self,
        policy: RoutingPolicy,
        dispatch: Callable[[int, list], None],
        config: WriteClientConfig | None = None,
        telemetry=None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.policy = policy
        self.dispatch = dispatch
        self.config = config or WriteClientConfig()
        self._sleep = sleep if sleep is not None else time.sleep
        self._main_queue: OrderedDict = OrderedDict()
        self._hotspot_queue: OrderedDict = OrderedDict()
        self._hotspots: set = set()
        self.dead_letters: list[PendingWrite] = []
        self.stats = {
            "queued": 0,
            "isolated": 0,
            "coalesced": 0,
            "dispatched": 0,
            "throttled": 0,
        }
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        metrics = self.telemetry.metrics
        self._decision_counters = {
            BatchDecision.QUEUED: metrics.counter(
                "write_client_decisions_total", decision="queued"
            ),
            BatchDecision.ISOLATED: metrics.counter(
                "write_client_decisions_total", decision="isolated"
            ),
            BatchDecision.COALESCED: metrics.counter(
                "write_client_decisions_total", decision="coalesced"
            ),
        }
        self._dispatched_counter = metrics.counter("write_client_dispatched_total")
        self._retry_counter = metrics.counter("write_client_retries_total")
        self._dead_letter_counter = metrics.counter("write_client_dead_letters_total")
        self._throttled_counter = metrics.counter("write_client_throttled_total")
        self._batch_histogram = metrics.histogram(
            "write_client_batch_size", buckets=exponential_buckets(1, 2, 10)
        )

    @classmethod
    def for_esdb(
        cls,
        db,
        config: WriteClientConfig | None = None,
        **kwargs,
    ) -> "WriteClient":
        """A client whose dispatch lands each shard batch through
        :meth:`ESDB.bulk_write` — one routing-and-apply pass per batch
        instead of a per-document ``db.write`` loop.

        Per-document semantics are preserved: a throttled document is
        re-raised as its :class:`~repro.errors.TenantThrottledError`
        (admission backpressure, handled by the flush machinery), any
        other per-document failure re-raises so the client's bounded
        retry / dead-letter path engages.
        """

        def dispatch(shard_id: int, sources: list) -> None:
            result = db.bulk_write(sources)
            for item in result.items:
                if not item.ok:
                    raise item.error

        kwargs.setdefault("telemetry", db.telemetry)
        return cls(db.policy, dispatch, config, **kwargs)

    # -- hotspot management ----------------------------------------------------
    def mark_hotspot(self, tenant_id: object) -> None:
        """Isolate future writes of *tenant_id* into the hotspot queue."""
        self._hotspots.add(tenant_id)

    # -- submission ------------------------------------------------------------
    def submit(
        self,
        source: Mapping[str, Any],
        tenant_field: str = "tenant_id",
        id_field: str = "transaction_id",
        time_field: str = "created_time",
    ) -> BatchDecision:
        """Submit one write; returns what happened to it."""
        tenant_id = source[tenant_field]
        doc_id = source[id_field]
        created_time = float(source.get(time_field, 0.0))
        queue = self._hotspot_queue if tenant_id in self._hotspots else self._main_queue

        key = (tenant_id, doc_id)
        pending = queue.get(key)
        if pending is None:
            # The tenant's hotspot status may have flipped since the row was
            # first buffered, leaving its pending write in the *other* queue.
            # Checking only the current queue would enqueue a duplicate and
            # dispatch the stale pre-coalesce state later; migrate instead.
            other = (
                self._main_queue
                if queue is self._hotspot_queue
                else self._hotspot_queue
            )
            pending = other.pop(key, None)
            if pending is not None:
                queue[key] = pending
        if pending is not None:
            # Workload batching: merge into the pending write; only the
            # eventual state of the row is materialized.
            pending.source.update(source)
            pending.coalesce_count += 1
            self.stats["coalesced"] += 1
            self._decision_counters[BatchDecision.COALESCED].inc()
            return BatchDecision.COALESCED

        shard_id = self.policy.route_write(tenant_id, doc_id, created_time)
        queue[key] = PendingWrite(
            tenant_id=tenant_id,
            doc_id=doc_id,
            shard_id=shard_id,
            source=dict(source),
            created_time=created_time,
        )
        if queue is self._hotspot_queue:
            self.stats["isolated"] += 1
            decision = BatchDecision.ISOLATED
        else:
            self.stats["queued"] += 1
            decision = BatchDecision.QUEUED
        self._decision_counters[decision].inc()
        if len(queue) >= self.config.coalesce_window:
            self._flush_queue(queue)
        return decision

    # -- dispatch --------------------------------------------------------------
    def flush(self) -> int:
        """Dispatch everything; returns the number of writes sent.

        The main queue flushes first: hotspot work must never delay ordinary
        tenants (isolation), so it goes last.
        """
        sent = self._flush_queue(self._main_queue)
        sent += self._flush_queue(self._hotspot_queue)
        return sent

    def _flush_queue(self, queue: OrderedDict) -> int:
        by_shard: dict[int, list[PendingWrite]] = {}
        for pending in queue.values():
            by_shard.setdefault(pending.shard_id, []).append(pending)
        queue.clear()
        chunks = [
            (shard_id, pendings[start : start + self.config.batch_size])
            for shard_id, pendings in by_shard.items()
            for start in range(0, len(pendings), self.config.batch_size)
        ]
        sent = 0
        for index, (shard_id, batch) in enumerate(chunks):
            try:
                dispatched = self._dispatch_with_retry(shard_id, batch)
            except TenantThrottledError:
                # Admission control rejected the batch: that is backpressure,
                # not a fault. Put the throttled batch and everything not yet
                # dispatched back in the queue and surface the rejection to
                # the caller, who owns the retry_after decision.
                for _, rest in chunks[index:]:
                    for pending in rest:
                        queue[(pending.tenant_id, pending.doc_id)] = pending
                self.stats["dispatched"] += sent
                self._dispatched_counter.inc(sent)
                self.stats["throttled"] += 1
                self._throttled_counter.inc()
                raise
            if dispatched:
                self._batch_histogram.observe(len(batch))
                sent += len(batch)
        self.stats["dispatched"] += sent
        self._dispatched_counter.inc(sent)
        return sent

    def _dispatch_with_retry(self, shard_id: int, batch: list[PendingWrite]) -> bool:
        """Dispatch one batch with bounded retry + exponential backoff.

        A batch that still fails after the final attempt moves to
        :attr:`dead_letters` instead of raising, so one unreachable shard
        never wedges the flush of every other shard's work. Dead letters can
        be re-driven once the fault heals via :meth:`redrive_dead_letters`.

        :class:`~repro.errors.TenantThrottledError` is the exception: a
        throttle is a deliberate admission-control decision, so it is
        neither retried (hammering a rate limit only extends the backlog)
        nor dead-lettered (the write is not lost, the caller must back off
        for ``retry_after``) — it propagates to the caller.
        """
        sources = [pending.source for pending in batch]
        for attempt in range(1 + self.config.dispatch_retries):
            if attempt:
                self._retry_counter.inc()
                backoff = self.config.backoff_base_seconds * (2 ** (attempt - 1))
                if backoff > 0:
                    self._sleep(backoff)
            try:
                self.dispatch(shard_id, sources)
                return True
            except TenantThrottledError:
                raise
            except Exception:
                continue
        self.dead_letters.extend(batch)
        self._dead_letter_counter.inc(len(batch))
        return False

    def dead_letter_count(self) -> int:
        return len(self.dead_letters)

    def redrive_dead_letters(self) -> int:
        """Re-submit every dead letter through routing (the shard layout may
        have changed while the fault was active). Returns how many writes
        were re-queued; call :meth:`flush` afterwards to dispatch them."""
        letters, self.dead_letters = self.dead_letters, []
        for pending in letters:
            queue = (
                self._hotspot_queue
                if pending.tenant_id in self._hotspots
                else self._main_queue
            )
            key = (pending.tenant_id, pending.doc_id)
            existing = queue.get(key)
            if existing is not None:
                # A newer write for the row arrived meanwhile; fold the dead
                # letter underneath it (newer fields win).
                merged = dict(pending.source)
                merged.update(existing.source)
                existing.source = merged
                existing.coalesce_count += pending.coalesce_count
                continue
            pending.shard_id = self.policy.route_write(
                pending.tenant_id, pending.doc_id, pending.created_time
            )
            queue[key] = pending
        return len(letters)
