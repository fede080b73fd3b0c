"""The per-instance tenant governor: admission control on every hot path.

The ESDB facade owns one :class:`TenantGovernor` (when
``TenancyConfig.enabled``): its admission hook at the top of ``write`` and
of the query pipeline, and a recording consumer (:mod:`repro.consumers`)
that charges CPU and query resources and applies each balance round's skew
alerts. An operation meets four gates, in order:

1. **Quotas** — byte/operation budgets over tumbling logical-clock windows
   (indexed bytes on the write path; result-set bytes and scanned
   documents on the query path). An exhausted quota throttles immediately
   with ``budget="quota:<kind>"`` and ``retry_after`` = time to the window
   boundary.
2. **Rate** — the tenant's token bucket (writes/s or queries/s with burst
   allowance). Tokens available ⇒ admitted immediately.
3. **Backpressure** — a rate-exhausted request may *book* a future token
   by taking a slot in the shared bounded admission queue; the booking is
   released automatically once the logical clock passes the instant the
   token accrues. Bounded queue, deterministic drain.
4. **Shed** — a request whose QoS class has already filled its share of
   the queue is rejected with a structured
   :class:`~repro.errors.TenantThrottledError`. Because a demoted
   (``batch``) tenant's share is the smaller one, its backlog sheds first
   when the cluster saturates.

Everything runs on the injected logical clock — no wall time — so a
governed chaos run keeps the same-seed ⇒ same-fingerprint guarantee.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Mapping

from repro.errors import TenantThrottledError
from repro.telemetry.runtime import NULL_REGISTRY
from repro.tenancy.bucket import QuotaLedger, TokenBucket
from repro.tenancy.config import (
    CLUSTER_TENANT,
    DEMOTE_SECONDS,
    DEMOTE_SHARE,
    QUEUE_SHARES,
    TenancyConfig,
)


def doc_bytes(source: Mapping[str, Any]) -> int:
    """Deterministic size estimate of one document / result row: the sum
    of the stringified key and value lengths (the same cheap accounting
    the cache layer's byte budgets use)."""
    return sum(len(str(key)) + len(str(value)) for key, value in source.items())


class _TenantState:
    """Buckets, ledger, class and counters for one observed tenant."""

    __slots__ = (
        "qos",
        "write_bucket",
        "query_bucket",
        "ledger",
        "demoted_until",
        "admitted",
        "queued",
        "shed",
    )

    def __init__(self, config: TenancyConfig) -> None:
        self.qos = "standard"
        self.write_bucket = TokenBucket(config.write_rate, config.write_burst)
        self.query_bucket = TokenBucket(config.query_rate, config.query_burst)
        self.ledger = QuotaLedger(config.quota_window_seconds)
        self.demoted_until: float | None = None
        self.admitted = 0
        self.queued = 0
        self.shed = 0


class TenantGovernor:
    """Admission control, QoS, quotas and backpressure for one instance.

    Its governance policy (:meth:`apply_alerts`) consumes the observer's
    skew alerts and may demote abusive tenants.
    """

    def __init__(self, config: TenancyConfig, metrics=NULL_REGISTRY) -> None:
        self.config = config
        self._metrics = metrics
        self._tenants: dict[object, _TenantState] = {}
        #: Booked admission-queue slots: release times, a min-heap.
        self._queue: list[float] = []
        self.demotions: list[tuple[float, object, str]] = []
        self._counters: dict[tuple, object] = {}  # see _counter
        self._depth_gauge = metrics.gauge("tenancy_queue_depth")

    def _counter(self, name: str, **labels):
        """The labelled counter, resolved once: admission runs on every
        write and query, so the registry lookup must not be paid per op."""
        key = (name, *labels.values())
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = self._metrics.counter(name, **labels)
        return counter

    # -- tenant state --------------------------------------------------------
    def _state(self, tenant: object) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = self._tenants[tenant] = _TenantState(self.config)
        return state

    def qos_of(self, tenant: object, now: float) -> str:
        """The tenant's effective QoS class at *now* (demotions expire
        here, lazily, so no background sweep is needed). Read-only: an
        unseen tenant's class is reported without creating its state."""
        state = self._tenants.get(tenant)
        if state is None:
            return "standard"
        if state.demoted_until is not None and now >= state.demoted_until:
            state.demoted_until = None
            state.qos = "standard"
        return state.qos

    def demote(self, tenant: object, now: float, reason: str = "") -> None:
        """Drop a tenant to ``batch`` until ``now + DEMOTE_SECONDS``."""
        state = self._state(tenant)
        state.qos = "batch"
        state.demoted_until = now + DEMOTE_SECONDS
        self.demotions.append((now, tenant, reason))

    def is_demoted(self, tenant: object, now: float) -> bool:
        self.qos_of(tenant, now)  # expire a stale demotion first
        state = self._tenants.get(tenant)
        return state is not None and state.demoted_until is not None

    # -- the admission queue -------------------------------------------------
    def _drain_queue(self, now: float) -> None:
        queue = self._queue
        while queue and queue[0] <= now:
            heapq.heappop(queue)

    def queue_depth(self, now: float) -> int:
        self._drain_queue(now)
        return len(self._queue)

    # -- admission -----------------------------------------------------------
    def admit_write(self, tenant: object, now: float, size_bytes: int = 0) -> float:
        """Admit one write of *size_bytes*; returns the backpressure delay
        in logical seconds (0.0 = immediate). Raises
        :class:`TenantThrottledError` when the write must be shed."""
        state = self._state(tenant)
        qos = self.qos_of(tenant, now)
        if state.ledger.would_exceed(
            "indexed_bytes", size_bytes, self.config.indexed_bytes_quota, now
        ):
            self._shed(state, tenant, "write", "quota:indexed_bytes",
                       state.ledger.reset_in(now), qos)
        delay = self._admit(state, tenant, "write", state.write_bucket,
                            "writes_per_s", now, qos)
        state.ledger.charge("indexed_bytes", size_bytes, now)
        return delay

    def admit_document(self, tenant: object, now: float, source: Mapping[str, Any]) -> float:
        """:meth:`admit_write` for document *source*. Sizing a document
        costs a str() per field, so it is sized only when an indexed-byte
        budget consumes the size."""
        sized = self.config.indexed_bytes_quota is not None
        return self.admit_write(tenant, now, doc_bytes(source) if sized else 0)

    def admit_query(self, tenant: object | None, now: float) -> float:
        """Admit one query for *tenant* (None = cross-tenant, accounted to
        the ``*`` pseudo-tenant). Same contract as :meth:`admit_write`."""
        tenant = CLUSTER_TENANT if tenant is None else tenant
        state = self._state(tenant)
        qos = self.qos_of(tenant, now)
        for kind, quota in (
            ("result_bytes", self.config.result_bytes_quota),
            ("scanned_docs", self.config.scanned_docs_quota),
        ):
            if quota is not None and state.ledger.used(kind, now) >= quota:
                self._shed(state, tenant, "query", f"quota:{kind}",
                           state.ledger.reset_in(now), qos)
        return self._admit(state, tenant, "query", state.query_bucket,
                           "queries_per_s", now, qos)

    def charge_query(
        self, tenant: object | None, now: float, result_bytes: int = 0, scanned: int = 0
    ) -> None:
        """Record a finished query's resource usage against its quotas."""
        tenant = CLUSTER_TENANT if tenant is None else tenant
        ledger = self._state(tenant).ledger
        if result_bytes:
            ledger.charge("result_bytes", result_bytes, now)
        if scanned:
            ledger.charge("scanned_docs", scanned, now)

    def _admit(
        self,
        state: _TenantState,
        tenant: object,
        op: str,
        bucket: TokenBucket,
        rate_budget: str,
        now: float,
        qos: str,
    ) -> float:
        self._drain_queue(now)
        if bucket.acquire(now) is not None and bucket.tokens >= 0:
            self._admitted(state, op, qos, queued=False)
            return 0.0
        # Bucket empty: book a future token through the shared queue if the
        # class's share still has room, else shed.
        allowed = max(1, int(self.config.queue_capacity * QUEUE_SHARES[qos]))
        if len(self._queue) >= allowed:
            retry_after = (
                self._queue[0] - now if self._queue else bucket.wait_time(now)
            )
            self._shed(state, tenant, op, "queue", max(retry_after, 0.0), qos)
        delay = bucket.wait_time(now)
        if bucket.acquire(now, max_debt=float(allowed)) is None:
            self._shed(state, tenant, op, rate_budget, delay, qos)
        heapq.heappush(self._queue, now + delay)
        self._admitted(state, op, qos, queued=True)
        return delay

    def _admitted(self, state: _TenantState, op: str, qos: str, queued: bool) -> None:
        state.admitted += 1
        self._counter("tenancy_admitted_total", op=op, qos=qos).inc()
        if queued:
            state.queued += 1
            self._counter("tenancy_queued_total", op=op).inc()
        self._depth_gauge.set(len(self._queue))

    def _shed(
        self,
        state: _TenantState,
        tenant: object,
        op: str,
        budget: str,
        retry_after: float,
        qos: str,
    ) -> None:
        state.shed += 1
        self._counter("tenancy_shed_total", op=op, budget=budget).inc()
        self._depth_gauge.set(len(self._queue))
        raise TenantThrottledError(tenant, op, budget, retry_after, qos)

    # -- the governance policy ----------------------------------------------
    def apply_alerts(self, alerts: Iterable, now: float) -> list[object]:
        """Close the loop on skew alerts: a ``hot_tenant`` alert whose
        window share reaches :data:`~repro.tenancy.config.DEMOTE_SHARE`
        demotes its tenant to ``batch`` for ``DEMOTE_SECONDS`` — its backlog
        then sheds first under saturation while well-behaved tenants keep
        their priority. Returns the tenants demoted (an already-demoted
        tenant is not re-demoted, its window just restarts)."""
        demoted: list[object] = []
        for alert in alerts:
            share = float(alert.measurement.get("share", 0.0))
            if alert.kind != "hot_tenant" or share < DEMOTE_SHARE:
                continue
            already = self.is_demoted(alert.subject, now)
            self.demote(alert.subject, now, reason=f"hot_tenant share={share:.2f}")
            if not already:
                demoted.append(alert.subject)
        return demoted

    # -- the facade's recording consumer -------------------------------------
    def on_writes(self, batch) -> None:
        """Account each shard batch's engine time, where the work ran."""
        for _, elapsed, _ in batch.shards:
            self._counter("tenancy_cpu_seconds_total", op=batch.op).inc(elapsed)

    def on_query(self, query) -> None:
        if query.result is None:
            return
        # Summing row sizes costs a str() per field; only pay it when a
        # result-byte budget actually consumes the number.
        sized = self.config.result_bytes_quota is not None
        rows = query.result.rows if sized else ()
        self.charge_query(
            query.tenant, query.now, sum(doc_bytes(row) for row in rows), query.scanned
        )

    def on_round(self, balance) -> None:
        for tenant in self.apply_alerts(balance.alerts, balance.now):
            balance.emit("demotion", tenant=tenant, ctx=balance.ctx)

    # -- introspection -------------------------------------------------------
    def tenant_counts(self, tenant: object) -> tuple[int, int, int]:
        """(admitted, queued, shed) for one tenant (zeros when unseen)."""
        state = self._tenants.get(tenant)
        return (state.admitted, state.queued, state.shed) if state else (0, 0, 0)

    def snapshot(self, now: float) -> dict:
        """Totals, queue, demotions and one row per governed tenant,
        busiest (most admitted + shed) first."""
        ranked = sorted(
            self._tenants.items(),
            key=lambda item: (-(item[1].admitted + item[1].shed), str(item[0])),
        )
        states = self._tenants.values()
        return {
            "totals": {
                "tenants": len(self._tenants),
                "admitted": sum(s.admitted for s in states),
                "queued": sum(s.queued for s in states),
                "shed": sum(s.shed for s in states),
                "demotions": len(self.demotions),
            },
            "queue_depth": self.queue_depth(now),
            "queue_capacity": self.config.queue_capacity,
            "tenants": [
                {
                    "tenant": str(tenant),
                    "qos": self.qos_of(tenant, now),
                    "admitted": state.admitted,
                    "queued": state.queued,
                    "shed": state.shed,
                    "demoted": state.demoted_until is not None,
                }
                for tenant, state in ranked
            ],
            "demotions": [
                {"time": at, "tenant": str(tenant), "reason": reason}
                for at, tenant, reason in self.demotions
            ],
        }


def cat_tenant_governance(source, k: int | None = None):
    """``_cat``-style governance table over a snapshot dict or a live
    instance: one row per governed tenant with its QoS class and
    admit/queue/shed counters, busiest first. Empty, well-formed table
    when the instance has no governor."""
    from repro.obsv.cat import CatTable
    from repro.obsv.snapshot import read_tenancy

    tenancy = (
        source["cluster"].get("tenancy")
        if isinstance(source, dict)
        else read_tenancy(source)
    )
    columns = ("tenant", "qos", "admitted", "queued", "shed", "demoted")
    rows = [
        {**row, "demoted": "yes" if row["demoted"] else "no"}
        for row in (tenancy["tenants"] if tenancy is not None else [])[:k]
    ]
    return CatTable.from_dicts("tenancy", columns, rows)
