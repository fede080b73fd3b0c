"""The per-instance tenant governor: admission control on every hot path.

The ESDB facade owns one :class:`TenantGovernor` (when
``TenancyConfig.enabled``) and consults it at the top of ``write`` and of
the query pipeline. An operation meets four gates, in order:

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
   :class:`~repro.errors.TenantThrottledError`. Because class shares
   shrink with priority (batch < standard < interactive), low-priority
   backlog sheds first and interactive tenants are still admitted when
   the cluster saturates.

Everything runs on the injected logical clock — no wall time — so a
governed chaos run keeps the same-seed ⇒ same-fingerprint guarantee.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Mapping

from repro.errors import TenantThrottledError
from repro.tenancy.bucket import QuotaLedger, TokenBucket
from repro.tenancy.config import CLUSTER_TENANT, QOS_CLASSES, TenancyConfig


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
        "cpu_seconds",
    )

    def __init__(self, config: TenancyConfig, qos: str) -> None:
        self.qos = qos
        self.write_bucket = TokenBucket(config.write_rate, config.write_burst)
        self.query_bucket = TokenBucket(config.query_rate, config.query_burst)
        self.ledger = QuotaLedger(config.quota_window_seconds)
        self.demoted_until: float | None = None
        self.admitted = 0
        self.queued = 0
        self.shed = 0
        self.cpu_seconds = 0.0


class TenantGovernor:
    """Admission control, QoS, quotas and backpressure for one instance.

    The *policy* hook (default :class:`~repro.tenancy.policy.
    GovernancePolicy`) consumes the observer's skew alerts via
    :meth:`apply_alerts` and may demote abusive tenants; a custom policy
    object only needs an ``on_alerts(governor, alerts, now)`` method.
    """

    def __init__(self, config: TenancyConfig, metrics=None, policy=None) -> None:
        from repro.tenancy.policy import GovernancePolicy

        self.config = config
        self.policy = policy if policy is not None else GovernancePolicy(config)
        self._metrics = metrics
        self._tenants: dict[object, _TenantState] = {}
        self._static_qos = dict(config.tenant_qos)
        #: Booked admission-queue slots: release times, a min-heap.
        self._queue: list[float] = []
        self.demotions: list[tuple[float, object, str]] = []
        # Labelled counter handles, resolved once: admission runs on every
        # write and query, so the registry lookup must not be paid per op.
        self._admit_counters: dict[tuple, object] = {}
        self._queued_counters: dict[str, object] = {}
        self._shed_counters: dict[tuple, object] = {}
        self._depth_gauge = metrics.gauge("tenancy_queue_depth") if metrics else None
        if metrics is not None:
            metrics.set_help(
                "tenancy_admitted_total",
                "Operations admitted by tenant governance, by op and qos",
            )
            metrics.set_help(
                "tenancy_queued_total",
                "Admitted operations that booked a backpressure queue slot",
            )
            metrics.set_help(
                "tenancy_shed_total",
                "Operations rejected by tenant governance, by op and budget",
            )
            metrics.set_help(
                "tenancy_queue_depth", "Booked admission-queue slots right now"
            )

    # -- tenant state --------------------------------------------------------
    def _state(self, tenant: object) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            qos = self._static_qos.get(tenant, self.config.default_qos)
            state = _TenantState(self.config, qos)
            self._tenants[tenant] = state
        return state

    def qos_of(self, tenant: object, now: float) -> str:
        """The tenant's effective QoS class at *now* (demotions expire
        here, lazily, so no background sweep is needed). Read-only: an
        unseen tenant's class is reported without creating its state."""
        state = self._tenants.get(tenant)
        if state is None:
            return self._static_qos.get(tenant, self.config.default_qos)
        if state.demoted_until is not None and now >= state.demoted_until:
            state.demoted_until = None
            state.qos = self._static_qos.get(tenant, self.config.default_qos)
        return state.qos

    def set_qos(self, tenant: object, qos: str) -> None:
        """Pin a tenant's class at runtime (clears any active demotion)."""
        if qos not in QOS_CLASSES:
            raise ValueError(f"unknown QoS class {qos!r}")
        state = self._state(tenant)
        state.qos = qos
        state.demoted_until = None
        self._static_qos[tenant] = qos

    def demote(self, tenant: object, now: float, reason: str = "") -> None:
        """Drop a tenant to ``batch`` until ``now + demote_seconds``."""
        state = self._state(tenant)
        state.qos = "batch"
        state.demoted_until = now + self.config.demote_seconds
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

    def charge_cpu(self, tenant: object | None, seconds: float, op: str = "") -> None:
        """Account CPU time a tenant's work consumed, measured where the
        work actually executed (a write batch's engine time on its shard)
        — per-tenant *CPU* accounting. Accounting only:
        it never sheds load, so admission decisions (and with them the
        chaos fingerprints) are unchanged."""
        tenant = CLUSTER_TENANT if tenant is None else tenant
        self._state(tenant).cpu_seconds += seconds
        if self._metrics is not None:
            # Labeled by operation only — tenant cardinality stays out of
            # the registry; per-tenant totals live on the states and
            # surface through cat_tenant_governance / cpu_seconds().
            self._metrics.counter("tenancy_cpu_seconds_total", op=op or "other").inc(
                seconds
            )

    def cpu_seconds(self, tenant: object | None = None) -> float:
        """CPU seconds charged to *tenant* (every tenant when None)."""
        if tenant is not None:
            state = self._tenants.get(tenant)
            return state.cpu_seconds if state is not None else 0.0
        return sum(state.cpu_seconds for state in self._tenants.values())

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
        allowed = max(1, int(self.config.queue_capacity * self.config.queue_share(qos)))
        if len(self._queue) >= allowed:
            retry_after = (
                self._queue[0] - now if self._queue else bucket.wait_time(now)
            )
            self._shed(state, tenant, op, "queue", max(retry_after, 0.0), qos,
                       rate_budget=rate_budget)
        delay = bucket.wait_time(now)
        if bucket.acquire(now, max_debt=float(allowed)) is None:
            self._shed(state, tenant, op, rate_budget, delay, qos)
        heapq.heappush(self._queue, now + delay)
        self._admitted(state, op, qos, queued=True)
        return delay

    def _admitted(self, state: _TenantState, op: str, qos: str, queued: bool) -> None:
        state.admitted += 1
        if queued:
            state.queued += 1
        if self._metrics is not None:
            counter = self._admit_counters.get((op, qos))
            if counter is None:
                counter = self._metrics.counter(
                    "tenancy_admitted_total", op=op, qos=qos
                )
                self._admit_counters[(op, qos)] = counter
            counter.inc()
            if queued:
                queued_counter = self._queued_counters.get(op)
                if queued_counter is None:
                    queued_counter = self._metrics.counter(
                        "tenancy_queued_total", op=op
                    )
                    self._queued_counters[op] = queued_counter
                queued_counter.inc()
            self._depth_gauge.set(len(self._queue))

    def _shed(
        self,
        state: _TenantState,
        tenant: object,
        op: str,
        budget: str,
        retry_after: float,
        qos: str,
        rate_budget: str | None = None,
    ) -> None:
        state.shed += 1
        if self._metrics is not None:
            counter = self._shed_counters.get((op, budget))
            if counter is None:
                counter = self._metrics.counter(
                    "tenancy_shed_total", op=op, budget=budget
                )
                self._shed_counters[(op, budget)] = counter
            counter.inc()
            self._depth_gauge.set(len(self._queue))
        raise TenantThrottledError(tenant, op, budget, retry_after, qos)

    # -- the governance-policy hook ------------------------------------------
    def apply_alerts(self, alerts: Iterable, now: float) -> list[object]:
        """Feed freshly raised skew alerts to the policy; returns the
        tenants it demoted this round."""
        return self.policy.on_alerts(self, alerts, now)

    # -- introspection -------------------------------------------------------
    def tenant_counts(self, tenant: object) -> tuple[int, int, int]:
        """(admitted, queued, shed) for one tenant (zeros when unseen)."""
        state = self._tenants.get(tenant)
        return (state.admitted, state.queued, state.shed) if state else (0, 0, 0)

    def totals(self) -> dict[str, int]:
        return {
            "tenants": len(self._tenants),
            "admitted": sum(s.admitted for s in self._tenants.values()),
            "queued": sum(s.queued for s in self._tenants.values()),
            "shed": sum(s.shed for s in self._tenants.values()),
            "demotions": len(self.demotions),
        }

    def rows(self, now: float, k: int | None = None) -> list[tuple]:
        """Per-tenant governance rows for :func:`cat_tenant_governance`,
        busiest (most admitted + shed) first."""
        ranked = sorted(
            self._tenants.items(),
            key=lambda item: (-(item[1].admitted + item[1].shed), str(item[0])),
        )
        if k is not None:
            ranked = ranked[:k]
        rows = []
        for tenant, state in ranked:
            rows.append(
                (
                    str(tenant),
                    self.qos_of(tenant, now),
                    state.admitted,
                    state.queued,
                    state.shed,
                    "yes" if state.demoted_until is not None else "no",
                )
            )
        return rows

    def report_lines(self) -> list[str]:
        totals = self.totals()
        lines = [
            f"tenancy: {totals['admitted']} admitted "
            f"({totals['queued']} via backpressure queue), "
            f"{totals['shed']} shed across {totals['tenants']} tenant(s)"
        ]
        if self.demotions:
            at, tenant, reason = self.demotions[-1]
            lines.append(
                f"tenancy demotions: {len(self.demotions)} "
                f"(latest {tenant!s} @ t={at:.2f}{': ' + reason if reason else ''})"
            )
        return lines

    def snapshot(self, now: float) -> dict:
        return {
            "totals": self.totals(),
            "queue_depth": self.queue_depth(now),
            "queue_capacity": self.config.queue_capacity,
            "tenants": [
                {
                    "tenant": tenant,
                    "qos": qos,
                    "admitted": admitted,
                    "queued": queued,
                    "shed": shed,
                    "demoted": demoted == "yes",
                }
                for tenant, qos, admitted, queued, shed, demoted in self.rows(now)
            ],
            "demotions": [
                {"time": at, "tenant": str(tenant), "reason": reason}
                for at, tenant, reason in self.demotions
            ],
        }


def cat_tenant_governance(db, k: int | None = None):
    """``_cat``-style governance table: one row per governed tenant with
    its QoS class and admit/queue/shed counters. Empty, well-formed table
    when the instance has no governor."""
    from repro.obsv.cat import CatTable

    governor = getattr(db, "governor", None)
    rows = governor.rows(db.now, k=k) if governor is not None else []
    return CatTable(
        "tenancy",
        ("tenant", "qos", "admitted", "queued", "shed", "demoted"),
        rows,
    )
