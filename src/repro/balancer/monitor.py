"""Workload monitor: windowed per-tenant write-throughput statistics (§3.2).

The monitor is the control-layer component that "collects metrics for
workload balancing": every routed write is counted for its tenant and its
shard in the open window, and each closed window is kept (the last
:data:`MAX_WINDOWS`) as a :class:`LoadWindow`. The balancer reads the
per-tenant throughput of the last closed window; the observer
(:mod:`repro.obsv`) derives its skew statistics from the same windows.
Storage per tenant is tracked cumulatively for the initialization phase of
Algorithm 1.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ConfigurationError

#: Closed windows retained.
MAX_WINDOWS = 64


class LoadWindow(NamedTuple):
    """One closed window of routed writes: ``[start, end)`` and the writes
    each tenant and each shard received in it (nonzero counts only)."""

    start: float
    end: float
    tenants: dict
    shards: dict


@dataclass
class TenantStats:
    """A point-in-time view of one tenant's load.

    Attributes:
        tenant_id: tenant identifier.
        writes: writes observed in the last closed window.
        share: this tenant's fraction of the window's total writes
            (the ``r`` of Algorithm 1, line 15).
        storage: cumulative records stored for this tenant.
    """

    tenant_id: object
    writes: int
    share: float
    storage: int


class WorkloadMonitor:
    """Collects per-tenant and per-shard write counts in fixed windows.

    The monitor is deliberately simple — Alibaba's production monitor reports
    periodic throughput proportions, and that is exactly the interface
    Algorithm 1 consumes (``T(K)`` at line 13, ``S(K)`` at line 5).

    Args:
        window_seconds: length of one reporting window.
    """

    def __init__(self, window_seconds: float = 10.0) -> None:
        if window_seconds <= 0:
            raise ConfigurationError("window_seconds must be positive")
        self.window_seconds = window_seconds
        #: Closed windows, oldest first.
        self.windows: deque = deque(maxlen=MAX_WINDOWS)
        #: Windows closed so far, the evicted ones included.
        self.closed = 0
        # Tenants keep their first-seen order from window to window (a
        # closed window lists them in it), so the balancer proposes in a
        # stable order.
        self._tenants: dict = {}
        self._shards: dict = {}
        self._storage: Counter = Counter()
        self._window_start = 0.0

    def record_write(self, tenant_id: object, shard_id: int, now: float) -> bool:
        """Count one write routed to *shard_id* for *tenant_id* at *now*.

        Closes the open window first when *now* passes its boundary, and
        returns True when it did.
        """
        rolled = now - self._window_start >= self.window_seconds
        if rolled:
            self.roll_window(now)
        tenants = self._tenants
        tenants[tenant_id] = tenants.get(tenant_id, 0) + 1
        shards = self._shards
        shards[shard_id] = shards.get(shard_id, 0) + 1
        self._storage[tenant_id] += 1
        return rolled

    def roll_window(self, now: float) -> None:
        """Close the open window at *now*, making it the one
        :meth:`throughput` reads."""
        self.windows.append(
            LoadWindow(
                self._window_start,
                now,
                {tenant: count for tenant, count in self._tenants.items() if count},
                self._shards,
            )
        )
        self.closed += 1
        self._tenants = dict.fromkeys(self._tenants, 0)
        self._shards = {}
        self._window_start = now

    def _last_window(self) -> dict:
        return self.windows[-1].tenants if self.windows else {}

    def throughput(self) -> dict:
        """Return {tenant_id: writes/sec} for the last closed window."""
        if not self.windows:
            return {}
        window = self.windows[-1]
        seconds = min(max(window.end - window.start, 1e-9), self.window_seconds)
        return {k: v / seconds for k, v in window.tenants.items()}

    def shares(self) -> dict:
        """Return {tenant_id: fraction of window writes} — ``r`` in Algorithm 1."""
        window = self._last_window()
        total = sum(window.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in window.items()}

    def storage(self) -> dict:
        """Return {tenant_id: cumulative records stored} — ``S(K)``."""
        return {tenant: total for tenant, total in self._storage.items() if total}

    def storage_shares(self) -> dict:
        """Return {tenant_id: fraction of total storage}."""
        storage = self.storage()
        total = sum(storage.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in storage.items()}

    def seed_storage(self, storage: dict) -> None:
        """Preload cumulative storage (used when attaching the monitor to an
        existing cluster whose shards already hold data). Replaces any
        storage accumulated so far."""
        self._storage = Counter(storage)

    def stats(self) -> list[TenantStats]:
        """Return a combined snapshot sorted by descending write share."""
        window = self._last_window()
        out = [
            TenantStats(
                tenant_id=tenant,
                writes=window[tenant],
                share=share,
                storage=self._storage[tenant],
            )
            for tenant, share in self.shares().items()
        ]
        out.sort(key=lambda s: s.share, reverse=True)
        return out
