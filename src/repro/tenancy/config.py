"""Configuration of multi-tenant resource governance (``EsdbConfig.tenancy``).

One frozen dataclass tunes the governance mechanisms of
:mod:`repro.tenancy`: per-tenant token-bucket rate limits (writes/s and
queries/s with burst allowance), the shared admission queue, and
per-tenant byte/operation quotas over tumbling logical-clock windows. The
QoS classes' queue shares and the alert-driven auto-demotion policy are
fixed below.

``TenancyConfig()`` is **disabled** by default — the facade then builds no
governor and every path is byte-identical to an ungoverned instance.
``TenancyConfig.strict()`` is the tight-budget preset the noisy-neighbor
chaos scenario and benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: The QoS classes and the fraction of the admission queue each may fill.
#: Every tenant is ``standard`` until the governance policy demotes it to
#: ``batch``, whose backlog sheds once the queue is 25% full (standard at
#: 60%) — low-priority backlog is shed first under saturation.
QUEUE_SHARES = {"standard": 0.6, "batch": 0.25}
#: A hot-tenant skew alert at or above this window write share demotes
#: the tenant to ``batch`` ...
DEMOTE_SHARE = 0.35
#: ... for this many logical seconds.
DEMOTE_SECONDS = 60.0

#: Pseudo-tenant that owns cross-tenant (fan-out-all) queries.
CLUSTER_TENANT = "*"


@dataclass(frozen=True)
class TenancyConfig:
    """Tuning knobs for per-tenant admission control.

    Attributes:
        enabled: build a :class:`~repro.tenancy.TenantGovernor` for the
            instance. Off (default) means no governor object exists and the
            hot paths pay nothing — not even an ``is not None`` branch is
            reached differently, keeping default behavior byte-identical.
        write_rate / write_burst: per-tenant token bucket for writes —
            sustained writes/second and the burst allowance (bucket size).
        query_rate / query_burst: same for queries.
        queue_capacity: slots in the shared bounded admission queue. A
            request that exceeds its tenant's rate *books* a future-token
            slot here (backpressure) instead of failing immediately; a
            class past its :data:`QUEUE_SHARES` fraction is shed with
            :class:`~repro.errors.TenantThrottledError`.
        indexed_bytes_quota: bytes a tenant may index per quota window
            (None = unlimited).
        result_bytes_quota: result-set bytes a tenant's queries may return
            per window (None = unlimited).
        scanned_docs_quota: documents a tenant's queries may match per
            window (None = unlimited).
        quota_window_seconds: tumbling quota window length on the
            instance's *logical* clock; usage resets exactly at window
            boundaries, deterministically.
    """

    enabled: bool = False
    write_rate: float = 500.0
    write_burst: float = 100.0
    query_rate: float = 200.0
    query_burst: float = 40.0
    queue_capacity: int = 64
    indexed_bytes_quota: int | None = None
    result_bytes_quota: int | None = None
    scanned_docs_quota: int | None = None
    quota_window_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.write_rate <= 0 or self.query_rate <= 0:
            raise ConfigurationError("write_rate/query_rate must be positive")
        if self.write_burst < 1 or self.query_burst < 1:
            raise ConfigurationError("write_burst/query_burst must be >= 1")
        if self.queue_capacity < 1:
            raise ConfigurationError("queue_capacity must be >= 1")
        for name in ("indexed_bytes_quota", "result_bytes_quota", "scanned_docs_quota"):
            quota = getattr(self, name)
            if quota is not None and quota < 1:
                raise ConfigurationError(f"{name} must be >= 1 or None")
        if self.quota_window_seconds <= 0:
            raise ConfigurationError("quota_window_seconds must be positive")

    @staticmethod
    def strict(**overrides) -> "TenancyConfig":
        """Tight budgets for adversarial scenarios: low rates, a small
        queue, and byte/scan quotas enabled — floods throttle quickly."""
        params = dict(
            enabled=True,
            write_rate=40.0,
            write_burst=16.0,
            query_rate=20.0,
            query_burst=8.0,
            queue_capacity=16,
            indexed_bytes_quota=256 * 1024,
            result_bytes_quota=256 * 1024,
            scanned_docs_quota=20_000,
            quota_window_seconds=10.0,
        )
        params.update(overrides)
        return TenancyConfig(**params)
