"""Configuration of the observability layer (:mod:`repro.obsv`).

One frozen dataclass hangs off ``EsdbConfig.obsv``: whether the instance
builds an :class:`~repro.obsv.Observer` at all (``ObsvConfig.off()``
removes it — the write path then pays a single ``is not None`` check),
and the *info* thresholds of the index/search slow logs, which the
``python -m repro.obsv`` demo drops to zero so every operation is logged.
Everything else the observer uses is fixed below.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Warn thresholds of the index (write) and search (query) slow logs.
INDEX_WARN_SECONDS = 0.100
SEARCH_WARN_SECONDS = 0.500
#: A tenant whose share of a skew window's writes meets this raises a
#: ``hot_tenant`` alert.
HOT_TENANT_SHARE = 0.20
#: A skew window whose per-shard max/mean load meets this raises a
#: ``hot_shard`` alert.
HOT_SHARD_RATIO = 3.0
#: Alert events retained (ring buffer).
MAX_ALERTS = 256
#: Tenants/shards the dashboard lists.
TOP_K = 10


@dataclass(frozen=True)
class ObsvConfig:
    """Whether to observe, and the slow logs' info thresholds.

    Attributes:
        enabled: build an :class:`~repro.obsv.Observer` for the instance.
        index_info_seconds: elapsed time at which a write enters the index
            slow log at ``info`` (``warn`` from :data:`INDEX_WARN_SECONDS`).
        search_info_seconds: same for queries and the search slow log
            (``warn`` from :data:`SEARCH_WARN_SECONDS`).
    """

    enabled: bool = True
    index_info_seconds: float = 0.010
    search_info_seconds: float = 0.050

    def __post_init__(self) -> None:
        if not 0 <= self.index_info_seconds <= INDEX_WARN_SECONDS:
            raise ConfigurationError(
                f"index_info_seconds must be in [0, {INDEX_WARN_SECONDS}]"
            )
        if not 0 <= self.search_info_seconds <= SEARCH_WARN_SECONDS:
            raise ConfigurationError(
                f"search_info_seconds must be in [0, {SEARCH_WARN_SECONDS}]"
            )

    @staticmethod
    def off() -> "ObsvConfig":
        """The observability-off configuration (no observer is built)."""
        return ObsvConfig(enabled=False)
