"""Configuration of the SLO engine and the heavy-hitter profiler.

One frozen dataclass hangs off ``EsdbConfig.slo``. Disabled (the default)
the facade builds neither the engine nor the profiler and every hot path
pays a single ``is not None`` check — byte-identical behavior, chaos
fingerprints included, exactly like ``TenancyConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: The operations objectives can target.
SLO_OPS = ("write", "query")
#: The objective families.
SLO_KINDS = ("latency", "error_rate")


@dataclass(frozen=True)
class SloObjective:
    """One declarative service-level objective.

    Attributes:
        name: unique label — the ``slo`` label on every exported metric,
            event and table row.
        op: the operation the objective measures (``write`` or ``query``).
        kind: ``latency`` ("objective-fraction of ops complete under
            ``threshold_seconds``") or ``error_rate`` ("objective-fraction
            of ops succeed" — throttles and sheds count as errors).
        objective: the good-fraction target in (0, 1), e.g. ``0.99``; the
            error budget is ``1 - objective``.
        threshold_seconds: the latency cut-off for ``latency`` objectives
            (ignored by ``error_rate``).
        tenant: None measures every tenant's traffic together; a string
            scopes the objective to that tenant's operations only (the
            per-tenant objectives FoundationDB-style multi-tenant stores
            need to be operable).
    """

    name: str
    op: str
    kind: str
    objective: float
    threshold_seconds: float = 0.010
    tenant: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("objective name must be non-empty")
        if self.op not in SLO_OPS:
            raise ConfigurationError(
                f"objective op must be one of {SLO_OPS}, got {self.op!r}"
            )
        if self.kind not in SLO_KINDS:
            raise ConfigurationError(
                f"objective kind must be one of {SLO_KINDS}, got {self.kind!r}"
            )
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError("objective must be in (0, 1)")
        if self.threshold_seconds < 0:
            raise ConfigurationError("threshold_seconds must be >= 0")

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad fraction, ``1 - objective``."""
        return 1.0 - self.objective


def _default_objectives() -> tuple:
    """The stock objective set ``SloConfig(enabled=True)`` tracks: latency
    and availability for both operations, at the paper-ish 99% level."""
    return (
        SloObjective("write-latency", "write", "latency", 0.99,
                     threshold_seconds=0.010),
        SloObjective("query-latency", "query", "latency", 0.99,
                     threshold_seconds=0.050),
        SloObjective("write-availability", "write", "error_rate", 0.99),
        SloObjective("query-availability", "query", "error_rate", 0.99),
    )


@dataclass(frozen=True)
class SloConfig:
    """Tuning knobs for SLO tracking and heavy-hitter attribution.

    Attributes:
        enabled: build the :class:`~repro.slo.SloEngine` (and, unless
            ``profiler_enabled`` is False, the
            :class:`~repro.slo.HeavyHitterProfiler`) for the instance.
        objectives: the declarative objective set (defaults to
            99%-latency + 99%-availability per operation).
        bucket_seconds: logical-clock resolution of the rolling windows
            outcomes accumulate into.
        fast_window_seconds / slow_window_seconds: the Google-SRE
            multi-window pair — a burn alert needs the burn rate over
            *both* windows to reach ``burn_threshold`` (the fast window
            makes alerts responsive, the slow window stops flapping).
        burn_threshold: burn-rate multiple that fires ``slo_burn``; burn
            rate 1.0 means exactly exhausting the budget at the end of the
            accounting period.
        evaluation_interval_seconds: logical cadence at which windows are
            evaluated and alerts fire — deterministic ticks, never wall
            clock.
        profiler_enabled: track heavy hitters (hot routing keys, filter
            terms, query fingerprints) alongside the objectives.
        sketch_capacity: entries per Space-Saving sketch (memory is
            O(capacity) per sketch, no matter the stream).
        top_k: rows the hot-key tables and snapshots list.
        max_tracked_tenants: per-tenant sketch maps are bounded here;
            tenants beyond the cap still count in the global and per-shard
            sketches and are tallied as ``dropped_tenants``.
        decay_window_seconds: logical window after which sketch counts are
            aged by ``decay_factor`` (0 disables decay).
        decay_factor: multiplier applied to sketch counts per decay window.
    """

    enabled: bool = False
    objectives: tuple = field(default_factory=_default_objectives)
    bucket_seconds: float = 1.0
    fast_window_seconds: float = 5.0
    slow_window_seconds: float = 30.0
    burn_threshold: float = 2.0
    evaluation_interval_seconds: float = 1.0
    profiler_enabled: bool = True
    sketch_capacity: int = 32
    top_k: int = 10
    max_tracked_tenants: int = 64
    decay_window_seconds: float = 60.0
    decay_factor: float = 0.5

    def __post_init__(self) -> None:
        names = [objective.name for objective in self.objectives]
        if len(set(names)) != len(names):
            raise ConfigurationError("objective names must be unique")
        for attr in ("bucket_seconds", "fast_window_seconds",
                     "slow_window_seconds", "evaluation_interval_seconds"):
            if getattr(self, attr) <= 0:
                raise ConfigurationError(f"{attr} must be positive")
        if self.slow_window_seconds < self.fast_window_seconds:
            raise ConfigurationError(
                "slow_window_seconds must be >= fast_window_seconds"
            )
        if self.burn_threshold <= 0:
            raise ConfigurationError("burn_threshold must be positive")
        if self.sketch_capacity < 1 or self.top_k < 1:
            raise ConfigurationError("sketch_capacity and top_k must be >= 1")
        if self.max_tracked_tenants < 1:
            raise ConfigurationError("max_tracked_tenants must be >= 1")
        if self.decay_window_seconds < 0:
            raise ConfigurationError("decay_window_seconds must be >= 0")
        if not 0.0 <= self.decay_factor <= 1.0:
            raise ConfigurationError("decay_factor must be in [0, 1]")

    @staticmethod
    def off() -> "SloConfig":
        """The SLO-off configuration (nothing is built — the default)."""
        return SloConfig(enabled=False)
