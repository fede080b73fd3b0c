"""What the SLO engine and the heavy-hitter profiler track, and how.

``EsdbConfig.slo`` switches both on. Off (the default) the facade builds
neither and every hot path pays a single ``is not None`` check —
byte-identical behavior, chaos fingerprints included. Everything they do
once on is fixed here: the objectives, the logical-clock windows, and the
sketch bounds.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    """

    name: str
    op: str
    kind: str
    objective: float
    threshold_seconds: float = 0.010

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad fraction, ``1 - objective``."""
        return 1.0 - self.objective


#: Latency and availability for both operations, at the 99% level.
OBJECTIVES = (
    SloObjective("write-latency", "write", "latency", 0.99, threshold_seconds=0.010),
    SloObjective("query-latency", "query", "latency", 0.99, threshold_seconds=0.050),
    SloObjective("write-availability", "write", "error_rate", 0.99),
    SloObjective("query-availability", "query", "error_rate", 0.99),
)
#: Logical-clock resolution of the rolling windows outcomes accumulate into.
BUCKET_SECONDS = 1.0
#: The Google-SRE multi-window pair: a burn alert needs the burn rate over
#: *both* windows to reach :data:`BURN_THRESHOLD` (the fast window makes
#: alerts responsive, the slow window stops flapping).
FAST_WINDOW_SECONDS = 5.0
SLOW_WINDOW_SECONDS = 30.0
#: Burn-rate multiple that fires ``slo_burn``; 1.0 exhausts the budget
#: exactly at the end of the accounting period.
BURN_THRESHOLD = 2.0
#: Logical cadence of window evaluation — deterministic ticks, never wall
#: clock.
EVALUATION_INTERVAL_SECONDS = 1.0
#: Entries per Space-Saving sketch (memory is O(capacity) per sketch).
SKETCH_CAPACITY = 32
#: Rows the hot-key tables and snapshots list.
TOP_K = 10
#: Per-tenant sketch maps hold at most this many tenants; the rest still
#: count globally and per shard, tallied as ``dropped_tenants``.
MAX_TRACKED_TENANTS = 64
#: Every sketch count is multiplied by :data:`DECAY_FACTOR` once per
#: :data:`DECAY_WINDOW_SECONDS` of logical time.
DECAY_WINDOW_SECONDS = 60.0
DECAY_FACTOR = 0.5
