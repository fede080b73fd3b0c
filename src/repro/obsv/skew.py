"""Rolling-window skew analytics: the live version of Figures 12–13.

The paper evaluates dynamic secondary hashing by the standard deviation of
per-shard throughput and the per-node distribution *after* a run. This
module computes the same family of imbalance statistics — coefficient of
variation, Gini coefficient, max/mean ratio — over the *tumbling windows*
the workload monitor (:mod:`repro.balancer.monitor`) closes, so an operator
can watch skew build and dissolve as the balancer commits rules, measured
on exactly the counts the balancer acted on.

:func:`window_stats` turns one closed :class:`~repro.balancer.monitor.LoadWindow`
into an immutable :class:`WindowStats`. :func:`detect_alerts` turns it into
hot-tenant / hot-shard :class:`Alert` events, and :func:`rule_measurement`
extracts the "why did L(k1) grow" measurement that annotates rule-list
insertions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from repro.balancer.monitor import LoadWindow

# -- imbalance statistics ----------------------------------------------------


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Population standard deviation divided by the mean (0.0 when the mean
    is zero — an empty window has no imbalance)."""
    n = len(values)
    if n == 0:
        return 0.0
    mean = sum(values) / n
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / n
    return math.sqrt(variance) / mean


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of *values* (0 = perfectly even, →1 = one value
    holds everything). Uses the sorted-rank identity
    ``G = Σ_i (2i − n − 1) x_i / (n Σ x)``."""
    ordered = sorted(values)
    n = len(ordered)
    total = sum(ordered)
    if n == 0 or total == 0:
        return 0.0
    weighted = sum((2 * i - n - 1) * v for i, v in enumerate(ordered, start=1))
    return weighted / (n * total)


def max_mean_ratio(values: Sequence[float]) -> float:
    """Largest value over the mean — the "how much hotter than average is
    the hottest shard" number (1.0 = even, 0.0 for an empty input)."""
    n = len(values)
    if n == 0:
        return 0.0
    mean = sum(values) / n
    if mean == 0:
        return 0.0
    return max(values) / mean


# -- windows -----------------------------------------------------------------


@dataclass(frozen=True)
class WindowStats:
    """One closed tumbling window of write load.

    ``tenant_loads`` covers observed tenants only; shard statistics are
    computed over *all* shards including idle ones (an idle shard is
    imbalance, exactly as in Figure 12b's per-shard stddev over 512
    shards).
    """

    start: float
    end: float
    writes: int
    num_shards: int
    tenant_loads: tuple  # ((tenant, count), ...) sorted by count desc
    shard_loads: tuple  # ((shard_id, count), ...) sorted by count desc, nonzero only
    tenant_cv: float
    tenant_gini: float
    tenant_max_mean: float
    shard_cv: float
    shard_gini: float
    shard_max_mean: float

    def to_dict(self) -> dict:
        return {
            "start": self.start,
            "end": self.end,
            "writes": self.writes,
            "num_shards": self.num_shards,
            "top_tenants": [[str(t), c] for t, c in self.tenant_loads[:10]],
            "top_shards": [[int(s), c] for s, c in self.shard_loads[:10]],
            "tenant": {
                "cv": self.tenant_cv,
                "gini": self.tenant_gini,
                "max_mean": self.tenant_max_mean,
            },
            "shard": {
                "cv": self.shard_cv,
                "gini": self.shard_gini,
                "max_mean": self.shard_max_mean,
            },
        }


def describe_window(window: dict) -> str:
    """One line for a closed window's :meth:`WindowStats.to_dict`."""
    shard, tenant = window["shard"], window["tenant"]
    return (
        f"window [{window['start']:.2f}, {window['end']:.2f}) "
        f"{window['writes']} writes | "
        f"shard cv={shard['cv']:.3f} gini={shard['gini']:.3f} "
        f"max/mean={shard['max_mean']:.2f} | "
        f"tenant cv={tenant['cv']:.3f} gini={tenant['gini']:.3f} "
        f"max/mean={tenant['max_mean']:.2f}"
    )


def window_stats(window: LoadWindow, num_shards: int) -> WindowStats:
    """The imbalance statistics of one window the workload monitor closed.
    Shard statistics run over all *num_shards* shards, idle ones included."""
    tenant_loads = tuple(
        sorted(window.tenants.items(), key=lambda kv: (-kv[1], str(kv[0])))
    )
    shard_loads = tuple(sorted(window.shards.items(), key=lambda kv: (-kv[1], kv[0])))
    tenant_values = [count for _, count in tenant_loads]
    shard_values = [0.0] * num_shards
    for shard, count in window.shards.items():
        shard_values[shard] = float(count)
    return WindowStats(
        start=window.start,
        end=window.end,
        writes=sum(tenant_values),
        num_shards=num_shards,
        tenant_loads=tenant_loads,
        shard_loads=shard_loads,
        tenant_cv=coefficient_of_variation(tenant_values),
        tenant_gini=gini(tenant_values),
        tenant_max_mean=max_mean_ratio(tenant_values),
        shard_cv=coefficient_of_variation(shard_values),
        shard_gini=gini(shard_values),
        shard_max_mean=max_mean_ratio(shard_values),
    )


# -- alerts ------------------------------------------------------------------


@dataclass(frozen=True)
class Alert:
    """A structured skew-alert event emitted when a window closes."""

    time: float
    kind: str  # "hot_tenant" | "hot_shard"
    subject: str
    measurement: dict

    def describe(self) -> str:
        extras = ", ".join(
            f"{key}={value:.3f}" if isinstance(value, float) else f"{key}={value}"
            for key, value in sorted(self.measurement.items())
            if key not in ("window_start", "window_end")
        )
        return f"[{self.kind}] {self.subject} @ t={self.time:.2f} ({extras})"

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "kind": self.kind,
            "subject": self.subject,
            "measurement": dict(self.measurement),
        }


def detect_alerts(
    stats: WindowStats,
    hot_tenant_share: float,
    hot_shard_ratio: float,
) -> list[Alert]:
    """Hot-tenant / hot-shard detection over one closed window.

    Every tenant whose write share meets *hot_tenant_share* raises a
    ``hot_tenant`` alert carrying the window's full statistics (the same
    CV/Gini/max-mean the balancing figures report); a window whose
    per-shard max/mean imbalance meets *hot_shard_ratio* raises one
    ``hot_shard`` alert for the hottest shard.
    """
    alerts: list[Alert] = []
    if not stats.writes:
        return alerts
    base = {
        "window_start": stats.start,
        "window_end": stats.end,
        "window_writes": stats.writes,
    }
    for tenant, count in stats.tenant_loads:
        share = count / stats.writes
        if share < hot_tenant_share:
            break  # loads are sorted descending
        alerts.append(
            Alert(
                time=stats.end,
                kind="hot_tenant",
                subject=str(tenant),
                measurement={
                    **base,
                    "writes": count,
                    "share": share,
                    "tenant_cv": stats.tenant_cv,
                    "tenant_gini": stats.tenant_gini,
                    "tenant_max_mean": stats.tenant_max_mean,
                },
            )
        )
    if stats.shard_max_mean >= hot_shard_ratio and stats.shard_loads:
        hottest_shard, count = stats.shard_loads[0]
        alerts.append(
            Alert(
                time=stats.end,
                kind="hot_shard",
                subject=f"shard-{hottest_shard}",
                measurement={
                    **base,
                    "writes": count,
                    "shard_cv": stats.shard_cv,
                    "shard_gini": stats.shard_gini,
                    "shard_max_mean": stats.shard_max_mean,
                },
            )
        )
    return alerts


def rule_measurement(stats: WindowStats, tenant: object) -> dict | None:
    """The triggering measurement attached to a committed rule — answers
    "why did L(k1) grow" with the tenant's load in the window that drove
    the balancer's proposal. None when the tenant left no trace."""
    count = next((c for t, c in stats.tenant_loads if t == tenant), None)
    if count is None:
        return None
    return {
        "window_start": stats.start,
        "window_end": stats.end,
        "window_writes": stats.writes,
        "writes": count,
        "share": count / stats.writes,
        "tenant_cv": stats.tenant_cv,
        "tenant_gini": stats.tenant_gini,
        "tenant_max_mean": stats.tenant_max_mean,
        "shard_cv": stats.shard_cv,
        "shard_gini": stats.shard_gini,
        "shard_max_mean": stats.shard_max_mean,
    }


def annotation_reason(tenant: object, offset: int, measurement: dict | None) -> str:
    """Human-readable one-liner for a rule-list annotation."""
    if measurement is None:
        return f"offset {offset} committed for tenant {tenant!s} (no window measurement)"
    return (
        f"hot tenant {tenant!s}: {measurement['share']:.1%} of "
        f"{measurement['window_writes']} writes in window "
        f"[{measurement['window_start']:.2f}, {measurement['window_end']:.2f}) "
        f"-> offset {offset}"
    )


def summarize_windows(windows: Iterable[WindowStats]) -> dict:
    """Aggregate view over retained windows (for JSON snapshots)."""
    closed = list(windows)
    if not closed:
        return {"windows": 0}
    return {
        "windows": len(closed),
        "total_writes": sum(w.writes for w in closed),
        "shard_cv_last": closed[-1].shard_cv,
        "shard_cv_max": max(w.shard_cv for w in closed),
        "tenant_max_share_last": (
            closed[-1].tenant_loads[0][1] / closed[-1].writes
            if closed[-1].writes and closed[-1].tenant_loads
            else 0.0
        ),
    }
