"""The text dashboard and the JSON cluster snapshot.

``render_dashboard(db)`` composes one terminal-friendly page from the
``_cat`` tables and the observer: topology header, node table, a per-shard
document heatmap, the top-k tenants, recent skew alerts and the slow-log
tail. ``cluster_snapshot(db)`` is the same information as a JSON-ready
dict (the ``python -m repro.obsv --json`` payload and the CI artifact).
"""

from __future__ import annotations

from repro.obsv.cat import (
    _engine_docs,
    cat_caches,
    cat_exec,
    cat_hotkeys,
    cat_nodes,
    cat_rules,
    cat_shards,
    cat_slo,
    cat_tenants,
)
from repro.telemetry.timeseries import DASHBOARD_SERIES, sparkline

#: Heat ramp from cold to hot, index scaled by load relative to the max.
_HEAT = " .:-=+*#%@"
#: Shards rendered per heatmap line.
_HEAT_WRAP = 64


def shard_heatmap(counts: dict) -> str:
    """Render per-shard document counts as one heat character per shard,
    wrapped at 64 shards per line and labelled with the starting shard
    id."""
    if not counts:
        return "(no shards)"
    ordered = [counts[shard_id] for shard_id in sorted(counts)]
    peak = max(ordered)
    chars = []
    for count in ordered:
        if peak == 0:
            chars.append(_HEAT[0])
        else:
            index = min(int(count / peak * (len(_HEAT) - 1) + 0.5), len(_HEAT) - 1)
            # A nonzero shard never renders as blank-cold.
            chars.append(_HEAT[max(index, 1)] if count else _HEAT[0])
    lines = []
    for start in range(0, len(chars), _HEAT_WRAP):
        chunk = "".join(chars[start : start + _HEAT_WRAP])
        lines.append(f"  [{start:>4}] |{chunk}|")
    lines.append(f"  scale: ' '=0 .. '@'={peak} docs/shard")
    return "\n".join(lines)


def _shard_docs(db) -> dict:
    """Per-shard ingested documents, buffered writes included."""
    return {
        shard_id: _engine_docs(engine) for shard_id, engine in db.engines.items()
    }


def performance_history(db, width: int = 40) -> str:
    """Sparkline strip per key series from the instance's
    :class:`~repro.telemetry.timeseries.TimeSeriesStore`.

    Renders the :data:`~repro.telemetry.timeseries.DASHBOARD_SERIES` rows
    that have samples; degrades to ``(no samples)`` when the store is
    disabled, empty, or backed by the no-op registry — never raises.
    """
    store = getattr(db, "timeseries", None)
    if store is None:
        return "  (history disabled)"
    lines = []
    for label, name in DASHBOARD_SERIES:
        series = store.get(name)
        if series is None or not len(series):
            continue
        summary = series.summary()
        lines.append(
            f"  {label:<14} {sparkline(series.values(), width=width)} "
            f"last={summary['last']:.3f}"
        )
    if not lines:
        return "  (no samples)"
    lines.append(
        f"  {store.samples_taken} samples @ {store.interval:g}s logical interval, "
        f"ring capacity {store.capacity}"
    )
    return "\n".join(lines)


def render_dashboard(db) -> str:
    """One text page of cluster health: the operator's ``watch`` target."""
    cluster = db.cluster
    observer = getattr(db, "obsv", None)
    top_k = observer.config.top_k if observer is not None else 10
    shard_docs = _shard_docs(db)
    sections = [
        (
            f"== esdb dashboard :: {cluster.num_nodes} nodes / "
            f"{cluster.num_shards} shards / {sum(shard_docs.values())} docs / "
            f"t={db.now:.2f} =="
        ),
        "",
        "-- nodes --",
        cat_nodes(db).render(),
        "",
        "-- shard heatmap (docs) --",
        shard_heatmap(shard_docs),
        "",
        f"-- top {top_k} tenants --",
        cat_tenants(db, k=top_k).render(),
    ]
    rules = cat_rules(db)
    if len(rules):
        sections += ["", "-- routing rules --", rules.render()]
    governor = getattr(db, "governor", None)
    if governor is not None:
        totals = governor.totals()
        sections += [
            "",
            "-- tenancy governance --",
            (
                f"  {totals['admitted']} admitted / {totals['queued']} queued / "
                f"{totals['shed']} shed, queue depth "
                f"{governor.queue_depth(db.now)}/{governor.config.queue_capacity}, "
                f"{totals['demotions']} demotion(s)"
            ),
        ]
    slo_engine = getattr(db, "slo", None)
    if slo_engine is not None:
        sections += ["", "-- slo --", cat_slo(db).render()]
        store = getattr(db, "timeseries", None)
        if store is not None:
            for label, name in (
                ("budget min %", "slo.budget_min_pct"),
                ("burn fast max", "slo.burn_fast_max"),
                ("burn slow max", "slo.burn_slow_max"),
            ):
                series = store.get(name)
                if series is None or not len(series):
                    continue
                summary = series.summary()
                sections.append(
                    f"  {label:<14} {sparkline(series.values(), width=40)} "
                    f"last={summary['last']:.3f}"
                )
        for alert in slo_engine.recent_alerts(5):
            sections.append(
                f"  {alert.kind} {alert.slo} @ t={alert.time:.2f} "
                f"burn={alert.fast_burn:.2f}/{alert.slow_burn:.2f} "
                f"budget={alert.budget_remaining_pct:.1f}%"
            )
    arrivals = getattr(db, "arrivals", None)
    if arrivals is not None:
        quantiles = arrivals.interarrival_quantiles()
        sections += [
            "",
            "-- workload arrivals --",
            (
                f"  {arrivals.count} arrivals @ {arrivals.realized_rate:.1f}/s, "
                f"burstiness {arrivals.burstiness:+.2f}"
            ),
            (
                f"  interarrival p50={quantiles['p50'] * 1000:.1f}ms "
                f"p95={quantiles['p95'] * 1000:.1f}ms "
                f"p99={quantiles['p99'] * 1000:.1f}ms"
            ),
            (
                f"  live flash tenants {arrivals.live_tenants} "
                f"(peak {arrivals.peak_live_tenants})"
            ),
        ]
    profiler = getattr(db, "hotkeys", None)
    if profiler is not None:
        sections += ["", "-- heavy hitters --"]
        hot_table = cat_hotkeys(db, k=3)
        if len(hot_table):
            sections.append(hot_table.render())
        else:
            sections.append("  (no traffic profiled)")
    sections += ["", "-- caches --", cat_caches(db).render()]
    exec_table = cat_exec(db)
    if len(exec_table):
        sections += ["", "-- batched execution --", exec_table.render()]
    sections += ["", "-- performance history --", performance_history(db)]
    events = getattr(db, "events", None)
    if events is not None:
        counts = events.counts()
        summary = (
            ", ".join(f"{kind}={count}" for kind, count in sorted(counts.items()))
            if counts
            else "(none)"
        )
        sections += ["", "-- events --", f"  {summary}"]
        sections += [f"  {event.describe()}" for event in events.tail(5)]
    if observer is not None:
        alerts = observer.recent_alerts(5)
        sections += ["", "-- skew alerts --"]
        if alerts:
            sections += [f"  {alert.describe()}" for alert in alerts]
        else:
            sections.append("  (none)")
        stats = observer.last_window()
        if stats is not None:
            sections.append(f"  last window: {stats.describe()}")
        sections += ["", "-- slow log tail --"]
        tail = observer.index_slowlog.tail(5) + observer.search_slowlog.tail(5)
        tail.sort(key=lambda entry: entry.time)
        if tail:
            sections += [f"  {entry.describe()}" for entry in tail[-8:]]
        else:
            sections.append("  (empty)")
    return "\n".join(sections)


def cluster_snapshot(db) -> dict:
    """The dashboard as data: ``nodes`` / ``shards`` / ``tenants`` /
    ``rules`` / ``caches`` rows plus the observer's ``obsv`` section."""
    observer = getattr(db, "obsv", None)
    snapshot = {
        "time": db.now,
        "totals": {
            "nodes": db.cluster.num_nodes,
            "shards": db.cluster.num_shards,
            "docs": sum(_shard_docs(db).values()),
        },
        "nodes": cat_nodes(db).to_dicts(),
        "shards": cat_shards(db).to_dicts(),
        "tenants": cat_tenants(db).to_dicts(),
        "rules": cat_rules(db).to_dicts(),
        "caches": cat_caches(db).to_dicts(),
    }
    store = getattr(db, "timeseries", None)
    if store is not None:
        snapshot["timeseries"] = store.snapshot()
    else:
        # Well-formed empty section: consumers never need a presence check.
        snapshot["timeseries"] = {
            "interval": 0.0,
            "capacity": 0,
            "samples": 0,
            "dropped_series": 0,
            "series": [],
        }
    governor = getattr(db, "governor", None)
    if governor is not None:
        snapshot["tenancy"] = governor.snapshot(db.now)
    events = getattr(db, "events", None)
    if events is not None:
        snapshot["events"] = {
            "counts": events.counts(),
            "total": events.total,
            "recent": events.to_dicts(limit=20),
        }
    else:
        # Well-formed empty section, mirroring the timeseries convention.
        snapshot["events"] = {"counts": {}, "total": 0, "recent": []}
    slo_engine = getattr(db, "slo", None)
    if slo_engine is not None:
        # Only present on an SLO-enabled instance, mirroring the tenancy
        # section: absent means "not in play", never "broken".
        snapshot["slo"] = slo_engine.snapshot()
    profiler = getattr(db, "hotkeys", None)
    if profiler is not None:
        snapshot["hotkeys"] = profiler.snapshot()
    arrivals = getattr(db, "arrivals", None)
    if arrivals is not None:
        snapshot["arrivals"] = arrivals.summary()
    if observer is not None:
        snapshot["obsv"] = observer.snapshot()
    return snapshot
