"""The text dashboard, rendered from a snapshot.

``render_dashboard(snap)`` composes one terminal-friendly page from the
dict :func:`repro.obsv.snapshot` returns: topology header, node table, a
per-shard document heatmap, the top-k tenants, routing rules, governance,
SLOs, arrivals, heavy hitters, caches, totals (engine, query, optimizer,
latency, consensus and slow-log counters), performance history, events,
recent skew alerts and the slow-log tail. It never reads the instance, so a
saved bundle renders exactly as the live instance did.
"""

from __future__ import annotations

from repro.obsv.cat import (
    cat_caches,
    cat_exec,
    cat_hotkeys,
    cat_nodes,
    cat_rules,
    cat_slo,
    cat_tenants,
)
from repro.obsv.config import TOP_K
from repro.obsv.skew import Alert, describe_window
from repro.obsv.slowlog import SlowLogEntry
from repro.telemetry.events import Event
from repro.telemetry.timeseries import DASHBOARD_SERIES, sparkline

#: Heat ramp from cold to hot, index scaled by load relative to the max.
_HEAT = " .:-=+*#%@"
#: Shards rendered per heatmap line.
_HEAT_WRAP = 64
#: The SLO section's sparkline rows.
_SLO_SERIES = (
    ("budget min %", "slo.budget_min_pct"),
    ("burn fast max", "slo.burn_fast_max"),
    ("burn slow max", "slo.burn_slow_max"),
)


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


def history_lines(timeseries: dict, rows=DASHBOARD_SERIES) -> list[str]:
    """One sparkline line per ``(label, series name)`` row that has
    samples in a snapshot's ``timeseries`` section."""
    values_by_name = {
        series["name"]: series["values"]
        for series in timeseries["series"]
        if not series["labels"]
    }
    lines = []
    for label, name in rows:
        values = values_by_name.get(name)
        if not values:
            continue
        lines.append(f"  {label:<14} {sparkline(values, width=40)} last={values[-1]:.3f}")
    return lines


def _burn_alert_line(alert: dict) -> str:
    """One SLO burn alert (a snapshot ``slo.alerts`` entry)."""
    return (
        f"  {alert['kind']} {alert['slo']} @ t={alert['time']:.2f} "
        f"burn={alert['fast_burn']:.2f}/{alert['slow_burn']:.2f} "
        f"budget={alert['budget_remaining_pct']:.1f}%"
    )


def render_dashboard(snap: dict) -> str:
    """One text page of cluster health: the operator's ``watch`` target."""
    cluster = snap["cluster"]
    totals = cluster["totals"]
    sections = [
        (
            f"== esdb dashboard :: {totals['nodes']} nodes / "
            f"{totals['shards']} shards / {totals['docs']} docs / "
            f"t={cluster['time']:.2f} =="
        ),
        "",
        "-- nodes --",
        cat_nodes(snap).render(),
        "",
        "-- shard heatmap (docs) --",
        shard_heatmap({row["shard"]: row["docs"] for row in cluster["shards"]}),
        "",
        f"-- top {TOP_K} tenants --",
        cat_tenants(snap, k=TOP_K).render(),
    ]
    rules = cat_rules(snap)
    if len(rules):
        sections += ["", "-- routing rules --", rules.render()]
    tenancy = cluster.get("tenancy")
    if tenancy is not None:
        counts = tenancy["totals"]
        sections += [
            "",
            "-- tenancy governance --",
            (
                f"  {counts['admitted']} admitted / {counts['queued']} queued / "
                f"{counts['shed']} shed, queue depth "
                f"{tenancy['queue_depth']}/{tenancy['queue_capacity']}, "
                f"{counts['demotions']} demotion(s)"
            ),
        ]
    slo = cluster.get("slo")
    if slo is not None:
        sections += ["", "-- slo --", cat_slo(snap).render()]
        sections += history_lines(cluster["timeseries"], _SLO_SERIES)
        sections += [_burn_alert_line(alert) for alert in slo["alerts"][-5:]]
    arrivals = cluster.get("arrivals")
    if arrivals is not None:
        quantiles = arrivals["interarrival"]
        sections += [
            "",
            "-- workload arrivals --",
            (
                f"  {arrivals['count']} arrivals @ {arrivals['realized_rate']:.1f}/s, "
                f"burstiness {arrivals['burstiness']:+.2f}"
            ),
            (
                f"  interarrival p50={quantiles['p50'] * 1000:.1f}ms "
                f"p95={quantiles['p95'] * 1000:.1f}ms "
                f"p99={quantiles['p99'] * 1000:.1f}ms"
            ),
            (
                f"  live flash tenants {arrivals['live_tenants']} "
                f"(peak {arrivals['peak_live_tenants']})"
            ),
        ]
    if "hotkeys" in cluster:
        sections += ["", "-- heavy hitters --"]
        hot_table = cat_hotkeys(snap, k=3)
        if len(hot_table):
            sections.append(hot_table.render())
        else:
            sections.append("  (no traffic profiled)")
    sections += ["", "-- caches --", cat_caches(snap).render()]
    exec_table = cat_exec(snap)
    if len(exec_table):
        sections += ["", "-- batched execution --", exec_table.render()]
    sections += ["", "-- totals --"] + _totals_lines(cluster)
    sections += ["", "-- performance history --"]
    timeseries = cluster["timeseries"]
    history = history_lines(timeseries)
    if not timeseries["capacity"]:
        sections.append("  (history disabled)")
    elif not history:
        sections.append("  (no samples)")
    else:
        sections += history + [
            f"  {timeseries['samples']} samples @ {timeseries['interval']:g}s "
            f"logical interval, ring capacity {timeseries['capacity']}"
        ]
    events = cluster["events"]
    kinds = ", ".join(
        f"{kind}={count}" for kind, count in sorted(events["counts"].items())
    )
    sections += ["", "-- events --", f"  {kinds or '(none)'}"]
    sections += [f"  {Event(**event).describe()}" for event in events["recent"][-5:]]
    observer = cluster.get("obsv")
    if observer is not None:
        sections += ["", "-- skew alerts --"]
        alerts = observer["alerts"][-5:]
        if alerts:
            sections += [f"  {Alert(**alert).describe()}" for alert in alerts]
        else:
            sections.append("  (none)")
        windows = observer["skew"]["windows"]
        if windows:
            sections.append(f"  last window: {describe_window(windows[-1])}")
        sections += ["", "-- slow log tail --"]
        slowlog = observer["slowlog"]
        # The newest 8 of both retained tails, whichever log they sit in.
        tail = sorted(slowlog["index"] + slowlog["search"], key=lambda e: e["time"])
        if tail:
            sections += [
                f"  {SlowLogEntry(**{'trace': None, **entry}).describe()}"
                for entry in tail[-8:]
            ]
        else:
            sections.append("  (empty)")
    return "\n".join(sections)


def _totals_lines(cluster: dict) -> list[str]:
    """Engine, query, optimizer, latency and consensus totals, and each
    slow log's per-level counts when the observer is on."""
    engines = cluster["engines"]
    lines = [
        f"  engines: {engines['writes']} writes, {engines['refreshes']} refreshes, "
        f"{engines['merges']} merges, {engines['segments']} live segments"
    ]
    queries = cluster["queries"]
    if queries["fanned_out"]:
        lines.append(
            f"  queries: {queries['executed']} executed, {queries['fanned_out']} fanned out, "
            f"avg fan-out {queries['subqueries'] / queries['fanned_out']:.1f} shard(s)"
        )
    if queries["plan_picks"]:
        picks = ", ".join(
            f"{path}={count}" for path, count in sorted(queries["plan_picks"].items())
        )
        lines.append(f"  optimizer picks: {picks}")
    lines += [
        f"  {op} latency: p50={p['p50'] * 1e3:.3f}ms p95={p['p95'] * 1e3:.3f}ms "
        f"p99={p['p99'] * 1e3:.3f}ms max={p['max'] * 1e3:.3f}ms"
        for op in ("write", "query")
        if (p := cluster["latency"].get(op)) is not None
    ]
    rounds = cluster["consensus"]
    if rounds:
        lines.append(
            f"  consensus rounds: {rounds.get('committed', 0)} committed, "
            f"{rounds.get('aborted', 0)} aborted"
        )
    observer = cluster.get("obsv")
    if observer is not None:
        counts = observer["slowlog"]["counts"]
        lines += [
            f"  slowlog[{log}]: {counts[log]['warn']} warn / {counts[log]['info']} info"
            for log in ("index", "search")
        ]
    return lines
