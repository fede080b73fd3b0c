"""The text instance report, rendered from a snapshot.

``render_report(snap)`` renders the dict :func:`repro.obsv.snapshot`
returns as named sections — topology and per-node documents, engine
totals, query, optimizer, latency, cache and consensus counters,
performance history, slow logs, skew, governance, SLOs, heavy hitters and
committed routing rules — joined in sorted section-name order
(deterministic output for diffing). A section whose subsystem is off, or
whose counters are all zero (telemetry disabled), is omitted.
"""

from __future__ import annotations

from itertools import groupby

from repro.obsv.dashboard import history_lines
from repro.obsv.skew import Alert
from repro.obsv.slowlog import describe_slowlog


def render_report(snap: dict) -> str:
    """Human-readable instance report of one snapshot."""
    cluster = snap["cluster"]
    sections: dict[str, list[str]] = {
        "cluster": [cluster["describe"], "documents per node:"]
        + [f"  {row['node']}: {row['docs']}" for row in cluster["nodes"]],
    }
    engines = cluster["engines"]
    sections["engines"] = [
        f"engines: {engines['writes']} writes, {engines['refreshes']} refreshes, "
        f"{engines['merges']} merges, {engines['segments']} live segments"
    ]
    queries = cluster["queries"]
    if queries["executed"]:
        sections["queries"] = [
            f"queries: {queries['executed']} executed, avg fan-out "
            f"{queries['subqueries'] / queries['executed']:.1f} shard(s)"
        ]
    if queries["plan_picks"]:
        rendered = ", ".join(
            f"{path}={count}" for path, count in sorted(queries["plan_picks"].items())
        )
        sections["optimizer"] = [f"optimizer picks: {rendered}"]
    latency = [
        f"{op} latency: p50={p['p50'] * 1e3:.3f}ms p95={p['p95'] * 1e3:.3f}ms "
        f"p99={p['p99'] * 1e3:.3f}ms max={p['max'] * 1e3:.3f}ms"
        for op in ("write", "query")
        if (p := cluster["latency"].get(op)) is not None
    ]
    if latency:
        sections["latency"] = latency
    caches = [
        f"cache[{row['level']}]: {row['hits']} hits / {row['misses']} misses "
        f"({row['hit_pct']:.1f}% hit), {row['evictions']} evictions, "
        f"{row['bytes']} bytes"
        for row in cluster["caches"]
        if row["hits"] + row["misses"]
    ]
    if caches:
        sections["cache"] = caches
    rounds = cluster["consensus"]
    if rounds:
        sections["consensus"] = [
            f"consensus rounds: {rounds.get('committed', 0)} committed, "
            f"{rounds.get('aborted', 0)} aborted"
        ]
    timeseries = cluster["timeseries"]
    if timeseries["capacity"]:
        sections["timeseries"] = [
            f"history: {timeseries['samples']} samples @ "
            f"{timeseries['interval']:g}s, {len(timeseries['series'])} series"
        ] + history_lines(timeseries, width=32, with_max=True)
    if "obsv" in cluster:
        sections.update(_observer_sections(cluster))
    if "tenancy" in cluster:
        sections["tenancy"] = _tenancy_lines(cluster["tenancy"])
    if "slo" in cluster:
        sections["slo"] = _slo_lines(cluster["slo"])
    if "hotkeys" in cluster:
        sections["hotkeys"] = _hotkeys_lines(cluster["hotkeys"])
    if "rule_count" in cluster:
        sections["routing"] = _routing_lines(cluster)
    return "\n".join(line for name in sorted(sections) for line in sections[name])


def _observer_sections(cluster: dict) -> dict[str, list[str]]:
    """The ``slowlog`` and ``skew`` sections."""
    sections: dict[str, list[str]] = {}
    slow_lines = [
        describe_slowlog(log, summary)
        for log in ("index", "search")
        if (summary := cluster["slowlogs"][log])["retained"]
        or summary["warn"] + summary["info"]
    ]
    if slow_lines:
        sections["slowlog"] = slow_lines
    observer = cluster["obsv"]
    windows = observer["skew"]["windows"]
    if windows:
        window = windows[-1]
        shard, tenant = window["shard"], window["tenant"]
        skew_lines = [
            (
                f"skew[shard]: cv={shard['cv']:.3f} gini={shard['gini']:.3f} "
                f"max/mean={shard['max_mean']:.2f} "
                f"(window [{window['start']:.2f}, {window['end']:.2f}), "
                f"{window['writes']} writes)"
            ),
            (
                f"skew[tenant]: cv={tenant['cv']:.3f} gini={tenant['gini']:.3f} "
                f"max/mean={tenant['max_mean']:.2f}"
            ),
        ]
        alerts = observer["alerts"]
        if alerts:
            skew_lines.append(
                f"skew alerts: {len(alerts)} (latest {Alert(**alerts[-1]).describe()})"
            )
        sections["skew"] = skew_lines
    return sections


def _tenancy_lines(tenancy: dict) -> list[str]:
    totals = tenancy["totals"]
    lines = [
        f"tenancy: {totals['admitted']} admitted "
        f"({totals['queued']} via backpressure queue), "
        f"{totals['shed']} shed across {totals['tenants']} tenant(s)"
    ]
    demotions = tenancy["demotions"]
    if demotions:
        latest = demotions[-1]
        reason = latest["reason"]
        lines.append(
            f"tenancy demotions: {len(demotions)} (latest {latest['tenant']} "
            f"@ t={latest['time']:.2f}{': ' + reason if reason else ''})"
        )
    return lines


def _slo_lines(slo: dict) -> list[str]:
    objectives = slo["objectives"]
    lines = [
        f"slo: {len(objectives)} objective(s), {slo['evaluations']} evaluation(s), "
        f"{sum(row['burn_alerts'] for row in objectives)} burn alert(s)"
    ]
    for row in objectives:
        lines.append(
            f"  {row['slo']}: {row['op']}/{row['kind']} "
            f"target={row['objective']:.3f} good={row['good']} "
            f"bad={row['bad']} budget={row['budget_remaining_pct']:.1f}% "
            f"burn={row['fast_burn']:.2f}/{row['slow_burn']:.2f} "
            f"[{row['state']}]"
        )
    return lines


def _hotkeys_lines(hotkeys: dict) -> list[str]:
    lines = [
        f"hotkeys: capacity={hotkeys['sketch_capacity']} "
        f"tenants={len(hotkeys['tenants'])} shards={len(hotkeys['shards'])} "
        f"decays={hotkeys['decays']} dropped_tenants={hotkeys['dropped_tenants']}"
    ]
    for label, dimension in (
        ("routing", "routing_keys"),
        ("terms", "filter_terms"),
        ("queries", "query_fingerprints"),
    ):
        top = hotkeys[dimension]["top"][:3]
        rendered = ", ".join(
            f"{entry['key']}={entry['count']:.0f}(±{entry['error']:.0f})"
            for entry in top
        )
        lines.append(f"  {label}: {rendered or '(none)'}")
    return lines


def _routing_lines(cluster: dict) -> list[str]:
    """The committed rules, ten at most, five tenants each (the snapshot's
    ``rules`` rows hold one row per rule and tenant, in rule order)."""
    lines = [f"routing rules: {cluster['rule_count']} committed"]
    by_rule = [
        (rule, [row["tenant"] for row in rows])
        for rule, rows in groupby(
            cluster["rules"], key=lambda row: (row["effective_time"], row["offset"])
        )
    ]
    for (effective_time, offset), tenants in by_rule[:10]:
        suffix = ", ..." if len(tenants) > 5 else ""
        lines.append(
            f"  t={effective_time:.2f} s={offset} "
            f"tenants=[{', '.join(tenants[:5])}{suffix}]"
        )
    return lines
