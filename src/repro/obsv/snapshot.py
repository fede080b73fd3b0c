"""The one reader of operator state: ``snapshot(db)``.

Every operator surface — the text dashboard, the ``_cat`` tables,
``python -m repro.obsv --json`` and the flight-recorder bundle —
renders the JSON-ready dict :func:`snapshot` returns and never touches the
instance, so a bundle loaded from disk renders exactly as the live
instance did. The functions below are the only code that reads the
facade's subsystems (governor, SLO engine, profiler, observer, history,
event log, fault injector); a ``cat_*`` table over a live instance calls
the one ``read_*`` it needs instead of taking a whole snapshot. One
snapshot reads each subsystem once: the ``cluster`` section shares the SLO
and profiler dumps with the top-level ``slo`` / ``hotkeys`` sections.

The dict is the diagnostics bundle (schema :data:`BUNDLE_SCHEMA_VERSION`).
Sections for an optional subsystem are absent from ``cluster`` when it is
off; the top-level ``slo`` / ``hotkeys`` sections are always present and
well-formed empty instead.
"""

from __future__ import annotations

from repro.routing import DynamicSecondaryHashRouting

#: Bumped whenever a required key is added/renamed; validators pin it.
#: v2 added the always-present ``slo`` / ``hotkeys`` sections; v3 dropped
#: the sampler settings from ``tracing``.
BUNDLE_SCHEMA_VERSION = 3

#: Finished traces serialised into a snapshot, besides the slow-log ones.
MAX_SNAPSHOT_TRACES = 20


def format_cell(value) -> str:
    """One table cell as text: floats to at most three decimals, trailing
    zeros dropped; everything else via ``str``."""
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def snapshot(db) -> dict:
    """Everything an operator can see of *db*, as one JSON-ready dict."""
    slo = read_slo(db)
    hotkeys = db.hotkeys.snapshot() if db.hotkeys is not None else None
    return {
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "kind": "esdb-diagnostics",
        "time": float(db.now),
        "cluster": read_cluster(db, slo, hotkeys),
        "metrics": db.telemetry.metrics.snapshot(),
        "events": read_events(db),
        "faults": read_faults(db),
        "traces": read_traces(db),
        "tracing": {
            "enabled": db.config.tracing.enabled,
            "traces_started": db.trace_ids.issued if db.trace_ids is not None else 0,
        },
        "slo": slo,
        "hotkeys": hotkeys if hotkeys is not None else {
            "enabled": False,
            "sketch_capacity": 0,
            "decays": 0,
            "dropped_tenants": 0,
            "concentration_pct": 0.0,
            "shards": {},
            "tenants": {},
        },
    }


def read_traces(db) -> list:
    """The ``traces`` section: the last finished traces, then every tree a
    retained slow-log entry points at by ``trace_id`` — each tree written
    once. Maintenance spans carry no trace id and are kept as they are."""
    trees = list(db.telemetry.tracer.finished)[-MAX_SNAPSHOT_TRACES:]
    if db.obsv is not None:
        trees += db.obsv.slow_traces()
    seen = set()
    out = []
    for tree in trees:
        key = tree.trace_id if tree.trace_id is not None else id(tree)
        if key not in seen:
            seen.add(key)
            out.append(tree.to_dict())
    return out


def read_cluster(db, slo: dict, hotkeys: dict | None) -> dict:
    """The ``cluster`` section (``python -m repro.obsv --json``): the
    ``_cat`` rows plus the dashboard's engine, query, latency and consensus
    totals, over the *slo* (:func:`read_slo`) and *hotkeys* (the
    profiler's, None without profiling) dumps :func:`snapshot` read. Engine
    totals come from the registry, or from each engine's local
    ``EngineStats`` when telemetry is off."""
    shard_rows = read_shards(db)
    metrics = db.telemetry.metrics
    engines = db.engines.values()
    kinds = ("writes", "refreshes", "merges")
    if db.telemetry.enabled:
        engine_totals = {kind: int(metrics.total(f"engine_{kind}_total")) for kind in kinds}
    else:
        engine_totals = {
            kind: sum(getattr(engine.stats, kind) for engine in engines) for kind in kinds
        }
    latency = {}
    for op in ("write", "query"):
        histogram = metrics.get(f"esdb_{op}_seconds")
        if histogram is not None and histogram.count:
            latency[op] = histogram.summary()
    cluster = {
        "time": db.now,
        "totals": {
            "nodes": db.cluster.num_nodes,
            "shards": db.cluster.num_shards,
            "docs": sum(row["docs"] for row in shard_rows),
        },
        "nodes": read_nodes(db),
        "shards": shard_rows,
        "tenants": read_tenants(db),
        "rules": read_rules(db),
        "caches": read_caches(db),
        "exec": read_exec(db),
        "engines": {
            **engine_totals,
            "segments": sum(engine.segment_count() for engine in engines),
        },
        "queries": {
            "executed": int(metrics.total("esdb_queries_total")),
            # esdb_query_seconds observes each statement that fanned out
            # (a result-cache hit does not), as esdb_subqueries_total counts.
            "fanned_out": latency.get("query", {}).get("count", 0),
            "subqueries": int(metrics.total("esdb_subqueries_total")),
            "plan_picks": {
                metric.labels["path"]: int(metric.value)
                for metric in metrics.series("optimizer_plan_picks_total")
            },
        },
        "latency": latency,
        "consensus": {
            metric.labels["outcome"]: int(metric.value)
            for metric in metrics.series("consensus_rounds_total")
        },
        "timeseries": read_timeseries(db),
        "events": {
            "counts": db.events.counts(),
            "total": db.events.total,
            "recent": db.events.to_dicts(limit=20),
        },
        "hotkey_table": hotkey_rows(hotkeys) if hotkeys is not None else [],
    }
    if isinstance(db.policy, DynamicSecondaryHashRouting):
        cluster["rule_count"] = len(db.policy.rules)
    if db.governor is not None:
        cluster["tenancy"] = read_tenancy(db)
    if db.slo is not None:
        cluster["slo"] = slo
    if hotkeys is not None:
        cluster["hotkeys"] = hotkeys
    arrivals = getattr(db, "arrivals", None)  # set by a trace replay only
    if arrivals is not None:
        cluster["arrivals"] = arrivals.summary()
    observer = db.obsv
    if observer is not None:
        cluster["obsv"] = observer.snapshot()
    return cluster


def read_nodes(db) -> list[dict]:
    """One row per cluster node: roles, health, shard placement, load."""
    cluster = db.cluster
    docs_per_node = {node.node_id: 0 for node in cluster.nodes}
    for shard_id, engine in db.engines.items():
        docs_per_node[cluster.shard(shard_id).node_id] += (
            engine.total_docs_including_buffer()
        )
    return [
        {
            "node": node.name,
            "roles": ("m" if node.is_master else "") + "cw",
            "health": "up" if node.alive else "down",
            "primaries": len(node.shard_ids),
            "replicas": len(node.replica_shard_ids),
            "docs": docs_per_node[node.node_id],
            "capacity": node.capacity,
        }
        for node in cluster.nodes
    ]


def read_shards(db) -> list[dict]:
    """One row per primary shard; documents include the unrefreshed buffer."""
    return [
        {
            "shard": shard_id,
            "node": f"node-{db.cluster.shard(shard_id).node_id}",
            "docs": db.engines[shard_id].total_docs_including_buffer(),
            "segments": db.engines[shard_id].segment_count(),
            "replicas": len(db.cluster.replicas.get(shard_id, [])),
        }
        for shard_id in sorted(db.engines)
    ]


def read_tenants(db) -> list[dict]:
    """One row per observed tenant, most stored documents first:
    cumulative storage, last-window load, the query fan-out the rule list
    grants and — on a governed instance only — the governance columns."""
    storage = db.monitor.storage()
    window = {stat.tenant_id: stat for stat in db.monitor.stats()}
    governor = db.governor
    rows = []
    for tenant in sorted(
        set(storage) | set(window), key=lambda t: (-storage.get(t, 0), str(t))
    ):
        stat = window.get(tenant)
        row = {
            "tenant": str(tenant),
            "docs": storage.get(tenant, 0),
            "window_writes": stat.writes if stat else 0,
            "window_share": stat.share if stat else 0.0,
            "span": db.policy.span(tenant),
        }
        if governor is not None:
            admitted, _, shed = governor.tenant_counts(tenant)
            row["qos"] = governor.qos_of(tenant, db.now)
            row["admitted"] = admitted
            row["shed"] = shed
            row["demoted"] = "yes" if governor.is_demoted(tenant, db.now) else "no"
        rows.append(row)
    return rows


def read_rules(db) -> list[dict]:
    """One row per (committed secondary hashing rule, tenant), in rule
    order, with the skew measurement that triggered it when the observer
    annotated the commit."""
    if not isinstance(db.policy, DynamicSecondaryHashRouting):
        return []
    rules = db.policy.rules
    annotations = {
        (a.effective_time, a.offset, a.tenant): a for a in rules.annotations()
    }
    rows = []
    for rule in rules:
        for tenant in sorted(map(str, rule.tenants)):
            note = annotations.get((rule.effective_time, rule.offset, tenant))
            rows.append(
                {
                    "effective_time": rule.effective_time,
                    "offset": rule.offset,
                    "tenant": tenant,
                    "why": note.reason if note is not None else "",
                }
            )
    return rows


def read_caches(db) -> list[dict]:
    """One row per query-cache level: hit rate, evictions, bytes held; and
    the statement-shape map, whose hits are binds and misses compiles (it
    keeps a shape count, not a byte budget)."""
    metrics = db.telemetry.metrics
    levels = [
        (
            level,
            db.config.cache,
            metrics.value("cache_hits_total", level=level),
            metrics.value("cache_misses_total", level=level),
            metrics.value("cache_evictions_total", level=level),
            metrics.value("cache_bytes", level=level),
        )
        for level in ("filter", "request", "result")
    ]
    levels.append((
        "shapes",
        True,
        metrics.value("query_shapes_total", outcome="bind"),
        metrics.value("query_shapes_total", outcome="compile")
        + metrics.value("query_shapes_total", outcome="unstable"),
        metrics.value("query_shape_evictions_total"),
        0,
    ))
    return [
        {
            "level": level,
            "enabled": "on" if on else "off",
            "hits": int(hits),
            "misses": int(misses),
            "hit_pct": 100.0 * hits / (hits + misses) if hits + misses else 0.0,
            "evictions": int(evictions),
            "bytes": int(held),
        }
        for level, on, hits, misses, evictions, held in levels
    ]


def read_exec(db) -> list[dict]:
    """Bulk-write volumes; empty on an instance that never bulk-wrote."""
    metrics = db.telemetry.metrics
    rows = []
    bulk_writes = int(metrics.value("esdb_bulk_writes_total"))
    if bulk_writes:
        rows.append({"stat": "bulk", "detail": "batches", "value": bulk_writes})
        docs = int(metrics.value("esdb_bulk_docs_total"))
        rows.append({"stat": "bulk", "detail": "docs", "value": docs})
    return rows


def read_timeseries(db) -> dict:
    """The performance-history store's dump; well-formed empty (capacity
    0, which a live store never has) when history is disabled."""
    if db.timeseries is None:
        return {
            "interval": 0.0,
            "capacity": 0,
            "samples": 0,
            "dropped_series": 0,
            "series": [],
        }
    return db.timeseries.snapshot()


def read_tenancy(db) -> dict | None:
    """The governor's totals, queue and per-tenant rows; None if ungoverned."""
    return db.governor.snapshot(db.now) if db.governor is not None else None


def read_hotkey_table(db) -> list[dict]:
    """``cat_hotkeys`` rows of a live instance; empty without profiling."""
    return hotkey_rows(db.hotkeys.snapshot()) if db.hotkeys is not None else []


def hotkey_rows(hotkeys: dict) -> list[dict]:
    """``cat_hotkeys`` rows of one profiler snapshot: the top ``TOP_K`` of
    each sketch with its count-error bound, global scope first in each
    dimension, then shards and tenants in sorted order."""
    rows = []
    for dimension, sketch, scoped in (
        ("routing_key", "routing_keys", (("shard", "shards"), ("tenant", "tenants"))),
        ("filter_term", "filter_terms", (("tenant", "tenant_terms"),)),
        ("query_fingerprint", "query_fingerprints", (("tenant", "tenant_fingerprints"),)),
    ):
        sketches = [("global", "-", hotkeys[sketch])]
        sketches += [
            (scope, subject, top) for scope, key in scoped
            for subject, top in hotkeys[key].items()
        ]
        rows += [
            {"dimension": dimension, "scope": scope, "subject": subject, "rank": rank,
             "key": entry["key"], "count": round(entry["count"], 3),
             "error": round(entry["error"], 3)}
            for scope, subject, top in sketches
            for rank, entry in enumerate(top["top"], 1)
        ]
    return rows


def read_events(db) -> dict:
    """Per-kind totals plus every retained event as a table row (oldest
    first, detail flattened to ``key=value`` text)."""
    entries = [
        {
            "at": round(event.time, 3),
            "kind": event.kind,
            "tenant": event.tenant if event.tenant is not None else "",
            "trace_id": event.trace_id if event.trace_id is not None else "",
            "shard": event.shard if event.shard is not None else "",
            "detail": ",".join(
                f"{key}={format_cell(value)}"
                for key, value in sorted(event.detail.items())
            ),
        }
        for event in db.events.query()
    ]
    return {"counts": db.events.counts(), "total": db.events.total, "entries": entries}


def read_faults(db) -> list[dict]:
    """One row per fault-injection action (inject / recover / skip), in
    chronological order; an inject still in force reads ``active``."""
    injector = db.faults
    if injector is None:
        return []
    active = {(fault.kind, fault.target) for fault in injector.active_faults()}
    return [
        {
            "at": round(at, 3),
            "status": (
                "active" if action == "inject" and (kind, target) in active else action
            ),
            "kind": kind,
            "target": str(target),
            "detail": detail,
        }
        for at, action, kind, target, detail in injector.log
    ]


def read_slo(db) -> dict:
    """The SLO engine's objectives and burn alerts; well-formed empty
    when SLO tracking is disabled."""
    if db.slo is None:
        return {"enabled": False, "evaluations": 0, "objectives": [], "alerts": []}
    return db.slo.snapshot()
