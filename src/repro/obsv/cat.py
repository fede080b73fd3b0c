"""``_cat``-style snapshot APIs: aligned-column text tables over live state.

Elasticsearch operators live in ``GET _cat/nodes`` and friends; this module
is the same surface for the reproduction. Each ``cat_*`` function takes an
:class:`~repro.esdb.ESDB`-shaped object (duck-typed — only ``cluster``,
``engines``, ``monitor``, ``policy``, ``telemetry`` and friends are
touched, never imported) and returns a :class:`CatTable`: structured rows
(``.rows`` / ``.to_dicts()``) plus an aligned text rendering (``.render()``)
with numeric columns right-aligned, exactly like the real ``_cat`` output.
"""

from __future__ import annotations

from numbers import Number


class CatTable:
    """A column-aligned table of snapshot rows.

    ``columns`` is the header tuple; ``rows`` is a list of equally long
    tuples. Rendering right-aligns columns whose values are all numeric.
    """

    def __init__(self, name: str, columns, rows) -> None:
        self.name = name
        self.columns = tuple(columns)
        self.rows = [tuple(row) for row in rows]
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"cat[{name}]: row width {len(row)} != {len(self.columns)} columns"
                )

    def __len__(self) -> int:
        return len(self.rows)

    def to_dicts(self) -> list[dict]:
        """Rows as ``{column: value}`` dicts (the JSON shape)."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def render(self) -> str:
        """Aligned-column text: header line, then one line per row."""
        cells = [list(self.columns)] + [
            [self._format(value) for value in row] for row in self.rows
        ]
        widths = [
            max(len(line[i]) for line in cells) for i in range(len(self.columns))
        ]
        numeric = [
            all(isinstance(row[i], Number) for row in self.rows) if self.rows else False
            for i in range(len(self.columns))
        ]
        lines = []
        for line_no, line in enumerate(cells):
            parts = []
            for i, text in enumerate(line):
                if numeric[i] and line_no > 0:
                    parts.append(text.rjust(widths[i]))
                else:
                    parts.append(text.ljust(widths[i]))
            lines.append(" ".join(parts).rstrip())
        return "\n".join(lines)

    @staticmethod
    def _format(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
        return str(value)


# -- the five cat surfaces ---------------------------------------------------


def _engine_docs(engine) -> int:
    """Documents a shard holds, counting the not-yet-refreshed buffer too —
    the operator's 'how much did I ingest' number."""
    total = getattr(engine, "total_docs_including_buffer", None)
    return total() if total is not None else engine.doc_count()


def cat_nodes(db) -> CatTable:
    """One row per cluster node: roles, health, shard placement, load."""
    cluster = db.cluster
    docs_per_node: dict[int, int] = {n.node_id: 0 for n in cluster.nodes}
    for shard_id, engine in db.engines.items():
        docs_per_node[cluster.shard(shard_id).node_id] += _engine_docs(engine)
    rows = []
    for node in cluster.nodes:
        roles = "".join(
            flag
            for flag, present in (
                ("m", node.is_master),
                ("c", True),
                ("w", True),
            )
            if present
        )
        rows.append(
            (
                node.name,
                roles,
                "up" if node.alive else "down",
                len(node.shard_ids),
                len(node.replica_shard_ids),
                docs_per_node[node.node_id],
                node.capacity,
            )
        )
    return CatTable(
        "nodes",
        ("node", "roles", "health", "primaries", "replicas", "docs", "capacity"),
        rows,
    )


def cat_shards(db) -> CatTable:
    """One row per primary shard: placement, document count, segments."""
    cluster = db.cluster
    rows = []
    for shard_id in sorted(db.engines):
        engine = db.engines[shard_id]
        shard = cluster.shard(shard_id)
        replicas = len(cluster.replicas.get(shard_id, []))
        rows.append(
            (
                shard_id,
                f"node-{shard.node_id}",
                _engine_docs(engine),
                engine.segment_count(),
                replicas,
            )
        )
    return CatTable(
        "shards", ("shard", "node", "docs", "segments", "replicas"), rows
    )


def cat_tenants(db, k: int | None = None) -> CatTable:
    """One row per observed tenant: cumulative storage, last-window load,
    and the current query fan-out (shard span) the rule list grants.

    On a governed instance (``db.governor`` set) the table gains the
    governance columns ``qos`` / ``admitted`` / ``shed`` / ``demoted``;
    without a governor the table keeps its historical shape exactly.
    """
    monitor = db.monitor
    storage = monitor.storage()
    window = {stat.tenant_id: stat for stat in monitor.stats()}
    governor = getattr(db, "governor", None)
    tenants = sorted(
        set(storage) | set(window),
        key=lambda t: (-storage.get(t, 0), str(t)),
    )
    if k is not None:
        tenants = tenants[:k]
    columns = ("tenant", "docs", "window_writes", "window_share", "span")
    if governor is not None:
        columns += ("qos", "admitted", "shed", "demoted")
    rows = []
    for tenant in tenants:
        stat = window.get(tenant)
        span = len(db.policy.query_shards(tenant))
        row = (
            str(tenant),
            storage.get(tenant, 0),
            stat.writes if stat else 0,
            stat.share if stat else 0.0,
            span,
        )
        if governor is not None:
            admitted, _, shed = governor.tenant_counts(tenant)
            row += (
                governor.qos_of(tenant, db.now),
                admitted,
                shed,
                "yes" if governor.is_demoted(tenant, db.now) else "no",
            )
        rows.append(row)
    return CatTable("tenants", columns, rows)


def cat_rules(db) -> CatTable:
    """One row per committed secondary hashing rule, with the skew
    measurement that triggered it when the observer annotated the commit."""
    rules = getattr(db.policy, "rules", None)
    rows = []
    if rules is not None:
        annotations = {
            (a.effective_time, a.offset, a.tenant): a
            for a in getattr(rules, "annotations", lambda: [])()
        }
        for rule in rules:
            for tenant in sorted(map(str, rule.tenants)):
                note = annotations.get((rule.effective_time, rule.offset, tenant))
                rows.append(
                    (
                        rule.effective_time,
                        rule.offset,
                        tenant,
                        note.reason if note is not None else "",
                    )
                )
    return CatTable("rules", ("effective_time", "offset", "tenant", "why"), rows)


def cat_timeseries(db, k: int | None = None, spark_width: int = 24) -> CatTable:
    """One row per recorded performance-history series: sample count,
    last/min/max/mean over the retained ring window, and a sparkline.

    Works against any ``TimeSeriesStore``-carrying object; an instance
    whose store is disabled (``db.timeseries is None``) yields an empty,
    well-formed table.
    """
    from repro.telemetry.timeseries import sparkline

    store = getattr(db, "timeseries", None)
    rows = []
    if store is not None:
        series_list = store.all_series()
        if k is not None:
            series_list = series_list[:k]
        for series in series_list:
            summary = series.summary()
            labels = ",".join(
                f"{key}={value}" for key, value in sorted(
                    series.labels.items(), key=lambda kv: str(kv[0])
                )
            )
            rows.append(
                (
                    series.name,
                    labels,
                    summary["count"],
                    round(summary["last"], 3),
                    round(summary["min"], 3),
                    round(summary["max"], 3),
                    round(summary["mean"], 3),
                    sparkline(series.values(), width=spark_width),
                )
            )
    return CatTable(
        "timeseries",
        ("series", "labels", "samples", "last", "min", "max", "mean", "spark"),
        rows,
    )


def cat_caches(db) -> CatTable:
    """One row per query-cache level: hit rate, evictions, bytes held."""
    metrics = db.telemetry.metrics
    cache_config = db.config.cache
    enabled = {
        "filter": cache_config.filter_cache_enabled,
        "request": cache_config.request_cache_enabled,
        "result": cache_config.result_cache_enabled,
    }
    rows = []
    for level in ("filter", "request", "result"):
        hits = int(metrics.value("cache_hits_total", level=level))
        misses = int(metrics.value("cache_misses_total", level=level))
        evictions = int(metrics.value("cache_evictions_total", level=level))
        size = int(metrics.value("cache_bytes", level=level))
        rate = 100.0 * hits / (hits + misses) if hits + misses else 0.0
        rows.append(
            (
                level,
                "on" if enabled[level] else "off",
                hits,
                misses,
                rate,
                evictions,
                size,
            )
        )
    return CatTable(
        "caches",
        ("level", "enabled", "hits", "misses", "hit_pct", "evictions", "bytes"),
        rows,
    )


def cat_exec(db) -> CatTable:
    """One row per batched-execution statistic: bulk-write volumes and
    shared-scan savings.

    An instance that never used :meth:`ESDB.bulk_write` or
    :meth:`ESDB.execute_batch` yields an empty, well-formed table.
    """
    metrics = db.telemetry.metrics
    rows = []
    bulk_writes = int(metrics.value("esdb_bulk_writes_total"))
    if bulk_writes:
        rows.append(("bulk", "batches", bulk_writes))
        rows.append(("bulk", "docs", int(metrics.value("esdb_bulk_docs_total"))))
    for series in metrics.series("exec_shared_groups_total"):
        rows.append(("shared", "groups:" + str(series.labels.get("kind", "")),
                     int(series.value)))
    saved = int(metrics.total("exec_shared_saved_total"))
    if saved:
        rows.append(("shared", "queries_saved", saved))
    return CatTable("exec", ("stat", "detail", "value"), rows)


def cat_faults(db) -> CatTable:
    """One row per fault-injection action (inject / recover / skip), in
    chronological order, plus the set of currently active faults.

    Reads the :class:`~repro.faults.injector.FaultInjector` the facade
    lazily attaches as ``db.faults``; an instance that never injected a
    fault yields an empty, well-formed table.
    """
    injector = getattr(db, "faults", None)
    rows = []
    if injector is not None:
        active = {(fault.kind, fault.target) for fault in injector.active_faults()}
        for at, action, kind, target, detail in injector.log:
            status = (
                "active"
                if action == "inject" and (kind, target) in active
                else action
            )
            rows.append((round(at, 3), status, kind, str(target), detail))
    return CatTable("faults", ("at", "status", "kind", "target", "detail"), rows)


def cat_events(
    db,
    kind: str | None = None,
    tenant: str | None = None,
    trace_id: str | None = None,
    k: int | None = None,
) -> CatTable:
    """One row per retained structured event (oldest first), filterable by
    kind / tenant / trace id; *k* keeps only the most recent matches.

    Reads the :class:`~repro.telemetry.events.EventLog` the facade owns as
    ``db.events``; an instance without one yields an empty, well-formed
    table.
    """
    log = getattr(db, "events", None)
    rows = []
    if log is not None:
        for event in log.query(kind=kind, tenant=tenant, trace_id=trace_id, limit=k):
            detail = ",".join(
                f"{key}={CatTable._format(value)}"
                for key, value in sorted(event.detail.items())
            )
            rows.append(
                (
                    round(event.time, 3),
                    event.kind,
                    event.tenant if event.tenant is not None else "",
                    event.trace_id if event.trace_id is not None else "",
                    event.shard if event.shard is not None else "",
                    detail,
                )
            )
    return CatTable(
        "events", ("at", "kind", "tenant", "trace_id", "shard", "detail"), rows
    )


def cat_slo(db) -> CatTable:
    """One row per declared service-level objective: good/bad totals,
    error budget remaining, fast/slow burn rates, burn state and fired
    burn-alert count.

    Reads the :class:`~repro.slo.SloEngine` the facade owns as ``db.slo``;
    an instance with SLO tracking disabled yields an empty, well-formed
    table.
    """
    engine = getattr(db, "slo", None)
    rows = []
    if engine is not None:
        for status in engine.status():
            rows.append(
                (
                    status["slo"],
                    status["op"],
                    status["kind"],
                    status["tenant"] if status["tenant"] is not None else "*",
                    status["objective"],
                    status["good"],
                    status["bad"],
                    round(status["budget_remaining_pct"], 2),
                    round(status["fast_burn"], 3),
                    round(status["slow_burn"], 3),
                    status["state"],
                    status["burn_alerts"],
                )
            )
    return CatTable(
        "slo",
        ("slo", "op", "kind", "tenant", "objective", "good", "bad",
         "budget_pct", "fast_burn", "slow_burn", "state", "alerts"),
        rows,
    )


def cat_hotkeys(db, k: int | None = None) -> CatTable:
    """Heavy-hitter table: the top-*k* hot routing keys, filter terms and
    query fingerprints per scope (global, per shard, per tenant), each
    estimate paired with its Space-Saving count-error bound (the true
    count lies in ``[count - error, count]``).

    Reads the :class:`~repro.slo.HeavyHitterProfiler` the facade owns as
    ``db.hotkeys``; an instance without profiling yields an empty,
    well-formed table.
    """
    profiler = getattr(db, "hotkeys", None)
    rows = profiler.table_rows(k) if profiler is not None else []
    return CatTable(
        "hotkeys",
        ("dimension", "scope", "subject", "rank", "key", "count", "error"),
        rows,
    )
