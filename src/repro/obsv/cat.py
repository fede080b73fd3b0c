"""``_cat``-style tables: aligned-column text over snapshot rows.

Elasticsearch operators live in ``GET _cat/nodes`` and friends; this module
is the same surface for the reproduction. Each ``cat_*`` function takes a
snapshot dict (:func:`repro.obsv.snapshot`, live or loaded from a saved
bundle) or a live instance, which it reads through the one reader in
:mod:`repro.obsv.snapshot`, and returns a :class:`CatTable`: structured
rows (``.rows`` / ``.to_dicts()``) plus an aligned text rendering
(``.render()``) with numeric columns right-aligned, exactly like the real
``_cat`` output.
"""

from __future__ import annotations

from numbers import Number

from repro.obsv.snapshot import (
    format_cell,
    read_caches,
    read_events,
    read_exec,
    read_faults,
    read_hotkey_table,
    read_nodes,
    read_rules,
    read_shards,
    read_slo,
    read_tenants,
    read_timeseries,
)
from repro.telemetry.timeseries import sparkline, summarize_values


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
            [format_cell(value) for value in row] for row in self.rows
        ]
        widths = [
            max(len(line[i]) for line in cells) for i in range(len(self.columns))
        ]
        numeric = [
            bool(self.rows) and all(isinstance(row[i], Number) for row in self.rows)
            for i in range(len(self.columns))
        ]
        return "\n".join(
            " ".join(
                text.rjust(width) if right and line_no else text.ljust(width)
                for text, width, right in zip(line, widths, numeric)
            ).rstrip()
            for line_no, line in enumerate(cells)
        )

    @classmethod
    def from_dicts(cls, name: str, columns, dicts) -> "CatTable":
        """A table over ``{column: value}`` rows (the snapshot shape)."""
        return cls(name, columns, [[row[c] for c in columns] for row in dicts])


def _section(source, reader, *path):
    """What a table renders: found at *path* in a snapshot dict, or read
    from a live instance by *reader*."""
    if not isinstance(source, dict):
        return reader(source)
    for key in path:
        source = source[key]
    return source


def cat_nodes(source) -> CatTable:
    """One row per cluster node: roles, health, shard placement, load."""
    return CatTable.from_dicts(
        "nodes",
        ("node", "roles", "health", "primaries", "replicas", "docs", "capacity"),
        _section(source, read_nodes, "cluster", "nodes"),
    )


def cat_shards(source) -> CatTable:
    """One row per primary shard: placement, document count, segments."""
    return CatTable.from_dicts(
        "shards",
        ("shard", "node", "docs", "segments", "replicas"),
        _section(source, read_shards, "cluster", "shards"),
    )


def cat_tenants(source, k: int | None = None) -> CatTable:
    """One row per observed tenant: cumulative storage, last-window load,
    and the current query fan-out (shard span) the rule list grants.

    On a governed instance the table gains the governance columns
    ``qos`` / ``admitted`` / ``shed`` / ``demoted``.
    """
    rows = _section(source, read_tenants, "cluster", "tenants")[:k]
    # Fixed column order: a bundle saved with sorted keys renders the same.
    columns = ("tenant", "docs", "window_writes", "window_share", "span")
    if rows and "qos" in rows[0]:
        columns += ("qos", "admitted", "shed", "demoted")
    return CatTable.from_dicts("tenants", columns, rows)


def cat_rules(source) -> CatTable:
    """One row per committed secondary hashing rule and tenant, with the
    skew measurement that triggered it when the observer annotated the
    commit."""
    return CatTable.from_dicts(
        "rules",
        ("effective_time", "offset", "tenant", "why"),
        _section(source, read_rules, "cluster", "rules"),
    )


def cat_timeseries(source, k: int | None = None, spark_width: int = 24) -> CatTable:
    """One row per recorded performance-history series: sample count,
    last/min/max/mean over the retained ring window, and a sparkline.
    Empty and well-formed when history is disabled."""
    rows = []
    for series in _section(source, read_timeseries, "cluster", "timeseries")[
        "series"
    ][:k]:
        values = series["values"]
        summary = summarize_values(values)
        rows.append(
            (
                series["name"],
                ",".join(f"{key}={value}" for key, value in series["labels"].items()),
                summary["count"],
                round(summary["last"], 3),
                round(summary["min"], 3),
                round(summary["max"], 3),
                round(summary["mean"], 3),
                sparkline(values, width=spark_width),
            )
        )
    return CatTable(
        "timeseries",
        ("series", "labels", "samples", "last", "min", "max", "mean", "spark"),
        rows,
    )


def cat_caches(source) -> CatTable:
    """One row per query-cache level: hit rate, evictions, bytes held."""
    return CatTable.from_dicts(
        "caches",
        ("level", "enabled", "hits", "misses", "hit_pct", "evictions", "bytes"),
        _section(source, read_caches, "cluster", "caches"),
    )


def cat_exec(source) -> CatTable:
    """One row per bulk-write statistic: batches and documents. Empty and
    well-formed on an instance that never used :meth:`ESDB.bulk_write`."""
    return CatTable.from_dicts(
        "exec",
        ("stat", "detail", "value"),
        _section(source, read_exec, "cluster", "exec"),
    )


def cat_faults(source) -> CatTable:
    """One row per fault-injection action (inject / recover / skip), in
    chronological order; an injection still in force reads ``active``.
    Empty and well-formed on an instance that never injected a fault."""
    return CatTable.from_dicts(
        "faults",
        ("at", "status", "kind", "target", "detail"),
        _section(source, read_faults, "faults"),
    )


def cat_events(
    source,
    kind: str | None = None,
    tenant: str | None = None,
    trace_id: str | None = None,
    k: int | None = None,
) -> CatTable:
    """One row per retained structured event (oldest first), filterable by
    kind / tenant / trace id; *k* keeps only the most recent matches."""
    rows = [
        row
        for row in _section(source, read_events, "events")["entries"]
        if (kind is None or row["kind"] == kind)
        and (tenant is None or row["tenant"] == tenant)
        and (trace_id is None or row["trace_id"] == trace_id)
    ]
    if k is not None and k >= 0:
        rows = rows[-k:]
    return CatTable.from_dicts(
        "events", ("at", "kind", "tenant", "trace_id", "shard", "detail"), rows
    )


def cat_slo(source) -> CatTable:
    """One row per declared service-level objective: good/bad totals,
    error budget remaining, fast/slow burn rates, burn state and fired
    burn-alert count. Empty and well-formed with SLO tracking disabled."""
    rows = [
        (
            status["slo"],
            status["op"],
            status["kind"],
            status["objective"],
            status["good"],
            status["bad"],
            round(status["budget_remaining_pct"], 2),
            round(status["fast_burn"], 3),
            round(status["slow_burn"], 3),
            status["state"],
            status["burn_alerts"],
        )
        for status in _section(source, read_slo, "slo")["objectives"]
    ]
    return CatTable(
        "slo",
        ("slo", "op", "kind", "objective", "good", "bad",
         "budget_pct", "fast_burn", "slow_burn", "state", "alerts"),
        rows,
    )


def cat_hotkeys(source, k: int | None = None) -> CatTable:
    """Heavy-hitter table: the top-*k* hot routing keys, filter terms and
    query fingerprints per scope (global, per shard, per tenant), each
    estimate paired with its Space-Saving count-error bound (the true
    count lies in ``[count - error, count]``). Empty and well-formed
    without profiling; *k* beyond the profiler's ``TOP_K`` ranks shows
    ``TOP_K``, live or from a snapshot."""
    rows = _section(source, read_hotkey_table, "cluster", "hotkey_table")
    return CatTable.from_dicts(
        "hotkeys",
        ("dimension", "scope", "subject", "rank", "key", "count", "error"),
        [row for row in rows if k is None or row["rank"] <= k],
    )
