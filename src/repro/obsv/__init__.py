"""repro.obsv — cluster introspection, slow logs, live skew analytics.

The operator surface on top of :mod:`repro.telemetry`, built as one reader
and N renderers:

* **one reader** — :func:`snapshot` (:mod:`repro.obsv.snapshot`) is the
  only code that reads operator state off an instance (governor, SLO
  engine, profiler, observer, history, event log, fault injector) and
  returns it as one JSON-ready dict, which is also the flight-recorder
  **diagnostics bundle** (:func:`diagnostics_bundle`, schema-checked by
  :func:`validate_bundle`, ``python -m repro.obsv --bundle out.json``);
* **renderers** of that dict, which never touch the instance: the one
  text page (:func:`render_dashboard`, ``python -m repro.obsv``), the JSON
  cluster snapshot (``python -m repro.obsv --json``, the dict's ``cluster``
  section) and the ``_cat``-style tables (:func:`cat_nodes`, :func:`cat_shards`,
  :func:`cat_tenants`, :func:`cat_rules`, :func:`cat_caches`,
  :func:`cat_events`, ...) — structured rows plus aligned-column text,
  exactly the shape of ``GET _cat/...``. A table also accepts a live
  instance and reads only its own section; a bundle loaded from disk
  renders exactly as the live instance did;
* index/search **slow logs** (:class:`SlowLog`) with warn/info thresholds,
  each entry carrying tenant, shard, elapsed time and the operation's full
  span tree;
* **skew analytics** over the windows the workload monitor closes
  (:func:`window_stats` → :class:`WindowStats`): per-shard and per-tenant
  CV, Gini and max/mean imbalance, a hot-tenant / hot-shard :class:`Alert`
  detector, and the measurement that annotates each committed routing
  rule ("why did L(k1) grow").

One :class:`Observer` per database instance holds the slow logs, the
statistics of the monitor's closed windows and the alerts; the ESDB facade
builds it from :class:`ObsvConfig` (``EsdbConfig.obsv``).
"""

from repro.obsv.bundle import (
    BUNDLE_SCHEMA_VERSION,
    diagnostics_bundle,
    validate_bundle,
)
from repro.obsv.cat import (
    CatTable,
    cat_caches,
    cat_events,
    cat_exec,
    cat_faults,
    cat_hotkeys,
    cat_nodes,
    cat_rules,
    cat_shards,
    cat_slo,
    cat_tenants,
    cat_timeseries,
)
from repro.obsv.config import ObsvConfig
from repro.obsv.dashboard import render_dashboard, shard_heatmap
from repro.obsv.observer import Observer
from repro.obsv.skew import (
    Alert,
    WindowStats,
    annotation_reason,
    coefficient_of_variation,
    detect_alerts,
    gini,
    max_mean_ratio,
    rule_measurement,
    summarize_windows,
    window_stats,
)
from repro.obsv.slowlog import SlowLog, SlowLogEntry
from repro.obsv.snapshot import snapshot

__all__ = [
    "Alert",
    "BUNDLE_SCHEMA_VERSION",
    "CatTable",
    "Observer",
    "ObsvConfig",
    "SlowLog",
    "SlowLogEntry",
    "WindowStats",
    "annotation_reason",
    "cat_caches",
    "cat_events",
    "cat_exec",
    "cat_faults",
    "cat_hotkeys",
    "cat_nodes",
    "cat_rules",
    "cat_shards",
    "cat_slo",
    "cat_tenants",
    "cat_timeseries",
    "diagnostics_bundle",
    "coefficient_of_variation",
    "detect_alerts",
    "gini",
    "max_mean_ratio",
    "render_dashboard",
    "rule_measurement",
    "shard_heatmap",
    "snapshot",
    "summarize_windows",
    "validate_bundle",
    "window_stats",
]
