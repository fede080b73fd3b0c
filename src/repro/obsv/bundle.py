"""The flight-recorder diagnostics bundle and its schema check.

The bundle is :func:`repro.obsv.snapshot`'s dict — everything an operator
can see of a live instance in one JSON-ready capture, the artifact an
operator (or CI) attaches to a bug report so the failure can be diagnosed
without reproducing it: cluster snapshot, metric registry, recent trace
trees, the structured event log, the fault log and the slow-log tails.
The dashboard and the ``_cat`` tables render a bundle loaded from disk
exactly as they render the live instance. The shape is versioned
(:data:`BUNDLE_SCHEMA_VERSION`) and checked by :func:`validate_bundle`,
which returns a list of problems (empty = valid) instead of raising — CI
treats a non-empty list as a failed smoke step.
"""

from __future__ import annotations

from repro.obsv.snapshot import BUNDLE_SCHEMA_VERSION, snapshot
from repro.telemetry.events import EVENT_KINDS

#: Top-level keys every bundle must carry, with their required types.
_REQUIRED_KEYS: dict[str, type] = {
    "schema_version": int,
    "kind": str,
    "time": float,
    "cluster": dict,
    "metrics": dict,
    "events": dict,
    "faults": list,
    "traces": list,
    "tracing": dict,
    "slo": dict,
    "hotkeys": dict,
}


def diagnostics_bundle(db) -> dict:
    """One JSON-ready flight recording of *db*'s observable state."""
    return snapshot(db)


def validate_bundle(bundle) -> list[str]:
    """Check *bundle* against the schema; returns problems (empty = valid).

    Deliberately a linter, not an exception: CI prints every problem at
    once rather than stopping at the first."""
    problems: list[str] = []
    if not isinstance(bundle, dict):
        return [f"bundle must be a dict, got {type(bundle).__name__}"]
    for key, expected in _REQUIRED_KEYS.items():
        if key not in bundle:
            problems.append(f"missing required key {key!r}")
        elif expected is float:
            if not isinstance(bundle[key], (int, float)):
                problems.append(f"{key!r} must be a number")
        elif not isinstance(bundle[key], expected):
            problems.append(f"{key!r} must be {expected.__name__}")
    if problems:
        return problems
    if bundle["schema_version"] != BUNDLE_SCHEMA_VERSION:
        # An unknown version means the remaining rules don't apply: reject
        # clearly and immediately rather than piling on misleading lint.
        return [
            f"unknown schema_version {bundle['schema_version']}: this "
            f"validator understands version {BUNDLE_SCHEMA_VERSION} only"
        ]
    if bundle["kind"] != "esdb-diagnostics":
        problems.append(f"kind must be 'esdb-diagnostics', got {bundle['kind']!r}")
    for section in ("nodes", "shards", "tenants", "totals"):
        if section not in bundle["cluster"]:
            problems.append(f"cluster snapshot missing {section!r}")
    events = bundle["events"]
    for key in ("counts", "total", "entries"):
        if key not in events:
            problems.append(f"events section missing {key!r}")
    for kind in events.get("counts", {}):
        if kind not in EVENT_KINDS:
            problems.append(f"unknown event kind {kind!r} in counts")
    for index, trace in enumerate(bundle["traces"]):
        if not isinstance(trace, dict) or "name" not in trace:
            problems.append(f"traces[{index}] is not a span dict")
        # trace_id is optional: maintenance spans (engine.refresh/merge)
        # are rooted outside any request trace.
        elif "trace_id" in trace and not isinstance(trace["trace_id"], str):
            problems.append(f"traces[{index}] trace_id is not a string")
    tracing = bundle["tracing"]
    for key in ("enabled", "traces_started"):
        if key not in tracing:
            problems.append(f"tracing section missing {key!r}")
    slo = bundle["slo"]
    if "enabled" not in slo:
        problems.append("slo section missing 'enabled'")
    elif slo["enabled"]:
        for key in ("evaluations", "objectives", "alerts"):
            if key not in slo:
                problems.append(f"slo section missing {key!r}")
        for index, objective in enumerate(slo.get("objectives", [])):
            if not isinstance(objective, dict) or "slo" not in objective:
                problems.append(f"slo objectives[{index}] is not an objective dict")
            elif not 0.0 < objective.get("objective", 0.0) < 1.0:
                problems.append(
                    f"slo objectives[{index}] target must be in (0, 1)"
                )
        for index, alert in enumerate(slo.get("alerts", [])):
            if not isinstance(alert, dict) or alert.get("kind") not in (
                "slo_burn", "slo_recovered",
            ):
                problems.append(f"slo alerts[{index}] has an unknown kind")
    hotkeys = bundle["hotkeys"]
    if "enabled" not in hotkeys:
        problems.append("hotkeys section missing 'enabled'")
    elif hotkeys["enabled"]:
        for key in ("sketch_capacity", "dropped_tenants", "shards", "tenants"):
            if key not in hotkeys:
                problems.append(f"hotkeys section missing {key!r}")
        for dimension in ("routing_keys", "filter_terms", "query_fingerprints"):
            sketch = hotkeys.get(dimension)
            if not isinstance(sketch, dict) or "top" not in sketch:
                problems.append(f"hotkeys section missing sketch {dimension!r}")
                continue
            capacity = sketch.get("capacity", 0)
            if sketch.get("tracked", 0) > capacity:
                problems.append(
                    f"hotkeys {dimension}: tracked exceeds capacity "
                    f"{capacity} (sketch is not bounded)"
                )
    return problems
