"""The ``--profile out.json`` dump of the experiments CLI."""

from __future__ import annotations

from typing import Any

from repro.telemetry.metrics import MetricsRegistry


def profile_dump(registry: MetricsRegistry, traces: list | None = None) -> dict[str, Any]:
    """The ``--profile out.json`` payload: metrics snapshot plus recent
    trace trees (span name, duration, tags, children)."""
    payload: dict[str, Any] = {"metrics": registry.snapshot()}
    if traces:
        payload["traces"] = [span.to_dict() for span in traces]
    return payload
