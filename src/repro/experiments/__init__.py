"""Standalone experiment harnesses for every figure of the paper's §6.

Each experiment function returns an :class:`~repro.experiments.base.ExperimentResult`
(title, headers, rows, notes) and is registered by figure id, so the whole
evaluation can be regenerated outside pytest::

    python -m repro.experiments --list
    python -m repro.experiments fig11 --scale small
    python -m repro.experiments all --scale tiny

These are the figures' only definition: each ``benchmarks/test_figNN_*``
file asserts the qualitative shape on ``run("figNN", scale).values``.
"""

from repro.experiments.base import ExperimentResult, Scale, registry
from repro.experiments import (  # noqa: F401  (register)
    query_side,
    tenancy_side,
    write_side,
)

__all__ = ["ExperimentResult", "Scale", "registry", "run", "available"]


def available() -> list[str]:
    """Figure ids that can be regenerated."""
    return sorted(registry)


def run(figure: str, scale: str = "small") -> ExperimentResult:
    """Run one registered experiment at *scale* and return its result."""
    if figure not in registry:
        raise KeyError(f"unknown figure {figure!r}; available: {available()}")
    return registry[figure](Scale(scale))
