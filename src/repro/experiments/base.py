"""Experiment plumbing: result container, scales, registry."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError


class Scale(enum.Enum):
    """How big to run an experiment.

    * ``tiny`` — seconds; CI smoke runs.
    * ``small`` — tens of seconds; the default, and the inputs the
      ``benchmarks/test_figNN_*`` files assert on.
    * ``paper`` — the paper's full durations/rates where feasible (the
      simulator runs them; engine-backed experiments clamp the corpus to
      what a single Python process can hold and say so in the notes).
    """

    TINY = "tiny"
    SMALL = "small"
    PAPER = "paper"

    def pick(self, tiny, small, paper):
        """Select a per-scale parameter value."""
        return {Scale.TINY: tiny, Scale.SMALL: small, Scale.PAPER: paper}[self]


@dataclass
class ExperimentResult:
    """One regenerated figure: a titled table plus free-form notes.

    *values* holds the numbers behind the table, by name (reports, series,
    per-tenant latency lists, counts), for the benchmarks to assert on.
    """

    figure: str
    title: str
    headers: list
    rows: list
    notes: list = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def render(self) -> str:
        widths = [
            max(len(str(self.headers[i])), *(len(str(r[i])) for r in self.rows))
            if self.rows
            else len(str(self.headers[i]))
            for i in range(len(self.headers))
        ]
        lines = [f"=== {self.figure}: {self.title} ==="]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


#: figure id → callable(Scale) -> ExperimentResult
registry: dict[str, Callable[[Scale], ExperimentResult]] = {}


def experiment(figure: str):
    """Register an experiment function under *figure*."""

    def decorate(func):
        if figure in registry:
            raise ConfigurationError(f"duplicate experiment id {figure!r}")
        registry[figure] = func
        func.figure = figure
        return func

    return decorate


def fmt(value: float, digits: int = 1) -> str:
    return f"{value:,.{digits}f}"
