"""The SLO engine: rolling-window objectives, error budgets, burn alerts.

Every completed operation (or deterministic failure — a throttle, a shed)
is classified against each matching :class:`~repro.slo.SloObjective` as
*good* or *bad* and accumulated into logical-clock buckets. At each
evaluation tick the engine computes the burn rate — the bad fraction as a
multiple of the error budget — over the Google-SRE fast/slow window pair
and walks a per-objective alert state machine: both windows over the
threshold fires one ``slo_burn``; the fast window dropping back under it
fires ``slo_recovered``. Evaluation happens only at logical-clock ticks
(``maybe_evaluate(now)``), so for a seeded workload the firing ticks are
identical run-over-run and across exec backends.

The engine builds its :class:`~repro.slo.HeavyHitterProfiler` and is the
recording consumer for both (:mod:`repro.consumers`).

Nothing here reads the wall clock or any RNG: with deterministic inputs
(logical timestamps, deterministic outcomes) every number the engine
produces is deterministic. Wall-clock latency SLIs are supported — they
are honest measurements — but the determinism guarantees the tests pin
ride on outcome-based (error-rate) objectives and logical thresholds.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.errors import InvalidDocumentError
from repro.slo.config import (
    BUCKET_SECONDS,
    BURN_THRESHOLD,
    EVALUATION_INTERVAL_SECONDS,
    FAST_WINDOW_SECONDS,
    OBJECTIVES,
    SLOW_WINDOW_SECONDS,
    SloObjective,
)
from repro.slo.profiler import HeavyHitterProfiler
from repro.telemetry.runtime import NULL_REGISTRY

#: Closed buckets an objective keeps: enough to cover the slow window.
_MAX_BUCKETS = int(math.ceil(SLOW_WINDOW_SECONDS / BUCKET_SECONDS)) + 1


@dataclass(frozen=True)
class BurnAlert:
    """One burn-rate state transition, ready to become an event."""

    time: float
    kind: str  # "slo_burn" | "slo_recovered"
    slo: str
    fast_burn: float
    slow_burn: float
    budget_remaining_pct: float

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "kind": self.kind,
            "slo": self.slo,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "budget_remaining_pct": self.budget_remaining_pct,
        }


class _ObjectiveState:
    """Tracking state for one objective: buckets, totals, alert phase."""

    __slots__ = (
        "objective", "buckets", "bucket_start", "bucket_good", "bucket_bad",
        "total_good", "total_bad", "burning", "burn_count",
        "fast_burn", "slow_burn",
    )

    def __init__(self, objective: SloObjective) -> None:
        self.objective = objective
        #: Closed buckets: (start_time, good, bad), oldest first.
        self.buckets: deque = deque(maxlen=_MAX_BUCKETS)
        self.bucket_start: float | None = None
        self.bucket_good = 0
        self.bucket_bad = 0
        self.total_good = 0
        self.total_bad = 0
        self.burning = False
        self.burn_count = 0
        self.fast_burn = 0.0
        self.slow_burn = 0.0

    def budget_remaining_pct(self) -> float:
        total = self.total_good + self.total_bad
        if total == 0:
            return 100.0
        consumed = (self.total_bad / total) / self.objective.budget
        return 100.0 * (1.0 - consumed)


class SloEngine:
    """Rolling-window SLO evaluation with multi-window burn-rate alerts,
    and the heavy-hitter profiler (:attr:`hotkeys`) behind its attribution."""

    def __init__(self, metrics=NULL_REGISTRY) -> None:
        self._states = [_ObjectiveState(objective) for objective in OBJECTIVES]
        #: Hot-path index: record() only walks the states matching its op.
        self._states_by_op: dict[str, list] = {}
        for state in self._states:
            self._states_by_op.setdefault(state.objective.op, []).append(state)
        #: Burn/recover transitions, oldest first (bounded ring).
        self.alerts: deque = deque(maxlen=64)
        self.evaluations = 0
        self._next_evaluation: float | None = None
        self._metrics = metrics
        self.hotkeys = HeavyHitterProfiler()
        self._concentration = metrics.gauge("slo_hotkey_concentration_pct")

    # -- recording ---------------------------------------------------------
    def record(self, op: str, elapsed: float, now: float, error: bool = False) -> None:
        """Classify one finished operation against every matching
        objective. Errored operations count against ``error_rate``
        objectives and produce no latency sample (a shed write has no
        meaningful service time)."""
        states = self._states_by_op.get(op)
        if not states:
            return
        start = (now // BUCKET_SECONDS) * BUCKET_SECONDS
        for state in states:
            objective = state.objective
            if objective.kind == "latency":
                if error:
                    continue
                bad = elapsed > objective.threshold_seconds
            else:
                bad = error
            self._accumulate(state, start, bad)

    @staticmethod
    def _accumulate(state: _ObjectiveState, start: float, bad: bool) -> None:
        if state.bucket_start is None:
            state.bucket_start = start
        elif start > state.bucket_start:
            state.buckets.append(
                (state.bucket_start, state.bucket_good, state.bucket_bad)
            )
            state.bucket_start = start
            state.bucket_good = 0
            state.bucket_bad = 0
        if bad:
            state.bucket_bad += 1
            state.total_bad += 1
        else:
            state.bucket_good += 1
            state.total_good += 1

    # -- evaluation --------------------------------------------------------
    def due(self, now: float) -> bool:
        return self._next_evaluation is None or now >= self._next_evaluation

    def maybe_evaluate(self, now: float) -> list[BurnAlert]:
        """Evaluate iff *now* reached the next evaluation boundary; the
        first call anchors the schedule (mirrors ``TimeSeriesStore``)."""
        if not self.due(now):
            return []
        return self.evaluate(now)

    def evaluate(self, now: float) -> list[BurnAlert]:
        """One evaluation tick: recompute burn rates over both windows for
        every objective, advance alert state machines, update gauges (the
        profiler's hot-key concentration too: here, not per write, to keep
        the write path lean). Returns the transitions fired at this tick."""
        self._concentration.set(100.0 * self.hotkeys.routing_keys.concentration())
        fired: list[BurnAlert] = []
        threshold = BURN_THRESHOLD
        for state in self._states:
            fast, fast_n = self._window_burn(state, now, FAST_WINDOW_SECONDS)
            slow, _ = self._window_burn(state, now, SLOW_WINDOW_SECONDS)
            state.fast_burn = fast
            state.slow_burn = slow
            if not state.burning:
                if fast_n and fast >= threshold and slow >= threshold:
                    state.burning = True
                    state.burn_count += 1
                    fired.append(self._transition(state, now, "slo_burn"))
            elif fast < threshold:
                state.burning = False
                fired.append(self._transition(state, now, "slo_recovered"))
            self._export(state)
        self.alerts.extend(fired)
        self.evaluations += 1
        self._next_evaluation = now + EVALUATION_INTERVAL_SECONDS
        return fired

    def _window_burn(
        self, state: _ObjectiveState, now: float, window: float
    ) -> tuple[float, int]:
        """Burn rate and sample count over the buckets inside ``(now -
        window, now]``, the still-open bucket included."""
        cutoff = now - window
        good = bad = 0
        for start, bucket_good, bucket_bad in state.buckets:
            if start + BUCKET_SECONDS > cutoff:
                good += bucket_good
                bad += bucket_bad
        if state.bucket_start is not None and (
            state.bucket_start + BUCKET_SECONDS > cutoff
        ):
            good += state.bucket_good
            bad += state.bucket_bad
        total = good + bad
        if total == 0:
            return 0.0, 0
        return (bad / total) / state.objective.budget, total

    def _transition(
        self, state: _ObjectiveState, now: float, kind: str
    ) -> BurnAlert:
        return BurnAlert(
            time=now,
            kind=kind,
            slo=state.objective.name,
            fast_burn=state.fast_burn,
            slow_burn=state.slow_burn,
            budget_remaining_pct=state.budget_remaining_pct(),
        )

    def _export(self, state: _ObjectiveState) -> None:
        metrics = self._metrics
        name = state.objective.name
        metrics.gauge("slo_budget_remaining_pct", slo=name).set(
            state.budget_remaining_pct()
        )
        metrics.gauge("slo_burn_rate", slo=name, window="fast").set(
            state.fast_burn
        )
        metrics.gauge("slo_burn_rate", slo=name, window="slow").set(
            state.slow_burn
        )
        metrics.gauge("slo_good_total", slo=name).set(state.total_good)
        metrics.gauge("slo_bad_total", slo=name).set(state.total_bad)
        metrics.gauge("slo_burn_alerts_total", slo=name).set(state.burn_count)

    # -- the facade's recording consumer -------------------------------------
    def tick(self, now: float, ctx, emit) -> None:
        """One deterministic heartbeat at the logical clock *now*: decay the
        heavy-hitter sketches when their window closed, and when an
        evaluation is due, advance every objective's burn state machine,
        emitting ``slo_burn``/``slo_recovered`` events for the transitions."""
        self.hotkeys.maybe_roll(now)
        for alert in self.maybe_evaluate(now):
            emit(
                alert.kind,
                ctx=ctx,
                slo=alert.slo,
                fast_burn=round(alert.fast_burn, 4),
                slow_burn=round(alert.slow_burn, 4),
                budget_remaining_pct=round(alert.budget_remaining_pct, 2),
            )

    def on_writes(self, batch) -> None:
        """A refusal is an error at its routing clock — unless the document
        was malformed: the caller's error spends no availability budget."""
        for at, error in batch.refused:
            if not isinstance(error, InvalidDocumentError):
                self.record("write", 0.0, at, error=True)
        hotkeys = self.hotkeys
        for item in batch.applied:
            self.record("write", batch.per_doc, batch.now)
            hotkeys.record_write(batch.tenants[item.position], item.shard_id, item.doc_id)
        self.tick(batch.now, batch.ctx, batch.emit)

    def on_query(self, query) -> None:
        if query.result is None:
            self.record("query", 0.0, query.now, error=True)
        else:
            self.record("query", query.root.duration, query.now)
            self.hotkeys.record_query(query.tenant, query.fingerprint, query.terms)
        self.tick(query.now, query.ctx, query.emit)

    def on_round(self, balance) -> None:
        self.tick(balance.now, balance.ctx, balance.emit)

    # -- introspection -----------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready dump (the bundle's ``slo`` section)."""
        return {
            "enabled": True,
            "burn_threshold": BURN_THRESHOLD,
            "fast_window_seconds": FAST_WINDOW_SECONDS,
            "slow_window_seconds": SLOW_WINDOW_SECONDS,
            "evaluations": self.evaluations,
            "objectives": [
                {
                    "slo": state.objective.name,
                    "op": state.objective.op,
                    "kind": state.objective.kind,
                    "objective": state.objective.objective,
                    "good": state.total_good,
                    "bad": state.total_bad,
                    "budget_remaining_pct": state.budget_remaining_pct(),
                    "fast_burn": state.fast_burn,
                    "slow_burn": state.slow_burn,
                    "state": "burning" if state.burning else "ok",
                    "burn_alerts": state.burn_count,
                }
                for state in self._states
            ],
            "alerts": [alert.to_dict() for alert in self.alerts],
        }
