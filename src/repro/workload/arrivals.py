"""Deterministic arrival processes and tenant churn.

The paper's headline scenario — the Single's-Day kickoff — is a bursty,
non-stationary arrival stream hitting a *churning* tenant population, but
the stationary ``stream(rate, duration)`` generator spaces timestamps
evenly. This module supplies the missing realism as composable, seed-driven
pieces:

* **rate curves** (:class:`ConstantRate`, :class:`DiurnalRate`,
  :class:`SpikeRate`) describe the instantaneous arrival intensity λ(t);
* **arrival processes** (:class:`PoissonProcess`,
  :class:`BurstyProcess`) turn a curve into a concrete sequence of event
  timestamps via Lewis–Shedler thinning (non-homogeneous Poisson) or a
  Markov-modulated on/off chain;
* :class:`TenantChurn` scripts flash-sale tenants that appear, burn hot
  at a top Zipf rank, and die — remapping the rank→tenant table over
  time;
* :class:`ArrivalStats` measures the *realized* stream (interarrival
  quantiles, burstiness index, live-tenant count) for telemetry,
  time-series and the dashboard;
* :class:`ArrivalScenario` / :class:`TraceScenario` adapt a process (or a
  recorded trace) to the per-tick :class:`~repro.workload.scenarios.Scenario`
  contract, so the simulator and the experiments CLI consume the same
  stream.

Everything is driven by explicit seeds and logical time only: the same
seed yields a byte-identical arrival stream on every run.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.telemetry.metrics import summarize
from repro.workload.scenarios import Scenario, Tick
from repro.workload.zipf import ZipfSampler

__all__ = [
    "RateCurve",
    "ConstantRate",
    "DiurnalRate",
    "SpikeRate",
    "rate_curve_from_json",
    "ArrivalProcess",
    "PoissonProcess",
    "BurstyProcess",
    "arrival_from_json",
    "ChurnEvent",
    "TenantChurn",
    "ArrivalStats",
    "ArrivalScenario",
    "TraceScenario",
]


# -- rate curves ---------------------------------------------------------------


class RateCurve:
    """Instantaneous arrival intensity λ(t) over a scenario's lifetime."""

    kind = "base"

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def peak(self, duration: float) -> float:
        """An upper bound on λ(t) over [0, duration) (thinning envelope)."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantRate(RateCurve):
    """λ(t) = rate: the homogeneous (stationary) special case."""

    rate: float
    kind = "constant"

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError("rate must be positive")

    def rate_at(self, t: float) -> float:
        return self.rate

    def peak(self, duration: float) -> float:
        return self.rate

    def to_json(self) -> dict:
        return {"kind": self.kind, "rate": self.rate}


@dataclass(frozen=True)
class DiurnalRate(RateCurve):
    """A sinusoidal day/night curve: λ(t) = base·(1 + amplitude·sin(2π(t+phase)/period)).

    ``amplitude`` ∈ [0, 1) keeps the rate strictly positive; ``phase``
    shifts where inside the period the scenario starts (phase = period/4
    starts at the peak).
    """

    base_rate: float
    amplitude: float = 0.5
    period: float = 86_400.0
    phase: float = 0.0
    kind = "diurnal"

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ConfigurationError("base_rate must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigurationError("amplitude must be in [0, 1)")
        if self.period <= 0:
            raise ConfigurationError("period must be positive")

    def rate_at(self, t: float) -> float:
        return self.base_rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * (t + self.phase) / self.period)
        )

    def peak(self, duration: float) -> float:
        return self.base_rate * (1.0 + self.amplitude)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "base_rate": self.base_rate,
            "amplitude": self.amplitude,
            "period": self.period,
            "phase": self.phase,
        }


@dataclass(frozen=True)
class SpikeRate(RateCurve):
    """The Single's-Day kickoff shape: baseline → spike at ``spike_time`` →
    exponential decay towards a high plateau (Fig 19's rate curve as a
    reusable intensity function)."""

    baseline_rate: float
    spike_time: float
    spike_factor: float = 10.0
    decay_seconds: float = 120.0
    plateau_factor: float = 3.0
    kind = "spike"

    def __post_init__(self) -> None:
        if self.baseline_rate <= 0:
            raise ConfigurationError("baseline_rate must be positive")
        if self.spike_factor < 1 or self.plateau_factor < 1:
            raise ConfigurationError("spike/plateau factors must be >= 1")
        if self.spike_factor < self.plateau_factor:
            raise ConfigurationError("spike_factor must be >= plateau_factor")
        if self.decay_seconds <= 0:
            raise ConfigurationError("decay_seconds must be positive")
        if self.spike_time < 0:
            raise ConfigurationError("spike_time must be >= 0")

    def rate_at(self, t: float) -> float:
        if t < self.spike_time:
            return self.baseline_rate
        excess = (self.spike_factor - self.plateau_factor) * math.exp(
            -(t - self.spike_time) / self.decay_seconds
        )
        return self.baseline_rate * (self.plateau_factor + excess)

    def peak(self, duration: float) -> float:
        return self.baseline_rate * self.spike_factor

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "baseline_rate": self.baseline_rate,
            "spike_time": self.spike_time,
            "spike_factor": self.spike_factor,
            "decay_seconds": self.decay_seconds,
            "plateau_factor": self.plateau_factor,
        }


_CURVES = {"constant": ConstantRate, "diurnal": DiurnalRate, "spike": SpikeRate}


def rate_curve_from_json(payload: dict) -> RateCurve:
    """Reconstruct a rate curve from its ``to_json`` payload."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ConfigurationError(f"not a rate-curve payload: {payload!r}")
    kind = payload["kind"]
    if kind not in _CURVES:
        raise ConfigurationError(f"unknown rate-curve kind {kind!r}")
    params = {key: value for key, value in payload.items() if key != "kind"}
    return _CURVES[kind](**params)


# -- arrival processes ---------------------------------------------------------


class ArrivalProcess:
    """A deterministic, seed-driven point process on [0, duration).

    ``times()`` yields strictly increasing event timestamps; the same seed
    yields the identical sequence on every call and every run.
    """

    kind = "base"

    def __init__(self, duration: float, seed: int = 0) -> None:
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        self.duration = duration
        self.seed = seed

    def times(self) -> Iterator[float]:
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-ready metadata (trace v2 header) sufficient to rebuild the
        process via :func:`arrival_from_json`."""
        raise NotImplementedError


class PoissonProcess(ArrivalProcess):
    """Open-loop (non-)homogeneous Poisson arrivals.

    With a :class:`ConstantRate` this is the classic exponential
    interarrival stream; with a time-varying curve it uses Lewis–Shedler
    thinning against the curve's peak, so the realized intensity tracks
    λ(t) exactly while staying fully deterministic for a given seed.
    """

    kind = "poisson"

    def __init__(self, rate: float | RateCurve, duration: float, seed: int = 0) -> None:
        super().__init__(duration, seed)
        self.curve = ConstantRate(rate) if isinstance(rate, (int, float)) else rate

    def times(self) -> Iterator[float]:
        rng = random.Random(self.seed)
        peak = self.curve.peak(self.duration)
        if peak <= 0:
            return
        t = 0.0
        while True:
            t += rng.expovariate(peak)
            if t >= self.duration:
                return
            # Thinning: accept with probability λ(t)/peak. A constant curve
            # accepts every candidate, so the homogeneous case pays no extra
            # draws beyond the uniform (kept unconditionally so the stream
            # is identical whether or not the curve happens to be flat).
            if rng.random() * peak <= self.curve.rate_at(t):
                yield t

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "duration": self.duration,
            "seed": self.seed,
            "curve": self.curve.to_json(),
        }


class BurstyProcess(ArrivalProcess):
    """Markov-modulated on/off Poisson arrivals (an interrupted Poisson
    process): the stream alternates between an *on* state at ``on_rate``
    and an *off* state at ``off_rate``, with exponentially distributed
    state dwell times. ``off_rate=0`` gives pure on/off bursts; a small
    positive off rate models background trickle between bursts.
    """

    kind = "bursty"

    def __init__(
        self,
        on_rate: float,
        duration: float,
        off_rate: float = 0.0,
        mean_on_seconds: float = 1.0,
        mean_off_seconds: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(duration, seed)
        if on_rate <= 0:
            raise ConfigurationError("on_rate must be positive")
        if off_rate < 0:
            raise ConfigurationError("off_rate must be >= 0")
        if off_rate >= on_rate:
            raise ConfigurationError("off_rate must be below on_rate")
        if mean_on_seconds <= 0 or mean_off_seconds <= 0:
            raise ConfigurationError("mean dwell times must be positive")
        self.on_rate = on_rate
        self.off_rate = off_rate
        self.mean_on_seconds = mean_on_seconds
        self.mean_off_seconds = mean_off_seconds

    def times(self) -> Iterator[float]:
        rng = random.Random(self.seed)
        t = 0.0
        on = True
        state_end = rng.expovariate(1.0 / self.mean_on_seconds)
        while t < self.duration:
            rate = self.on_rate if on else self.off_rate
            if rate <= 0:
                # Silent state: jump straight to the next state boundary.
                t = state_end
                on = not on
                state_end = t + rng.expovariate(
                    1.0 / (self.mean_on_seconds if on else self.mean_off_seconds)
                )
                continue
            gap = rng.expovariate(rate)
            if t + gap >= state_end:
                # The candidate falls past the state switch; memorylessness
                # of the exponential makes re-drawing from the boundary
                # statistically exact.
                t = state_end
                on = not on
                state_end = t + rng.expovariate(
                    1.0 / (self.mean_on_seconds if on else self.mean_off_seconds)
                )
                continue
            t += gap
            if t >= self.duration:
                return
            yield t

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "duration": self.duration,
            "seed": self.seed,
            "on_rate": self.on_rate,
            "off_rate": self.off_rate,
            "mean_on_seconds": self.mean_on_seconds,
            "mean_off_seconds": self.mean_off_seconds,
        }


def arrival_from_json(payload: dict) -> ArrivalProcess:
    """Reconstruct an arrival process from its ``describe()`` payload (the
    trace v2 header), so a recorded trace can regenerate its own stream."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ConfigurationError(f"not an arrival-process payload: {payload!r}")
    kind = payload.get("kind")
    if kind == PoissonProcess.kind:
        return PoissonProcess(
            rate_curve_from_json(payload["curve"]),
            duration=payload["duration"],
            seed=payload.get("seed", 0),
        )
    if kind == BurstyProcess.kind:
        return BurstyProcess(
            on_rate=payload["on_rate"],
            duration=payload["duration"],
            off_rate=payload.get("off_rate", 0.0),
            mean_on_seconds=payload.get("mean_on_seconds", 1.0),
            mean_off_seconds=payload.get("mean_off_seconds", 1.0),
            seed=payload.get("seed", 0),
        )
    raise ConfigurationError(f"unknown arrival-process kind {kind!r}")


# -- tenant churn --------------------------------------------------------------


@dataclass(frozen=True)
class ChurnEvent:
    """One churn edge: a flash tenant appearing at (or vacating) a hot rank."""

    time: float
    kind: str  # "spawn" | "die"
    tenant: str
    rank: int

    def to_json(self) -> dict:
        return {"time": self.time, "kind": self.kind, "tenant": self.tenant,
                "rank": self.rank}


class TenantChurn:
    """Flash-sale tenants that appear, burn hot, and die.

    Spawns follow a Poisson process at ``spawn_rate``; each flash tenant
    picks a hot Zipf rank in ``[1, hot_rank_span]`` and an exponential
    lifetime with ``mean_lifetime_seconds``. While alive it *occupies* its rank —
    :meth:`apply_event` remaps the sampler's rank→tenant table and restores
    the previous occupant on death, so the same rank distribution keeps
    hitting different tenants over time. The full schedule is materialized
    up front from the seed, making the churn replayable and recordable.

    One churn instance drives one sampler: occupancy bookkeeping lives in
    the instance, so rebuild (``from_json``/fresh construction) per stream.
    """

    def __init__(
        self,
        duration: float,
        spawn_rate: float = 0.05,
        mean_lifetime_seconds: float = 30.0,
        hot_rank_span: int = 10,
        seed: int = 0,
    ) -> None:
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        if spawn_rate <= 0:
            raise ConfigurationError("spawn_rate must be positive")
        if mean_lifetime_seconds <= 0:
            raise ConfigurationError("mean_lifetime_seconds must be positive")
        if hot_rank_span < 1:
            raise ConfigurationError("hot_rank_span must be >= 1")
        self.duration = duration
        self.spawn_rate = spawn_rate
        self.mean_lifetime_seconds = mean_lifetime_seconds
        self.hot_rank_span = hot_rank_span
        self.seed = seed
        self.events: list[ChurnEvent] = self._schedule()
        #: rank → stack of buried occupants (earliest first).
        self._buried: dict[int, list] = {}

    def _schedule(self) -> list[ChurnEvent]:
        rng = random.Random(self.seed)
        events: list[ChurnEvent] = []
        t = 0.0
        index = 0
        while True:
            t += rng.expovariate(self.spawn_rate)
            if t >= self.duration:
                break
            lifetime = rng.expovariate(1.0 / self.mean_lifetime_seconds)
            rank = rng.randint(1, self.hot_rank_span)
            tenant = f"flash-{index:04d}"
            index += 1
            events.append(ChurnEvent(t, "spawn", tenant, rank))
            death = t + lifetime
            if death < self.duration:
                events.append(ChurnEvent(death, "die", tenant, rank))
        events.sort(key=lambda e: (e.time, e.tenant, e.kind))
        return events

    def live_count(self, now: float) -> int:
        """Flash tenants alive at *now* (spawned, not yet dead)."""
        live = 0
        for event in self.events:
            if event.time > now:
                break
            live += 1 if event.kind == "spawn" else -1
        return live

    def apply_event(self, sampler: ZipfSampler, event: ChurnEvent) -> None:
        """Apply one churn edge to *sampler*'s rank→tenant mapping."""
        if event.kind == "spawn":
            self._buried.setdefault(event.rank, []).append(
                sampler.tenant_at(event.rank)
            )
            sampler.assign_rank(event.rank, event.tenant)
        else:
            stack = self._buried.get(event.rank, [])
            if sampler.tenant_at(event.rank) == event.tenant and stack:
                sampler.assign_rank(event.rank, stack.pop())
            elif event.tenant in stack:
                # Died while buried under a newer flash tenant at the same
                # rank: drop it from the stack so it never resurfaces.
                stack.remove(event.tenant)

    def describe(self) -> dict:
        return {
            "duration": self.duration,
            "spawn_rate": self.spawn_rate,
            "mean_lifetime_seconds": self.mean_lifetime_seconds,
            "hot_rank_span": self.hot_rank_span,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "TenantChurn":
        if not isinstance(payload, dict) or "duration" not in payload:
            raise ConfigurationError(f"not a tenant-churn payload: {payload!r}")
        return cls(
            duration=payload["duration"],
            spawn_rate=payload.get("spawn_rate", 0.05),
            mean_lifetime_seconds=payload.get("mean_lifetime_seconds", 30.0),
            hot_rank_span=payload.get("hot_rank_span", 10),
            seed=payload.get("seed", 0),
        )


# -- realized arrival statistics ----------------------------------------------

#: Interarrival gaps retained for quantile estimation (moments are exact
#: over the whole stream; quantiles cover the most recent window).
_STATS_WINDOW = 8192


class ArrivalStats:
    """Statistics of a *realized* arrival stream.

    Feed timestamps in order via :meth:`record`; read interarrival
    quantiles, the burstiness index and live-tenant extremes back out for
    telemetry gauges, time-series and the dashboard. The burstiness index
    is Goh–Barabási ``(σ−μ)/(σ+μ)`` over interarrival gaps: ≈0 for
    Poisson, →1 for extreme bursts, <0 for pacemaker-regular streams.
    """

    def __init__(self) -> None:
        self.count = 0
        self.first_time: float | None = None
        self.last_time: float | None = None
        self._gap_sum = 0.0
        self._gap_sumsq = 0.0
        self._gaps: deque[float] = deque(maxlen=_STATS_WINDOW)
        self.live_tenants = 0
        self.peak_live_tenants = 0

    def record(self, t: float) -> None:
        if self.last_time is not None:
            if t < self.last_time:
                raise ConfigurationError(
                    f"arrival timestamps must be non-decreasing "
                    f"({t} after {self.last_time})"
                )
            gap = t - self.last_time
            self._gap_sum += gap
            self._gap_sumsq += gap * gap
            self._gaps.append(gap)
        else:
            self.first_time = t
        self.last_time = t
        self.count += 1

    def set_live_tenants(self, live: int) -> None:
        self.live_tenants = live
        self.peak_live_tenants = max(self.peak_live_tenants, live)

    @property
    def realized_rate(self) -> float:
        """Events per second over the observed span."""
        if self.count < 2 or self.last_time == self.first_time:
            return 0.0
        return (self.count - 1) / (self.last_time - self.first_time)

    @property
    def burstiness(self) -> float:
        gaps = self.count - 1
        if gaps < 2:
            return 0.0
        mean = self._gap_sum / gaps
        variance = max(self._gap_sumsq / gaps - mean * mean, 0.0)
        sigma = math.sqrt(variance)
        if sigma + mean == 0:
            return 0.0
        return (sigma - mean) / (sigma + mean)

    def interarrival_quantiles(self) -> dict:
        """p50/p95/p99 + mean of the (windowed) interarrival gaps, in
        seconds, using the shared telemetry quantile math."""
        if not self._gaps:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0}
        summary = summarize(self._gaps)
        return {key: summary[key] for key in ("p50", "p95", "p99", "mean")}

    def summary(self) -> dict:
        """JSON-ready snapshot (reports, cluster snapshots, tests)."""
        return {
            "count": self.count,
            "realized_rate": self.realized_rate,
            "burstiness": self.burstiness,
            "interarrival": self.interarrival_quantiles(),
            "live_tenants": self.live_tenants,
            "peak_live_tenants": self.peak_live_tenants,
        }


# -- scenario adapters ---------------------------------------------------------


class ArrivalScenario(Scenario):
    """Adapt an arrival process (+ optional churn) to the per-tick
    :class:`~repro.workload.scenarios.Scenario` contract.

    Each tick's rate is the *realized* event count in that tick divided by
    the tick length, so the simulator sees the exact stream the process
    produced — bursts, lulls and all — while churn edges ride on the tick's
    ``events`` and remap the generator's rank→tenant table in
    :meth:`apply`. Realized statistics accumulate in :attr:`stats` as the
    ticks are drawn.
    """

    def __init__(
        self,
        process: ArrivalProcess,
        churn: TenantChurn | None = None,
        tick_seconds: float = 1.0,
    ) -> None:
        super().__init__(process.duration, tick_seconds)
        if churn is not None and churn.duration != process.duration:
            raise ConfigurationError(
                "churn and arrival process must cover the same duration"
            )
        self.process = process
        self.churn = churn
        self.stats = ArrivalStats()

    def _churn_events(self) -> list[ChurnEvent]:
        return self.churn.events if self.churn is not None else []

    def ticks(self) -> Iterator[Tick]:
        arrivals = self.process.times()
        pending = next(arrivals, None)
        churn_events = self._churn_events()
        churn_index = 0
        for t0 in self.tick_times():
            t1 = t0 + self.tick_seconds
            count = 0
            while pending is not None and pending < t1:
                self.stats.record(pending)
                count += 1
                pending = next(arrivals, None)
            due: list[ChurnEvent] = []
            while churn_index < len(churn_events) and churn_events[churn_index].time < t1:
                due.append(churn_events[churn_index])
                churn_index += 1
            if self.churn is not None:
                self.stats.set_live_tenants(self.churn.live_count(t1))
            yield Tick(time=t0, rate=count / self.tick_seconds, events=tuple(due))

    def apply(self, generator, tick: Tick) -> None:
        super().apply(generator, tick)
        if self.churn is not None:
            for event in tick.events:
                self.churn.apply_event(generator.tenants, event)


class TraceScenario(Scenario):
    """Drive a scenario from *recorded* arrival timestamps (trace v2).

    Buckets the timestamps into ticks exactly like :class:`ArrivalScenario`
    and replays the recorded churn schedule, so one trace file produces the
    same offered-rate curve in the simulator that it produced at recording
    time.
    """

    def __init__(
        self,
        times: Iterable[float],
        duration: float,
        churn: TenantChurn | None = None,
        tick_seconds: float = 1.0,
    ) -> None:
        super().__init__(duration, tick_seconds)
        self.times = list(times)
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise ConfigurationError("trace timestamps must be non-decreasing")
        if self.times and self.times[-1] >= duration:
            raise ConfigurationError(
                "trace timestamps must fall inside [0, duration)"
            )
        self.churn = churn
        self.stats = ArrivalStats()

    def ticks(self) -> Iterator[Tick]:
        index = 0
        churn_events = self.churn.events if self.churn is not None else []
        churn_index = 0
        for t0 in self.tick_times():
            t1 = t0 + self.tick_seconds
            count = 0
            while index < len(self.times) and self.times[index] < t1:
                self.stats.record(self.times[index])
                count += 1
                index += 1
            due: list[ChurnEvent] = []
            while churn_index < len(churn_events) and churn_events[churn_index].time < t1:
                due.append(churn_events[churn_index])
                churn_index += 1
            if self.churn is not None:
                self.stats.set_live_tenants(self.churn.live_count(t1))
            yield Tick(time=t0, rate=count / self.tick_seconds, events=tuple(due))

    def apply(self, generator, tick: Tick) -> None:
        super().apply(generator, tick)
        if self.churn is not None:
            for event in tick.events:
                self.churn.apply_event(generator.tenants, event)
