"""Deterministic arrival processes and tenant churn.

The paper's headline scenario — the Single's-Day kickoff — is a bursty
arrival stream hitting a *churning* tenant population, but the stationary
``stream(rate, duration)`` generator spaces timestamps evenly. This module
supplies the missing realism as seed-driven pieces:

* **arrival processes** (:class:`PoissonProcess`, :class:`BurstyProcess`)
  yield concrete event timestamps: homogeneous Poisson arrivals (the
  benchmark's open loop) or a Markov-modulated on/off chain;
* :class:`TenantChurn` scripts flash-sale tenants that appear, burn hot
  at a top Zipf rank, and die — reassigning the rank→tenant table over
  time.

:func:`repro.workload.trace.write_trace` records both into a v2 trace,
which the chaos runner replays (``python -m repro.faults --trace``).
Everything is driven by explicit seeds and logical time only: the same
seed yields a byte-identical arrival stream on every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError
from repro.workload.zipf import ZipfSampler

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "BurstyProcess",
    "ChurnEvent",
    "TenantChurn",
]


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
        """JSON-ready metadata: the trace v2 header's ``arrival`` record."""
        raise NotImplementedError


class PoissonProcess(ArrivalProcess):
    """Open-loop homogeneous Poisson arrivals: exponential interarrival
    gaps at ``rate`` events per second."""

    kind = "poisson"

    def __init__(self, rate: float, duration: float, seed: int = 0) -> None:
        super().__init__(duration, seed)
        if rate <= 0:
            raise ConfigurationError("rate must be positive")
        self.rate = rate

    def times(self) -> Iterator[float]:
        rng = random.Random(self.seed)
        t = 0.0
        while True:
            t += rng.expovariate(self.rate)
            if t >= self.duration:
                return
            # One uniform per event, never read: the benchmark's pinned
            # stream and every recorded trace were drawn with it.
            rng.random()
            yield t

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "duration": self.duration,
            "seed": self.seed,
            "curve": {"kind": "constant", "rate": self.rate},
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


# -- tenant churn --------------------------------------------------------------


@dataclass(frozen=True)
class ChurnEvent:
    """One churn edge: a flash tenant appearing at (or vacating) a hot rank."""

    time: float
    kind: str  # "spawn" | "die"
    tenant: str
    rank: int



class TenantChurn:
    """Flash-sale tenants that appear, burn hot, and die.

    Spawns follow a Poisson process at ``spawn_rate``; each flash tenant
    picks a hot Zipf rank in ``[1, hot_rank_span]`` and an exponential
    lifetime with ``mean_lifetime_seconds``. While alive it *occupies* its rank —
    :meth:`apply_event` reassigns the sampler's rank→tenant table and restores
    the previous occupant on death, so the same rank distribution keeps
    hitting different tenants over time. The full schedule is materialized
    up front from the seed, making the churn replayable and recordable.

    One churn instance drives one sampler: occupancy bookkeeping lives in
    the instance, so build a fresh one (``TenantChurn(**churn.describe())``)
    per stream.
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
