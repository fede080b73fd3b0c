"""Deterministic, seed-driven fault plans.

A :class:`FaultPlan` is a declarative schedule: *at workload step N, do
fault X to target Y*. Plans are either built explicitly (one line per
event) or generated from a seed by :meth:`FaultPlan.random` — the same
seed always yields the same schedule, which is what makes a chaos run
replayable: re-running a failing seed reproduces the exact interleaving
of crashes, partitions, corruptions and recoveries that broke an
invariant (the FoundationDB-style simulation discipline).

Plans know nothing about the database; :class:`~repro.faults.injector.
FaultInjector` interprets the events against a live ESDB instance and
:class:`~repro.faults.runner.ChaosRunner` interleaves them with a
workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.errors import FaultInjectionError

#: Every fault kind an injector understands. ``*_node`` faults target a
#: node id, shard-level faults target a shard id; ``crash_primary`` and
#: ``corrupt_translog`` are one-shot (no paired recovery), the rest stay
#: active until recovered.
FAULT_KINDS = (
    "crash_node",  # node fails: drops out of the cluster and consensus
    "partition_node",  # node isolated from consensus traffic
    "slow_replica",  # shard's replicas pay a per-byte network cost
    "clock_skew",  # node's consensus clock jumps by `skew` seconds
    "corrupt_translog",  # flip checksums on a replica's translog tail
    "crash_primary",  # kill a shard's primary: forces replica promotion
    "blackhole_dispatch",  # client dispatch to a shard fails (retry/DLQ path)
)

#: Kinds that fire once and have nothing to recover.
ONE_SHOT_KINDS = frozenset({"crash_primary", "corrupt_translog"})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action.

    Attributes:
        at_step: workload step the event fires before.
        kind: one of :data:`FAULT_KINDS`.
        target: node id / shard id the fault applies to (kind-dependent).
        params: extra keyword arguments for the injector.
        recover: True when this event *lifts* a previously injected fault
            of the same (kind, target) instead of injecting one.
    """

    at_step: int
    kind: str
    target: object = None
    params: Mapping = field(default_factory=dict)
    recover: bool = False

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at_step < 0:
            raise FaultInjectionError("at_step must be >= 0")
        if self.recover and self.kind in ONE_SHOT_KINDS:
            raise FaultInjectionError(f"{self.kind} is one-shot; it cannot be recovered")

    def describe(self) -> str:
        action = "recover" if self.recover else "inject"
        extra = "".join(
            f" {key}={value}" for key, value in sorted(self.params.items())
        )
        return f"step {self.at_step:>5}: {action} {self.kind} target={self.target}{extra}"


class FaultPlan:
    """An ordered fault schedule plus the seed that (optionally) built it."""

    def __init__(self, seed: int = 0, events: Iterable[FaultEvent] = ()) -> None:
        self.seed = seed
        self.events: list[FaultEvent] = sorted(events, key=lambda e: e.at_step)

    # -- construction -------------------------------------------------------
    def add(self, at_step: int, kind: str, target: object = None,
            recover: bool = False, **params) -> "FaultPlan":
        """Append one event (chainable)."""
        self.events.append(FaultEvent(at_step, kind, target, dict(params), recover))
        self.events.sort(key=lambda e: e.at_step)
        return self

    @classmethod
    def random(
        cls,
        seed: int,
        steps: int,
        num_nodes: int,
        num_shards: int,
        intensity: float = 1.0,
    ) -> "FaultPlan":
        """Generate a reproducible schedule from *seed*.

        Each enabled fault class gets one inject/recover pair (or one-shot
        firing) at seeded positions inside the run; *intensity* scales how
        many classes fire (1.0 = all of them). Node 0 is never crashed or
        partitioned so consensus always keeps a reachable master-side
        quorum participant to catch the others up from.
        """
        if steps < 10:
            raise FaultInjectionError("a random plan needs at least 10 steps")
        if not 0.0 <= intensity <= 1.0:
            raise FaultInjectionError("intensity must be in [0, 1]")
        rng = random.Random(seed)
        plan = cls(seed=seed)

        def window(lo_frac: float, hi_frac: float) -> int:
            lo = max(1, int(steps * lo_frac))
            hi = max(lo + 1, int(steps * hi_frac))
            return rng.randrange(lo, hi)

        candidates = []
        if num_nodes > 1:
            victim = rng.randrange(1, num_nodes)
            candidates.append(("crash_node", victim, {}))
            other = rng.randrange(1, num_nodes)
            candidates.append(("partition_node", other, {}))
            candidates.append(
                ("clock_skew", rng.randrange(num_nodes), {"skew": rng.uniform(0.5, 3.0)})
            )
        shard = rng.randrange(num_shards)
        candidates.append(
            ("slow_replica", shard, {"seconds_per_byte": rng.uniform(1e-7, 1e-5)})
        )
        candidates.append(("corrupt_translog", rng.randrange(num_shards), {"entries": 1}))
        candidates.append(("crash_primary", rng.randrange(num_shards), {}))
        candidates.append(("blackhole_dispatch", rng.randrange(num_shards), {}))

        keep = max(1, round(len(candidates) * intensity))
        for kind, target, params in candidates[:keep]:
            start = window(0.15, 0.55)
            plan.add(start, kind, target, **params)
            if kind not in ONE_SHOT_KINDS:
                plan.add(window(0.60, 0.90), kind, target, recover=True)
        return plan

    # -- access -------------------------------------------------------------
    def events_at(self, step: int) -> list[FaultEvent]:
        return [event for event in self.events if event.at_step == step]

    def kinds(self) -> set[str]:
        return {event.kind for event in self.events}

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def describe(self) -> str:
        lines = [f"fault plan: seed={self.seed}, {len(self.events)} event(s)"]
        lines.extend(f"  {event.describe()}" for event in self.events)
        return "\n".join(lines)
