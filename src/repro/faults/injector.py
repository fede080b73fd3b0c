"""Interprets fault events against a live ESDB instance.

The injector is the only piece of the chaos stack that knows how a fault
kind maps onto subsystem state: a ``crash_node`` touches the cluster node
*and* its consensus participant; recovering it must also run the heal-time
catch-up so a participant that missed commit broadcasts does not stay
blocked forever. Everything it does is reversible through :meth:`recover`
except the two one-shot kinds (``crash_primary``, ``corrupt_translog``),
which permanently change state and are validated by the post-recovery
invariants instead.

Every action is appended to :attr:`FaultInjector.log` (the data behind
``repro.obsv.cat_faults``) and counted in the ``faults_injected_total`` /
``faults_recovered_total`` metrics, which feed the ``faults.*`` dashboard
time series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import FaultInjectionError
from repro.faults.plan import FAULT_KINDS, ONE_SHOT_KINDS
from repro.storage.translog import TranslogEntry
from repro.telemetry.context import current_context

#: Fault kinds whose target is a shard id (fills the event log's shard
#: column); the rest target nodes or the whole cluster.
_SHARD_TARGETED = frozenset(
    {"slow_replica", "corrupt_translog", "crash_primary", "blackhole_dispatch"}
)


@dataclass
class ActiveFault:
    """One currently-injected, recoverable fault."""

    kind: str
    target: object
    params: Mapping
    injected_at: float
    undo: dict = field(default_factory=dict)  # saved state for recovery


class FaultInjector:
    """Applies and reverts fault kinds on an :class:`~repro.esdb.ESDB`."""

    def __init__(self, db, telemetry=None) -> None:
        self.db = db
        self.telemetry = telemetry if telemetry is not None else db.telemetry
        self.active: dict[tuple[str, object], ActiveFault] = {}
        #: (at, action, kind, target, detail) rows — the ``cat_faults`` data.
        self.log: list[tuple[float, str, str, object, str]] = []
        #: Shards whose client dispatch currently fails (``None`` = all).
        self.blackholed_shards: set = set()
        self.blackhole_all = False

    # -- injection ----------------------------------------------------------
    def inject(self, kind: str, target: object = None, at: float | None = None,
               **params) -> str:
        """Inject one fault; returns a human-readable detail string."""
        if kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        key = (kind, target)
        if key in self.active:
            raise FaultInjectionError(f"fault {kind} on {target!r} already active")
        at = self.db.now if at is None else at
        handler = getattr(self, f"_inject_{kind}")
        undo: dict = {}
        detail = handler(target, undo, **params)
        if kind not in ONE_SHOT_KINDS:
            self.active[key] = ActiveFault(kind, target, dict(params), at, undo)
        self._count("faults_injected_total", kind)
        self.log.append((at, "inject", kind, target, detail))
        self._emit("fault_inject", at, kind, target)
        return detail

    def recover(self, kind: str | None = None, target: object = None,
                at: float | None = None) -> int:
        """Recover active faults matching *kind*/*target* (both None =
        everything). Returns the number of faults lifted."""
        at = self.db.now if at is None else at
        matched = [
            key for key, fault in self.active.items()
            if (kind is None or fault.kind == kind)
            and (target is None or fault.target == target)
        ]
        for key in matched:
            fault = self.active.pop(key)
            handler = getattr(self, f"_recover_{fault.kind}")
            detail = handler(fault.target, fault.undo)
            self._count("faults_recovered_total", fault.kind)
            self.log.append((at, "recover", fault.kind, fault.target, detail))
            self._emit("fault_recover", at, fault.kind, fault.target)
        return len(matched)

    def active_faults(self) -> list[ActiveFault]:
        return [self.active[key] for key in sorted(self.active, key=repr)]

    def dispatch_blackholed(self, shard_id: int) -> bool:
        return self.blackhole_all or shard_id in self.blackholed_shards

    def _count(self, name: str, kind: str) -> None:
        self.telemetry.metrics.counter(name, kind=kind).inc()

    def _emit(self, event_kind: str, at: float, fault_kind: str, target) -> None:
        """Mirror one log row into the instance's structured event log.

        Duck-typed so an injector built around a bare test double (no
        ``events`` attribute) keeps working; the shard column is filled
        only for shard-targeted fault kinds."""
        events = getattr(self.db, "events", None)
        if events is None:
            return
        shard = target if fault_kind in _SHARD_TARGETED else None
        events.emit(
            event_kind,
            at,
            shard=shard,
            trace_id=getattr(current_context(), "trace_id", None),
            fault=fault_kind,
            target=target,
        )

    def _participant(self, node_id: int):
        name = f"node-{node_id}"
        for participant in self.db.consensus.participants:
            if participant.name == name:
                return participant
        raise FaultInjectionError(f"no consensus participant named {name!r}")

    # -- crash_node ---------------------------------------------------------
    def _inject_crash_node(self, node_id, undo) -> str:
        self.db.cluster.fail_node(int(node_id))
        self._participant(int(node_id)).crash()
        return f"node-{node_id} down; consensus participant crashed"

    def _recover_crash_node(self, node_id, undo) -> str:
        self.db.cluster.restart_node(int(node_id))
        participant = self._participant(int(node_id))
        participant.recover()
        delivered = self.db.consensus.catch_up(participant)
        return f"node-{node_id} up; caught up {delivered} missed decision(s)/rule(s)"

    # -- partition_node -----------------------------------------------------
    def _inject_partition_node(self, node_id, undo) -> str:
        self._participant(int(node_id)).partition()
        return f"node-{node_id} isolated from consensus traffic"

    def _recover_partition_node(self, node_id, undo) -> str:
        participant = self._participant(int(node_id))
        participant.heal()
        delivered = self.db.consensus.catch_up(participant)
        return f"node-{node_id} healed; caught up {delivered} missed decision(s)/rule(s)"

    # -- slow_replica -------------------------------------------------------
    def _inject_slow_replica(self, shard_id, undo, seconds_per_byte: float = 1e-6) -> str:
        replica_set = self.db.replica_sets.get(shard_id)
        if replica_set is None:
            raise FaultInjectionError(f"shard {shard_id!r} has no replica set")
        undo["speeds"] = {}
        for name, replicator in replica_set.replicators.items():
            undo["speeds"][name] = replicator.network_seconds_per_byte
            replicator.network_seconds_per_byte = seconds_per_byte
        return (
            f"shard {shard_id}: {len(undo['speeds'])} replica(s) slowed to "
            f"{seconds_per_byte:g} s/byte"
        )

    def _recover_slow_replica(self, shard_id, undo) -> str:
        replica_set = self.db.replica_sets.get(shard_id)
        restored = 0
        if replica_set is not None:
            for name, speed in undo.get("speeds", {}).items():
                replicator = replica_set.replicators.get(name)
                if replicator is not None:
                    replicator.network_seconds_per_byte = speed
                    restored += 1
        return f"shard {shard_id}: {restored} replica(s) restored to full speed"

    # -- clock_skew ---------------------------------------------------------
    def _inject_clock_skew(self, node_id, undo, skew: float = 2.0) -> str:
        participant = self._participant(int(node_id))
        undo["skew"] = participant.clock.skew
        participant.clock.skew = skew
        return f"node-{node_id} clock skewed by {skew:+g}s"

    def _recover_clock_skew(self, node_id, undo) -> str:
        participant = self._participant(int(node_id))
        participant.clock.skew = undo.get("skew", 0.0)
        return f"node-{node_id} clock restored"

    # -- corrupt_translog (one-shot) ---------------------------------------
    def _inject_corrupt_translog(self, shard_id, undo, replica: str | None = None,
                                 entries: int = 1) -> str:
        replica_set = self.db.replica_sets.get(shard_id)
        if replica_set is None:
            raise FaultInjectionError(f"shard {shard_id!r} has no replica set")
        if not replica_set.replicators:
            raise FaultInjectionError(f"shard {shard_id!r} has no replicas left")
        if replica is None:
            replica = sorted(replica_set.replicators)[0]
        replicator = replica_set.replicators.get(replica)
        if replicator is None:
            raise FaultInjectionError(f"shard {shard_id!r} has no replica {replica!r}")
        log = replicator.replica_translog
        flipped = 0
        # Corrupt the tail *copies* only: the entry objects are shared with
        # the primary's translog, so mutating in place would corrupt the
        # primary too — a disk fault on one replica must stay on it.
        for index in range(max(0, len(log) - entries), len(log)):
            entry = log[index]
            log[index] = TranslogEntry(
                entry.sequence, entry.op, entry.doc_id, entry.source,
                entry.checksum ^ 0xFF,
            )
            flipped += 1
        return f"shard {shard_id}/{replica}: corrupted {flipped} tail entry(ies)"

    # -- crash_primary (one-shot) ------------------------------------------
    def _inject_crash_primary(self, shard_id, undo) -> str:
        replica_set = self.db.replica_sets.get(shard_id)
        if replica_set is None:
            raise FaultInjectionError(f"shard {shard_id!r} has no replica set")
        survivors = len(replica_set.replicators) - 1
        self.db.fail_primary(shard_id)
        return (
            f"shard {shard_id}: primary crashed; replica promoted, "
            f"{survivors} replica(s) re-homed"
        )

    # -- blackhole_dispatch -------------------------------------------------
    def _inject_blackhole_dispatch(self, shard_id, undo) -> str:
        if shard_id is None:
            self.blackhole_all = True
            return "client dispatch blackholed for every shard"
        self.blackholed_shards.add(shard_id)
        return f"client dispatch to shard {shard_id} blackholed"

    def _recover_blackhole_dispatch(self, shard_id, undo) -> str:
        if shard_id is None:
            self.blackhole_all = False
            return "client dispatch restored for every shard"
        self.blackholed_shards.discard(shard_id)
        return f"client dispatch to shard {shard_id} restored"
