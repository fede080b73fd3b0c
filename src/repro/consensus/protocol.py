"""The 2PC-variant rule-consensus protocol of §4.3.

The master assigns each proposed rule an effective time ``t = now + T`` and
runs a prepare/commit exchange with every participant (all coordinator
nodes). The protocol is *non-blocking for workloads* as long as ``T`` exceeds
the time to reach consensus: writes with creation time earlier than ``t``
always proceed; only writes newer than ``t`` are briefly held on participants
between prepare and commit, and by the time ``t`` arrives the rule is already
committed.

Failure model reproduced here:

* per-node clock skew (bounded, §4.3 requires skew << T);
* participant crash before reply → prepare timeout (``T/2``) → abort;
* network partition during prepare → abort;
* crash/partition during the commit broadcast leaves the cluster needing the
  manual-verification path the paper describes — surfaced via
  :attr:`RoundOutcome.unreachable_participants`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consensus.messages import (
    AckMessage,
    CommitMessage,
    PrepareMessage,
    PrepareReply,
    RuleProposal,
)
from repro.errors import ConfigurationError, ConsensusAborted
from repro.routing.rules import RuleList
from repro.telemetry.runtime import NULL_TELEMETRY

#: One prepare or commit broadcast round trip (logical seconds).
ROUNDTRIP_LATENCY = 0.1


@dataclass
class ClockModel:
    """A local clock with a fixed skew from global simulated time.

    §4.3 requires the consensus interval ``T`` to dominate the maximum clock
    deviation (≤ 1 s in ESDB's production cluster).
    """

    skew: float = 0.0

    def now(self, global_time: float) -> float:
        return global_time + self.skew


@dataclass(frozen=True)
class ConsensusConfig:
    """Protocol timing parameters.

    Attributes:
        effective_interval: the buffering interval ``T`` added to the master's
            local time to produce the rule's effective time.
    """

    effective_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.effective_interval <= 0:
            raise ConfigurationError("effective_interval must be positive")


class Participant:
    """A coordinator node participating in rule consensus.

    Tracks the latest record creation time it has executed, its local rule
    list replica, and the blocking state between prepare and commit.
    """

    def __init__(self, name: str, clock: ClockModel | None = None) -> None:
        self.name = name
        self.clock = clock or ClockModel()
        self.rules = RuleList()
        self.latest_executed_creation_time = float("-inf")
        self.blocked_after: float | None = None
        self.crashed = False
        self.partitioned = False
        self._pending: PrepareMessage | None = None

    # -- failure injection -------------------------------------------------
    def crash(self) -> None:
        """Simulate a node failure: the participant stops responding."""
        self.crashed = True

    def recover(self) -> None:
        self.crashed = False

    def partition(self) -> None:
        """Simulate a network partition isolating this participant."""
        self.partitioned = True

    def heal(self) -> None:
        self.partitioned = False

    @property
    def reachable(self) -> bool:
        return not (self.crashed or self.partitioned)

    def pending_round(self) -> int | None:
        """Round id of an accepted prepare still awaiting its decision, or
        None. A participant that crashed/partitioned between prepare and
        the commit broadcast sits in this state until caught up."""
        return self._pending.round_id if self._pending is not None else None

    # -- workload interface --------------------------------------------------
    def execute_write(self, created_time: float) -> bool:
        """Record that a write with *created_time* was executed.

        Returns False (workload held) when the write falls after the blocked
        effective time of an in-flight prepare.
        """
        if self.blocked_after is not None and created_time > self.blocked_after:
            return False
        self.latest_executed_creation_time = max(
            self.latest_executed_creation_time, created_time
        )
        return True

    # -- protocol handlers ---------------------------------------------------
    def on_prepare(self, message: PrepareMessage) -> PrepareReply | None:
        """Handle a prepare: verify ``t_c < t`` for all executed records and
        block newer workloads. Returns None when unreachable."""
        if not self.reachable:
            return None
        if self._pending is not None and self._pending.round_id != message.round_id:
            # A different round's prepare is still awaiting its decision
            # (we missed the broadcast while crashed/partitioned). Silently
            # overwriting ``_pending`` would forget that round's blocked
            # state and let its rule vanish; reject until caught up.
            return PrepareReply(
                message.round_id,
                self.name,
                accepted=False,
                reason=(
                    f"round {self._pending.round_id} still in flight; "
                    "needs catch-up before accepting a new prepare"
                ),
            )
        if self.latest_executed_creation_time >= message.effective_time:
            return PrepareReply(
                message.round_id,
                self.name,
                accepted=False,
                reason=(
                    "executed record newer than effective time: "
                    f"{self.latest_executed_creation_time} >= {message.effective_time}"
                ),
            )
        self.blocked_after = message.effective_time
        self._pending = message
        return PrepareReply(message.round_id, self.name, accepted=True)

    def on_commit(self, message: CommitMessage) -> AckMessage | None:
        """Handle commit/abort: apply the rule (on commit) and unblock."""
        if not self.reachable:
            return None
        if self._pending is not None and self._pending.round_id == message.round_id:
            self._pending = None
            self.blocked_after = None
        if message.commit:
            self.rules.update(
                message.effective_time, message.proposal.offset, message.proposal.tenant_id
            )
        return AckMessage(message.round_id, self.name)


@dataclass
class RoundOutcome:
    """Result of one consensus round."""

    round_id: int
    committed: bool
    effective_time: float
    proposal: RuleProposal
    abort_reason: str = ""
    unreachable_participants: tuple = ()
    elapsed: float = 0.0


class ConsensusMaster:
    """The elected master node driving prepare/commit rounds.

    The master owns the authoritative rule list; committed rules are applied
    to it and to every reachable participant's replica.
    """

    def __init__(
        self,
        participants: list[Participant],
        config: ConsensusConfig | None = None,
        clock: ClockModel | None = None,
        telemetry=None,
    ) -> None:
        if not participants:
            raise ConfigurationError("consensus needs at least one participant")
        self.participants = list(participants)
        self.config = config or ConsensusConfig()
        self.clock = clock or ClockModel()
        self.rules = RuleList()
        self._round_counter = 0
        self.history: list[RoundOutcome] = []
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        metrics = self.telemetry.metrics
        self._committed_counter = metrics.counter(
            "consensus_rounds_total", outcome="committed"
        )
        self._aborted_counter = metrics.counter(
            "consensus_rounds_total", outcome="aborted"
        )
        self._wait_histogram = metrics.histogram("consensus_effective_wait_seconds")
        self._catchup_counter = metrics.counter("consensus_catchup_deliveries_total")

    def propose(self, proposal: RuleProposal, global_time: float) -> RoundOutcome:
        """Run one full consensus round and return its outcome.

        Raises :class:`ConsensusAborted` on abort so callers cannot silently
        treat an uncommitted rule as active; the outcome is still recorded in
        :attr:`history` either way.
        """
        self._round_counter += 1
        round_id = self._round_counter
        effective_time = self.clock.now(global_time) + self.config.effective_interval
        prepare = PrepareMessage(round_id, proposal, effective_time)
        tracer = self.telemetry.tracer

        with tracer.span(
            "consensus.round", tenant=proposal.tenant_id, offset=proposal.offset
        ):
            replies: list[PrepareReply] = []
            silent: list[str] = []
            with tracer.span("consensus.prepare"):
                for participant in self.participants:
                    reply = participant.on_prepare(prepare)
                    if reply is None:
                        silent.append(participant.name)  # timeout after T/2
                    else:
                        replies.append(reply)

            rejected = [r for r in replies if not r.accepted]
            if rejected or silent:
                reason = "; ".join(
                    [f"{r.participant}: {r.reason}" for r in rejected]
                    + [f"{name}: prepare timeout (T/2)" for name in silent]
                )
                with tracer.span("consensus.abort"):
                    self._broadcast_commit(round_id, proposal, effective_time, commit=False)
                outcome = RoundOutcome(
                    round_id,
                    committed=False,
                    effective_time=effective_time,
                    proposal=proposal,
                    abort_reason=reason,
                    elapsed=ROUNDTRIP_LATENCY,
                )
                self.history.append(outcome)
                self._aborted_counter.inc()
                raise ConsensusAborted(reason)

            with tracer.span("consensus.commit"):
                unreachable = self._broadcast_commit(
                    round_id, proposal, effective_time, commit=True
                )
                self.rules.update(effective_time, proposal.offset, proposal.tenant_id)
            outcome = RoundOutcome(
                round_id,
                committed=True,
                effective_time=effective_time,
                proposal=proposal,
                unreachable_participants=tuple(unreachable),
                elapsed=2 * ROUNDTRIP_LATENCY,
            )
            self.history.append(outcome)
            self._committed_counter.inc()
            self._wait_histogram.observe(effective_time - global_time)
            return outcome

    def _broadcast_commit(
        self, round_id: int, proposal: RuleProposal, effective_time: float, commit: bool
    ) -> list[str]:
        """Broadcast the commit/abort decision; returns names of participants
        that could not be reached (the manual-verification case of §4.3)."""
        message = CommitMessage(round_id, commit, proposal, effective_time)
        unreachable = []
        for participant in self.participants:
            if participant.on_commit(message) is None:
                unreachable.append(participant.name)
        return unreachable

    def catch_up(self, participant: Participant) -> int:
        """Heal-time catch-up: deliver the commit/abort decisions a
        recovered participant missed while crashed/partitioned.

        Resolves a dangling prepare (the round's recorded outcome is
        re-delivered as a commit/abort message, which applies the rule and
        lifts ``blocked_after``), then fills in any committed rules the
        participant never saw. Without this, a participant that accepted a
        prepare and missed the broadcast holds every write newer than the
        dead effective time *forever*. Returns the number of decisions and
        rules delivered; raises nothing for an unreachable participant (it
        simply cannot be caught up yet).
        """
        if not participant.reachable:
            return 0
        delivered = 0
        pending = participant.pending_round()
        if pending is not None:
            outcome = next(
                (o for o in self.history if o.round_id == pending), None
            )
            if outcome is not None:
                participant.on_commit(
                    CommitMessage(
                        outcome.round_id,
                        outcome.committed,
                        outcome.proposal,
                        outcome.effective_time,
                    )
                )
            else:
                # No recorded outcome (round evaporated with the old
                # master): treat as aborted so the block cannot outlive it.
                participant._pending = None
                participant.blocked_after = None
            delivered += 1
        # Fill in committed rules the participant missed entirely (crashed
        # through whole rounds). insert() merges by (t, s), so re-delivery
        # of rules it already holds is a no-op for routing decisions.
        reference = self.rules.snapshot()
        if participant.rules.snapshot() != reference:
            for rule in reference:
                participant.rules.insert(
                    rule.effective_time, rule.offset, rule.tenants
                )
                delivered += 1
        if delivered:
            self._catchup_counter.inc(delivered)
        return delivered

    def catch_up_all(self) -> int:
        """Catch up every reachable participant; returns total deliveries."""
        return sum(self.catch_up(p) for p in self.participants)
