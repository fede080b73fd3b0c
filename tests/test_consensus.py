"""Tests for the 2PC-variant rule-consensus protocol (§4.3, Figure 5)."""

from __future__ import annotations

import pytest

from repro.consensus import (
    ClockModel,
    ConsensusConfig,
    ConsensusMaster,
    Participant,
    RuleProposal,
)
from repro.consensus.protocol import ROUNDTRIP_LATENCY
from repro.errors import ConfigurationError, ConsensusAborted


def make_cluster(n=3, interval=5.0, skews=None):
    skews = skews or [0.0] * n
    participants = [Participant(f"p{i}", ClockModel(skews[i])) for i in range(n)]
    master = ConsensusMaster(participants, ConsensusConfig(effective_interval=interval))
    return master, participants


PROPOSAL = RuleProposal(proposer="c0", tenant_id="hot", offset=8)


class TestHappyPath:
    def test_commit_applies_rule_everywhere(self):
        master, participants = make_cluster()
        outcome = master.propose(PROPOSAL, global_time=100.0)
        assert outcome.committed
        assert master.rules.match("hot", outcome.effective_time + 1) == 8
        for p in participants:
            assert p.rules.match("hot", outcome.effective_time + 1) == 8

    def test_effective_time_is_now_plus_interval(self):
        master, _ = make_cluster(interval=7.5)
        outcome = master.propose(PROPOSAL, global_time=100.0)
        assert outcome.effective_time == pytest.approx(107.5)

    def test_blocking_released_after_commit(self):
        master, participants = make_cluster()
        outcome = master.propose(PROPOSAL, global_time=0.0)
        for p in participants:
            assert p.blocked_after is None
            assert p.execute_write(outcome.effective_time + 100)

    def test_round_history_recorded(self):
        master, _ = make_cluster()
        master.propose(PROPOSAL, 0.0)
        master.propose(RuleProposal("c1", "hot2", 16), 10.0)
        assert len(master.history) == 2
        assert all(o.committed for o in master.history)

    def test_rules_append_only_ordered_by_effective_time(self):
        master, _ = make_cluster()
        o1 = master.propose(PROPOSAL, 0.0)
        o2 = master.propose(RuleProposal("c0", "hot", 16), 50.0)
        times = [rule.effective_time for rule in master.rules]
        assert times == sorted(times)
        assert o2.effective_time > o1.effective_time


class TestRoundLatency:
    def test_committed_round_costs_two_round_trips(self):
        """Prepare and commit are one broadcast round trip each."""
        master, _ = make_cluster()
        outcome = master.propose(PROPOSAL, global_time=0.0)
        assert outcome.elapsed == pytest.approx(2 * ROUNDTRIP_LATENCY)

    def test_aborted_round_costs_one_round_trip(self):
        master, participants = make_cluster()
        participants[2].crash()
        with pytest.raises(ConsensusAborted):
            master.propose(PROPOSAL, global_time=0.0)
        assert master.history[-1].elapsed == pytest.approx(ROUNDTRIP_LATENCY)

    def test_abort_reason_names_every_silent_participant(self):
        """Each participant that never answers prepare times out at T/2,
        and the abort reason names it."""
        master, participants = make_cluster()
        participants[0].partition()
        participants[2].crash()
        with pytest.raises(ConsensusAborted) as aborted:
            master.propose(PROPOSAL, global_time=0.0)
        reason = str(aborted.value)
        assert "p0: prepare timeout (T/2)" in reason
        assert "p2: prepare timeout (T/2)" in reason
        assert "p1" not in reason


class TestPrepareValidation:
    def test_participant_rejects_when_record_newer_than_effective_time(self):
        master, participants = make_cluster(interval=5.0)
        # A participant already executed a record created at t=200 — way past
        # the effective time the master will pick (t=105).
        participants[1].execute_write(200.0)
        with pytest.raises(ConsensusAborted):
            master.propose(PROPOSAL, global_time=100.0)
        assert len(master.rules) == 0
        for p in participants:
            assert len(p.rules) == 0

    def test_abort_releases_blocks_on_accepting_participants(self):
        master, participants = make_cluster()
        participants[2].execute_write(1e9)
        with pytest.raises(ConsensusAborted):
            master.propose(PROPOSAL, global_time=0.0)
        # p0 and p1 accepted (and blocked) but must be unblocked by abort.
        assert participants[0].blocked_after is None
        assert participants[1].blocked_after is None

    def test_workloads_after_effective_time_blocked_during_round(self):
        """Between prepare and commit, a participant holds writes newer than
        the effective time (§4.3's non-blocking guarantee relies on T being
        long enough that this window closes before real traffic reaches t)."""
        participant = Participant("p")
        from repro.consensus.messages import PrepareMessage

        reply = participant.on_prepare(PrepareMessage(1, PROPOSAL, effective_time=50.0))
        assert reply.accepted
        assert participant.execute_write(49.0)  # before t: proceeds
        assert not participant.execute_write(51.0)  # after t: held
        assert participant.blocked_after == 50.0


class TestFailures:
    def test_crashed_participant_aborts_round(self):
        master, participants = make_cluster()
        participants[0].crash()
        with pytest.raises(ConsensusAborted, match="timeout"):
            master.propose(PROPOSAL, 0.0)

    def test_partitioned_participant_aborts_round(self):
        master, participants = make_cluster()
        participants[1].partition()
        with pytest.raises(ConsensusAborted):
            master.propose(PROPOSAL, 0.0)

    def test_recovered_participant_can_commit_again(self):
        master, participants = make_cluster()
        participants[0].crash()
        with pytest.raises(ConsensusAborted):
            master.propose(PROPOSAL, 0.0)
        participants[0].recover()
        outcome = master.propose(PROPOSAL, 10.0)
        assert outcome.committed

    def test_crash_during_commit_reported_for_manual_repair(self):
        """Failure after prepare (during commit broadcast) leaves the node
        out of sync — surfaced in the outcome, repaired via master.catch_up."""
        master, participants = make_cluster()

        # Crash p2 after it accepts prepare but before commit reaches it.
        original_on_prepare = participants[2].on_prepare

        def prepare_then_crash(message):
            reply = original_on_prepare(message)
            participants[2].crash()
            return reply

        participants[2].on_prepare = prepare_then_crash
        outcome = master.propose(PROPOSAL, 0.0)
        assert outcome.committed
        assert outcome.unreachable_participants == ("p2",)
        assert len(participants[2].rules) == 0

        participants[2].recover()
        copied = master.catch_up(participants[2])
        assert copied == 1
        assert participants[2].rules.match("hot", 1e9) == 8
        assert participants[2].blocked_after is None

    def test_clock_skew_shifts_effective_time(self):
        master_fast, _ = make_cluster()
        master_fast.clock = ClockModel(skew=2.0)
        outcome = master_fast.propose(PROPOSAL, global_time=100.0)
        assert outcome.effective_time == pytest.approx(107.0)

    def test_strict_consistency_all_replicas_identical_after_rounds(self):
        master, participants = make_cluster(n=5)
        for i, offset in enumerate((2, 4, 8, 16)):
            master.propose(RuleProposal("c", f"tenant-{i}", offset), float(i * 10))
        reference = master.rules.snapshot()
        for p in participants:
            assert p.rules.snapshot() == reference


class TestConfigValidation:
    def test_empty_participants_rejected(self):
        with pytest.raises(ConfigurationError):
            ConsensusMaster([])

    def test_invalid_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            ConsensusConfig(effective_interval=0)


class TestHealTimeCatchUp:
    """Regression tests: a participant that accepted a prepare and missed
    the decision used to stay blocked forever (``blocked_after`` kept) and
    to silently overwrite its in-flight ``_pending`` on the next prepare."""

    def _crash_between_prepare_and_commit(self, master, participants, index=2):
        original_on_prepare = participants[index].on_prepare

        def prepare_then_crash(message):
            reply = original_on_prepare(message)
            participants[index].crash()
            return reply

        participants[index].on_prepare = prepare_then_crash
        outcome = master.propose(PROPOSAL, 0.0)
        participants[index].on_prepare = original_on_prepare
        return outcome

    def test_catch_up_resolves_dangling_pending(self):
        master, participants = make_cluster()
        outcome = self._crash_between_prepare_and_commit(master, participants)
        assert outcome.committed
        p2 = participants[2]
        assert p2.pending_round() == outcome.round_id
        assert p2.blocked_after is not None

        p2.recover()
        delivered = master.catch_up(p2)
        assert delivered >= 1
        assert p2.pending_round() is None
        assert p2.blocked_after is None
        assert p2.rules.snapshot() == master.rules.snapshot()
        # The previously-held workload flows again.
        assert p2.execute_write(outcome.effective_time + 100)

    def test_catch_up_unreachable_participant_is_noop(self):
        master, participants = make_cluster()
        self._crash_between_prepare_and_commit(master, participants)
        assert master.catch_up(participants[2]) == 0
        assert participants[2].pending_round() is not None

    def test_catch_up_fills_missed_committed_rules(self):
        # A node that joins (or rejoins) with no dangling prepare but an
        # empty rule list gets the committed history backfilled.
        master, participants = make_cluster()
        master.propose(PROPOSAL, 0.0)
        master.propose(RuleProposal("c0", "hot2", 16), 20.0)
        late = Participant("p-late", ClockModel())
        master.participants.append(late)
        assert master.catch_up(late) == 2
        assert late.rules.snapshot() == master.rules.snapshot()

    def test_catch_up_all_heals_every_reachable_node(self):
        master, participants = make_cluster()
        self._crash_between_prepare_and_commit(master, participants)
        participants[2].recover()
        assert master.catch_up_all() >= 1
        for p in participants:
            assert p.pending_round() is None
            assert p.blocked_after is None
            assert p.rules.snapshot() == master.rules.snapshot()

    def test_catch_up_is_idempotent(self):
        master, participants = make_cluster()
        self._crash_between_prepare_and_commit(master, participants)
        participants[2].recover()
        master.catch_up(participants[2])
        assert master.catch_up(participants[2]) == 0

    def test_prepare_rejected_while_other_round_pending(self):
        """A new round's prepare must not clobber an in-flight ``_pending``
        from a round whose decision this node missed."""
        master, participants = make_cluster()
        outcome = self._crash_between_prepare_and_commit(master, participants)
        p2 = participants[2]
        p2.recover()  # reachable again, but not yet caught up

        with pytest.raises(ConsensusAborted, match="still in flight"):
            master.propose(RuleProposal("c0", "hot2", 16), 30.0)
        # The dangling round survived the rejected prepare.
        assert p2.pending_round() == outcome.round_id

        master.catch_up(p2)
        next_outcome = master.propose(RuleProposal("c0", "hot2", 16), 30.0)
        assert next_outcome.committed
        assert p2.rules.snapshot() == master.rules.snapshot()

    def test_reprepare_of_same_round_still_accepted(self):
        master, participants = make_cluster()
        p0 = participants[0]
        from repro.consensus.protocol import PrepareMessage

        message = PrepareMessage(
            round_id=7, proposal=PROPOSAL, effective_time=50.0
        )
        first = p0.on_prepare(message)
        assert first.accepted
        # A duplicate prepare for the *same* round (master retry) is fine.
        again = p0.on_prepare(message)
        assert again.accepted

    def test_catch_up_counts_deliveries_in_telemetry(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        participants = [Participant(f"p{i}", ClockModel()) for i in range(3)]
        master = ConsensusMaster(
            participants,
            ConsensusConfig(effective_interval=5.0),
            telemetry=telemetry,
        )
        original_on_prepare = participants[2].on_prepare

        def prepare_then_crash(message):
            reply = original_on_prepare(message)
            participants[2].crash()
            return reply

        participants[2].on_prepare = prepare_then_crash
        master.propose(PROPOSAL, 0.0)
        participants[2].on_prepare = original_on_prepare
        participants[2].recover()
        master.catch_up(participants[2])
        counter = telemetry.metrics.get("consensus_catchup_deliveries_total")
        assert counter is not None and counter.value >= 1
