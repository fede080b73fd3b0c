"""Randomized failure-injection tests for the rule-consensus protocol.

Hypothesis drives random interleavings of proposals, crashes, partitions,
recoveries and repairs, and checks the protocol's safety properties:

* **strict consistency** — every participant that saw all commits holds
  exactly the master's rule list;
* **no phantom rules** — aborted proposals never appear anywhere;
* **recoverability** — after heal + repair, every participant converges to
  the master's list;
* **monotone effective times** — committed rules carry non-decreasing
  effective times (the property that lets ESDB skip full consensus).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import (
    ConsensusConfig,
    ConsensusMaster,
    Participant,
    RuleProposal,
)
from repro.errors import ConsensusAborted

N_PARTICIPANTS = 4

# One fuzz step: (action, participant index, offset)
_ACTIONS = st.tuples(
    st.sampled_from(["propose", "crash", "recover", "partition", "heal"]),
    st.integers(min_value=0, max_value=N_PARTICIPANTS - 1),
    st.sampled_from([2, 4, 8, 16]),
)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(_ACTIONS, min_size=1, max_size=25))
def test_property_consensus_safety_under_failures(steps):
    participants = [Participant(f"p{i}") for i in range(N_PARTICIPANTS)]
    master = ConsensusMaster(participants, ConsensusConfig(effective_interval=5.0))
    clock = 0.0
    committed: list = []
    missed_commits: dict[str, int] = {p.name: 0 for p in participants}

    for action, index, offset in steps:
        participant = participants[index]
        clock += 10.0
        if action == "propose":
            tenant = f"tenant-{offset}"
            try:
                outcome = master.propose(RuleProposal("fuzz", tenant, offset), clock)
            except ConsensusAborted:
                continue
            committed.append(outcome)
            for name in outcome.unreachable_participants:
                missed_commits[name] += 1
        elif action == "crash":
            participant.crash()
        elif action == "recover":
            participant.recover()
        elif action == "partition":
            participant.partition()
        elif action == "heal":
            participant.heal()

    # Safety: a participant that missed no commit equals the master exactly.
    reference = master.rules.snapshot()
    for participant in participants:
        if missed_commits[participant.name] == 0 and participant.reachable:
            assert participant.rules.snapshot() == reference, participant.name

    # No phantom rules: every rule on any participant was committed by master.
    committed_keys = {
        (o.effective_time, o.proposal.offset) for o in committed
    }
    for participant in participants:
        for rule in participant.rules:
            assert (rule.effective_time, rule.offset) in committed_keys

    # Monotone effective times in commit order.
    times = [o.effective_time for o in committed]
    assert times == sorted(times)

    # Recoverability: heal everyone, catch up, and require full convergence.
    for participant in participants:
        participant.recover()
        participant.heal()
        master.catch_up(participant)
        assert participant.rules.snapshot() == reference


@settings(max_examples=40, deadline=None)
@given(
    skews=st.lists(
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
        min_size=N_PARTICIPANTS,
        max_size=N_PARTICIPANTS,
    ),
    proposals=st.integers(min_value=1, max_value=6),
)
def test_property_effective_time_exceeds_all_executed_records(skews, proposals):
    """After any committed round, the effective time is strictly ahead of
    every record any participant had executed — the condition that makes
    rule matching on creation time deterministic."""
    from repro.consensus import ClockModel

    participants = [
        Participant(f"p{i}", ClockModel(skews[i])) for i in range(N_PARTICIPANTS)
    ]
    master = ConsensusMaster(participants, ConsensusConfig(effective_interval=5.0))
    clock = 0.0
    for i in range(proposals):
        clock += 10.0
        # Participants execute traffic up to "now" before each round.
        for participant in participants:
            participant.execute_write(clock - 1.0)
        outcome = master.propose(RuleProposal("c", "t", 2 ** (i % 5 + 1)), clock)
        for participant in participants:
            assert (
                participant.latest_executed_creation_time < outcome.effective_time
            )


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from([2, 4, 8])),
        min_size=1,
        max_size=10,
    )
)
def test_property_blocking_window_always_released(data):
    """No participant stays blocked after a round finishes — commit or abort."""
    participants = [Participant(f"p{i}") for i in range(N_PARTICIPANTS)]
    master = ConsensusMaster(participants, ConsensusConfig(effective_interval=2.0))
    clock = 0.0
    for crash_index, offset in data:
        clock += 5.0
        if crash_index < N_PARTICIPANTS - 1:
            participants[crash_index].crash()
        try:
            master.propose(RuleProposal("c", "t", offset), clock)
        except ConsensusAborted:
            pass
        for participant in participants:
            if participant.reachable:
                assert participant.blocked_after is None
        for participant in participants:
            participant.recover()
