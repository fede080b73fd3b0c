"""Tests for the arrival processes and tenant churn (repro.workload.arrivals)."""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.workload.arrivals import BurstyProcess, ChurnEvent, PoissonProcess, TenantChurn
from repro.workload.zipf import ZipfSampler


def burstiness(times) -> float:
    """Goh–Barabási ``(σ−μ)/(σ+μ)`` of the interarrival gaps: ≈0 for
    Poisson, towards 1 for bursts, −1 for a perfectly regular stream."""
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean = sum(gaps) / len(gaps)
    sigma = math.sqrt(sum((gap - mean) ** 2 for gap in gaps) / len(gaps))
    return (sigma - mean) / (sigma + mean)


class TestPoissonProcess:
    def test_deterministic_given_seed(self):
        a = list(PoissonProcess(100.0, duration=5.0, seed=3).times())
        b = list(PoissonProcess(100.0, duration=5.0, seed=3).times())
        assert a == b
        assert list(PoissonProcess(100.0, duration=5.0, seed=4).times()) != a

    def test_times_strictly_inside_duration_and_increasing(self):
        times = list(PoissonProcess(200.0, duration=3.0, seed=1).times())
        assert all(0.0 <= t < 3.0 for t in times)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_homogeneous_count_near_rate_times_duration(self):
        times = list(PoissonProcess(500.0, duration=10.0, seed=0).times())
        # Poisson(5000): 5 sigma ≈ 354.
        assert abs(len(times) - 5000) < 400

    def test_one_unread_uniform_per_event(self):
        """Each event draws its exponential gap and then one uniform that is
        never read: the benchmark's pinned stream and every recorded trace
        were drawn that way, so dropping the draw would move them all."""
        rng = random.Random(11)
        expected, t = [], 0.0
        while True:
            t += rng.expovariate(250.0)
            if t >= 4.0:
                break
            rng.random()
            expected.append(t)
        assert list(PoissonProcess(250.0, duration=4.0, seed=11).times()) == expected

    def test_mean_gap_is_the_inverse_rate(self):
        times = list(PoissonProcess(500.0, duration=10.0, seed=0).times())
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        assert sum(gaps) / len(gaps) == pytest.approx(1 / 500.0, rel=0.05)

    def test_gaps_are_memoryless(self):
        """Exponential gaps: about e^-1 of them outlast their mean."""
        times = list(PoissonProcess(500.0, duration=10.0, seed=0).times())
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        mean = sum(gaps) / len(gaps)
        share_past_mean = sum(1 for gap in gaps if gap > mean) / len(gaps)
        assert share_past_mean == pytest.approx(math.exp(-1), abs=0.03)

    def test_describe_payload(self):
        """The trace v2 header's ``arrival`` record: a constant-rate curve."""
        assert PoissonProcess(50.0, duration=30.0, seed=9).describe() == {
            "kind": "poisson",
            "duration": 30.0,
            "seed": 9,
            "curve": {"kind": "constant", "rate": 50.0},
        }

    def test_invalid_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            PoissonProcess(10.0, duration=0.0)

    def test_invalid_rate_rejected(self):
        for rate in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                PoissonProcess(rate, duration=1.0)

    def test_seeded_event_counts_are_pinned(self):
        """Every stream is drawn from ``random.Random(seed)``, so its length
        is exact: a recorded trace, a chaos fingerprint and a benchmark
        stream all move if a generator drifts. Homogeneous Poisson, and the
        on/off process beside it."""
        streams = (
            PoissonProcess(300.0, duration=20.0, seed=1),
            BurstyProcess(300.0, duration=20.0, off_rate=15.0,
                          mean_on_seconds=2.0, mean_off_seconds=3.0, seed=2),
        )
        assert [sum(1 for _ in s.times()) for s in streams] == [5913, 2934]


class TestBurstyProcess:
    def test_deterministic_given_seed(self):
        kwargs = dict(on_rate=100.0, duration=10.0, off_rate=5.0,
                      mean_on_seconds=1.0, mean_off_seconds=2.0, seed=6)
        assert list(BurstyProcess(**kwargs).times()) == list(
            BurstyProcess(**kwargs).times()
        )

    def test_seed_changes_stream(self):
        kwargs = dict(on_rate=100.0, duration=10.0, off_rate=5.0)
        assert list(BurstyProcess(**kwargs, seed=1).times()) != list(
            BurstyProcess(**kwargs, seed=2).times()
        )

    def test_times_strictly_inside_duration_and_increasing(self):
        times = list(BurstyProcess(150.0, duration=8.0, off_rate=10.0,
                                   mean_on_seconds=0.5, mean_off_seconds=1.5,
                                   seed=3).times())
        assert times
        assert all(0.0 <= t < 8.0 for t in times)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_long_run_rate_mixes_the_two_states(self):
        """Over many dwells the rate is the on and off rates weighted by
        the mean time spent in each state."""
        process = BurstyProcess(100.0, duration=2000.0, off_rate=10.0,
                                mean_on_seconds=1.0, mean_off_seconds=1.0, seed=0)
        expected = (100.0 * 1.0 + 10.0 * 1.0) / (1.0 + 1.0)
        rate = sum(1 for _ in process.times()) / 2000.0
        assert rate == pytest.approx(expected, rel=0.08)

    def test_burstier_than_poisson(self):
        poisson = burstiness(list(PoissonProcess(100.0, duration=20.0, seed=1).times()))
        bursty = burstiness(list(BurstyProcess(100.0, duration=20.0, mean_on_seconds=1.0,
                                               mean_off_seconds=3.0, seed=1).times()))
        assert abs(poisson) < 0.1
        assert bursty > poisson + 0.2

    def test_silent_off_state_produces_gaps(self):
        times = list(BurstyProcess(200.0, duration=30.0, off_rate=0.0,
                                   mean_on_seconds=1.0, mean_off_seconds=2.0,
                                   seed=4).times())
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) > 0.5  # an off-dwell with zero arrivals

    def test_starts_in_the_on_state(self):
        """The chain begins on: the first arrival comes at the on rate, not
        after a (here hundred-second) silent off-dwell."""
        times = BurstyProcess(1000.0, duration=10.0, off_rate=0.0,
                              mean_on_seconds=1.0, mean_off_seconds=100.0,
                              seed=2).times()
        assert next(times) < 0.05

    def test_describe_roundtrip(self):
        """The header record names every constructor argument, so a trace
        header rebuilds its own stream."""
        process = BurstyProcess(80.0, duration=12.0, off_rate=4.0, seed=5)
        payload = process.describe()
        assert payload.pop("kind") == "bursty"
        assert list(BurstyProcess(**payload).times()) == list(process.times())

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            BurstyProcess(0.0, duration=10.0)
        with pytest.raises(ConfigurationError):
            BurstyProcess(10.0, duration=10.0, off_rate=10.0)
        with pytest.raises(ConfigurationError):
            BurstyProcess(10.0, duration=10.0, mean_on_seconds=0.0)

    def test_invalid_off_state_rejected(self):
        with pytest.raises(ConfigurationError):
            BurstyProcess(10.0, duration=10.0, off_rate=-1.0)
        with pytest.raises(ConfigurationError):
            BurstyProcess(10.0, duration=10.0, mean_off_seconds=0.0)
        with pytest.raises(ConfigurationError):
            BurstyProcess(10.0, duration=0.0)


class TestTenantChurn:
    def test_schedule_deterministic_and_ordered(self):
        a = TenantChurn(duration=50.0, spawn_rate=0.5, seed=3)
        b = TenantChurn(duration=50.0, spawn_rate=0.5, seed=3)
        assert a.events == b.events
        times = [event.time for event in a.events]
        assert times == sorted(times)
        assert all(0.0 <= t < 50.0 for t in times)

    def test_seed_changes_schedule(self):
        assert (TenantChurn(duration=50.0, spawn_rate=0.5, seed=1).events
                != TenantChurn(duration=50.0, spawn_rate=0.5, seed=2).events)

    def test_spawn_count_near_rate_times_duration(self):
        churn = TenantChurn(duration=2000.0, spawn_rate=0.5, seed=2)
        spawns = sum(1 for e in churn.events if e.kind == "spawn")
        # Poisson(1000): 5 sigma ≈ 158.
        assert abs(spawns - 1000) < 160

    def test_ranks_stay_within_the_hot_span(self):
        churn = TenantChurn(duration=200.0, spawn_rate=1.0, hot_rank_span=4, seed=3)
        ranks = {e.rank for e in churn.events}
        assert ranks == {1, 2, 3, 4}

    def test_death_follows_its_spawn_inside_the_window(self):
        """A tenant dies after it spawns, at its own rank, and a lifetime
        that would end past the duration schedules no death."""
        churn = TenantChurn(duration=20.0, spawn_rate=1.0,
                            mean_lifetime_seconds=10.0, seed=4)
        spawns = {e.tenant: e for e in churn.events if e.kind == "spawn"}
        deaths = [e for e in churn.events if e.kind == "die"]
        assert deaths and len(deaths) < len(spawns)
        for death in deaths:
            assert spawns[death.tenant].time < death.time < 20.0
            assert spawns[death.tenant].rank == death.rank

    def test_every_death_has_a_spawn(self):
        churn = TenantChurn(duration=40.0, spawn_rate=0.8,
                            mean_lifetime_seconds=5.0, seed=1)
        spawned = {e.tenant for e in churn.events if e.kind == "spawn"}
        died = {e.tenant for e in churn.events if e.kind == "die"}
        assert died <= spawned

    def test_spawn_then_die_restores_previous_occupant(self):
        sampler = ZipfSampler(20, 1.0, seed=0)
        churn = TenantChurn(duration=10.0, spawn_rate=0.5, seed=0)
        original = sampler.tenant_at(3)
        churn.apply_event(sampler, ChurnEvent(1.0, "spawn", "flash-a", 3))
        assert sampler.tenant_at(3) == "flash-a"
        churn.apply_event(sampler, ChurnEvent(2.0, "die", "flash-a", 3))
        assert sampler.tenant_at(3) == original

    def test_stacked_spawns_restore_in_order(self):
        sampler = ZipfSampler(20, 1.0, seed=0)
        churn = TenantChurn(duration=10.0, spawn_rate=0.5, seed=0)
        original = sampler.tenant_at(5)
        churn.apply_event(sampler, ChurnEvent(1.0, "spawn", "flash-a", 5))
        churn.apply_event(sampler, ChurnEvent(2.0, "spawn", "flash-b", 5))
        assert sampler.tenant_at(5) == "flash-b"
        # flash-a dies while buried: it must never resurface.
        churn.apply_event(sampler, ChurnEvent(3.0, "die", "flash-a", 5))
        assert sampler.tenant_at(5) == "flash-b"
        churn.apply_event(sampler, ChurnEvent(4.0, "die", "flash-b", 5))
        assert sampler.tenant_at(5) == original

    def test_full_schedule_leaves_each_rank_to_its_newest_survivor(self):
        """Applied in order, the whole schedule leaves every hot rank to the
        last-spawned flash tenant that never dies there, or to its original
        tenant when none survives."""
        sampler = ZipfSampler(20, 1.0, seed=0)
        original = {rank: sampler.tenant_at(rank) for rank in range(1, 4)}
        churn = TenantChurn(duration=60.0, spawn_rate=1.0,
                            mean_lifetime_seconds=8.0, hot_rank_span=3, seed=7)
        for event in churn.events:
            churn.apply_event(sampler, event)
        died = {e.tenant for e in churn.events if e.kind == "die"}
        assert died
        for rank in range(1, 4):
            survivors = [e.tenant for e in churn.events
                         if e.kind == "spawn" and e.rank == rank and e.tenant not in died]
            assert sampler.tenant_at(rank) == (survivors[-1] if survivors else original[rank])

    def test_death_of_a_tenant_never_spawned_changes_nothing(self):
        sampler = ZipfSampler(20, 1.0, seed=0)
        churn = TenantChurn(duration=10.0, spawn_rate=0.5, seed=0)
        churn.apply_event(sampler, ChurnEvent(1.0, "spawn", "flash-a", 2))
        churn.apply_event(sampler, ChurnEvent(2.0, "die", "flash-z", 2))
        assert sampler.tenant_at(2) == "flash-a"
        churn.apply_event(sampler, ChurnEvent(3.0, "die", "flash-a", 2))
        assert sampler.tenant_at(2) == 2

    def test_flash_tenants_are_named_in_spawn_order(self):
        churn = TenantChurn(duration=30.0, spawn_rate=0.5, seed=5)
        spawned = [e.tenant for e in churn.events if e.kind == "spawn"]
        assert spawned
        assert spawned == [f"flash-{index:04d}" for index in range(len(spawned))]

    def test_lifetimes_are_exponential_around_the_mean(self):
        churn = TenantChurn(duration=2000.0, spawn_rate=1.0,
                            mean_lifetime_seconds=2.0, hot_rank_span=5, seed=6)
        born = {e.tenant: e.time for e in churn.events if e.kind == "spawn"}
        lifetimes = [e.time - born[e.tenant] for e in churn.events if e.kind == "die"]
        assert len(lifetimes) > 1500
        assert sum(lifetimes) / len(lifetimes) == pytest.approx(2.0, rel=0.1)
        # Memoryless: about e^-1 of the lifetimes outlast the mean.
        share_past_mean = sum(1 for t in lifetimes if t > 2.0) / len(lifetimes)
        assert share_past_mean == pytest.approx(0.368, abs=0.05)

    def test_describe_roundtrip(self):
        churn = TenantChurn(duration=25.0, spawn_rate=0.3,
                            mean_lifetime_seconds=4.0, hot_rank_span=7, seed=8)
        rebuilt = TenantChurn(**churn.describe())
        assert rebuilt.events == churn.events

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            TenantChurn(duration=0.0)
        with pytest.raises(ConfigurationError):
            TenantChurn(duration=10.0, spawn_rate=0.0)
        with pytest.raises(ConfigurationError):
            TenantChurn(duration=10.0, hot_rank_span=0)

    def test_invalid_lifetime_rejected(self):
        for lifetime in (0.0, -2.0):
            with pytest.raises(ConfigurationError):
                TenantChurn(duration=10.0, mean_lifetime_seconds=lifetime)


class TestZipfRankMapping:
    def test_tenant_at_and_assign_rank(self):
        sampler = ZipfSampler(10, 1.0, seed=0)
        assert sampler.tenant_at(1) == 1  # identity mapping by default
        sampler.assign_rank(1, "flash-x")
        assert sampler.tenant_at(1) == "flash-x"
        assert sampler.tenant_at(2) == 2  # others untouched

    def test_assigned_tenant_inherits_rank_weight(self):
        sampler = ZipfSampler(100, 1.5, seed=0)
        sampler.assign_rank(1, "whale")
        counts = Counter([sampler.sample() for _ in range(3000)])
        assert counts.most_common(1)[0][0] == "whale"

    def test_out_of_range_rank_rejected(self):
        sampler = ZipfSampler(10, 1.0, seed=0)
        with pytest.raises(ConfigurationError):
            sampler.tenant_at(0)
        with pytest.raises(ConfigurationError):
            sampler.assign_rank(11, "x")
