"""Tests for the arrival-realism layer (repro.workload.arrivals)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.workload.arrivals import (
    ArrivalScenario,
    ArrivalStats,
    BurstyProcess,
    CdfSampler,
    ConstantRate,
    DiurnalRate,
    PoissonProcess,
    SpikeRate,
    TenantChurn,
    TraceScenario,
    arrival_from_json,
    rate_curve_from_json,
)
from repro.workload.generator import TransactionLogGenerator, WorkloadConfig
from repro.workload.zipf import ZipfSampler


class TestRateCurves:
    def test_constant(self):
        curve = ConstantRate(50.0)
        assert curve.rate_at(0.0) == curve.rate_at(123.4) == 50.0
        assert curve.peak(100.0) == 50.0

    def test_diurnal_oscillates_around_base(self):
        curve = DiurnalRate(100.0, amplitude=0.5, period=100.0)
        rates = [curve.rate_at(t) for t in range(100)]
        assert max(rates) == pytest.approx(150.0, rel=0.01)
        assert min(rates) == pytest.approx(50.0, rel=0.01)
        assert all(r > 0 for r in rates)
        assert curve.peak(100.0) == pytest.approx(150.0)

    def test_spike_matches_singles_day_shape(self):
        curve = SpikeRate(100.0, spike_time=60.0, spike_factor=10.0,
                          decay_seconds=30.0, plateau_factor=3.0)
        assert curve.rate_at(0.0) == 100.0
        assert curve.rate_at(60.0) == pytest.approx(1000.0)
        assert curve.rate_at(90.0) < 1000.0
        assert curve.rate_at(1e6) == pytest.approx(300.0, rel=0.01)
        assert curve.peak(120.0) == pytest.approx(1000.0)

    def test_json_roundtrip(self):
        for curve in (
            ConstantRate(10.0),
            DiurnalRate(20.0, amplitude=0.3, period=50.0, phase=5.0),
            SpikeRate(30.0, spike_time=10.0),
        ):
            rebuilt = rate_curve_from_json(curve.to_json())
            assert rebuilt == curve

    def test_invalid_curves_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantRate(0.0)
        with pytest.raises(ConfigurationError):
            DiurnalRate(10.0, amplitude=1.0)
        with pytest.raises(ConfigurationError):
            SpikeRate(10.0, spike_time=-1.0)
        with pytest.raises(ConfigurationError):
            SpikeRate(10.0, spike_time=0.0, spike_factor=2.0, plateau_factor=3.0)
        with pytest.raises(ConfigurationError):
            rate_curve_from_json({"kind": "nope"})
        with pytest.raises(ConfigurationError):
            rate_curve_from_json("not a dict")


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

    def test_thinning_tracks_diurnal_curve(self):
        curve = DiurnalRate(200.0, amplitude=0.8, period=20.0, phase=0.0)
        times = list(PoissonProcess(curve, duration=20.0, seed=2).times())
        by_half = Counter(t >= 10.0 for t in times)
        # phase=0: the positive sine lobe spans the first half-period, the
        # negative lobe the second, so the first half carries ~3x the mass.
        assert by_half[False] > 1.5 * by_half[True]

    def test_describe_roundtrip(self):
        process = PoissonProcess(
            DiurnalRate(50.0, amplitude=0.4, period=30.0), duration=30.0, seed=9
        )
        rebuilt = arrival_from_json(process.describe())
        assert list(rebuilt.times()) == list(process.times())

    def test_invalid_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            PoissonProcess(10.0, duration=0.0)

    def test_seeded_event_counts_are_pinned(self):
        """Every stream is drawn from ``random.Random(seed)``, so its length
        is exact: a recorded trace, a chaos fingerprint and a benchmark
        stream all move if a generator drifts. Homogeneous, thinned against
        a diurnal curve, and the on/off process beside them."""
        streams = (
            PoissonProcess(300.0, duration=20.0, seed=1),
            BurstyProcess(300.0, duration=20.0, off_rate=15.0,
                          mean_on_seconds=2.0, mean_off_seconds=3.0, seed=2),
            PoissonProcess(DiurnalRate(300.0, amplitude=0.7, period=20.0),
                           duration=20.0, seed=3),
        )
        assert [sum(1 for _ in s.times()) for s in streams] == [5913, 2934, 6043]


class TestBurstyProcess:
    def test_deterministic_given_seed(self):
        kwargs = dict(on_rate=100.0, duration=10.0, off_rate=5.0,
                      mean_on_seconds=1.0, mean_off_seconds=2.0, seed=6)
        assert list(BurstyProcess(**kwargs).times()) == list(
            BurstyProcess(**kwargs).times()
        )

    def test_burstier_than_poisson(self):
        poisson = ArrivalStats()
        for t in PoissonProcess(100.0, duration=20.0, seed=1).times():
            poisson.record(t)
        bursty = ArrivalStats()
        for t in BurstyProcess(100.0, duration=20.0, mean_on_seconds=1.0,
                               mean_off_seconds=3.0, seed=1).times():
            bursty.record(t)
        assert abs(poisson.burstiness) < 0.1
        assert bursty.burstiness > poisson.burstiness + 0.2

    def test_silent_off_state_produces_gaps(self):
        times = list(BurstyProcess(200.0, duration=30.0, off_rate=0.0,
                                   mean_on_seconds=1.0, mean_off_seconds=2.0,
                                   seed=4).times())
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) > 0.5  # an off-dwell with zero arrivals

    def test_describe_roundtrip(self):
        process = BurstyProcess(80.0, duration=12.0, off_rate=4.0, seed=5)
        rebuilt = arrival_from_json(process.describe())
        assert list(rebuilt.times()) == list(process.times())

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            BurstyProcess(0.0, duration=10.0)
        with pytest.raises(ConfigurationError):
            BurstyProcess(10.0, duration=10.0, off_rate=10.0)
        with pytest.raises(ConfigurationError):
            BurstyProcess(10.0, duration=10.0, mean_on_seconds=0.0)
        with pytest.raises(ConfigurationError):
            arrival_from_json({"kind": "mystery"})


class TestCdfSampler:
    def test_inverse_transform_frequencies(self):
        sampler = CdfSampler([(0.5, 1), (0.9, 10), (1.0, 100)], seed=0)
        counts = Counter(sampler.sample_many(5000))
        assert counts[1] > counts[10] > counts[100] > 0
        assert counts[1] / 5000 == pytest.approx(0.5, abs=0.05)

    def test_mean(self):
        sampler = CdfSampler([(0.5, 2.0), (1.0, 4.0)])
        assert sampler.mean == pytest.approx(3.0)

    def test_from_weights_and_json_roundtrip(self):
        sampler = CdfSampler.from_weights([(1.0, 8), (3.0, 64)], seed=2)
        rebuilt = CdfSampler.from_json(sampler.to_json(), seed=2)
        assert rebuilt.sample_many(50) == sampler.sample_many(50)

    def test_external_rng_is_deterministic(self):
        import random

        sampler = CdfSampler([(1.0, 7)])
        assert sampler.sample(random.Random(0)) == 7

    def test_invalid_cdfs_rejected(self):
        with pytest.raises(ConfigurationError):
            CdfSampler([])
        with pytest.raises(ConfigurationError):
            CdfSampler([(0.5, 1), (0.5, 2)])  # not strictly increasing
        with pytest.raises(ConfigurationError):
            CdfSampler([(0.5, 1), (0.8, 2)])  # doesn't reach 1.0
        with pytest.raises(ConfigurationError):
            CdfSampler.from_weights([(0.0, 1)])


class TestTenantChurn:
    def test_schedule_deterministic_and_ordered(self):
        a = TenantChurn(duration=50.0, spawn_rate=0.5, seed=3)
        b = TenantChurn(duration=50.0, spawn_rate=0.5, seed=3)
        assert a.events == b.events
        times = [event.time for event in a.events]
        assert times == sorted(times)
        assert all(0.0 <= t < 50.0 for t in times)

    def test_every_death_has_a_spawn(self):
        churn = TenantChurn(duration=40.0, spawn_rate=0.8,
                            mean_lifetime_seconds=5.0, seed=1)
        spawned = {e.tenant for e in churn.events if e.kind == "spawn"}
        died = {e.tenant for e in churn.events if e.kind == "die"}
        assert died <= spawned

    def test_live_count_tracks_schedule(self):
        churn = TenantChurn(duration=40.0, spawn_rate=0.5,
                            mean_lifetime_seconds=5.0, seed=2)
        assert churn.live_count(0.0) == 0
        peak = max(churn.live_count(t) for t in range(41))
        assert peak <= churn.peak_live()
        assert churn.peak_live() >= 1

    def test_spawn_then_die_restores_previous_occupant(self):
        sampler = ZipfSampler(20, 1.0, seed=0)
        churn = TenantChurn(duration=10.0, spawn_rate=0.5, seed=0)
        original = sampler.tenant_at(3)
        from repro.workload.arrivals import ChurnEvent

        churn.apply_event(sampler, ChurnEvent(1.0, "spawn", "flash-a", 3))
        assert sampler.tenant_at(3) == "flash-a"
        churn.apply_event(sampler, ChurnEvent(2.0, "die", "flash-a", 3))
        assert sampler.tenant_at(3) == original

    def test_stacked_spawns_restore_in_order(self):
        sampler = ZipfSampler(20, 1.0, seed=0)
        churn = TenantChurn(duration=10.0, spawn_rate=0.5, seed=0)
        original = sampler.tenant_at(5)
        from repro.workload.arrivals import ChurnEvent

        churn.apply_event(sampler, ChurnEvent(1.0, "spawn", "flash-a", 5))
        churn.apply_event(sampler, ChurnEvent(2.0, "spawn", "flash-b", 5))
        assert sampler.tenant_at(5) == "flash-b"
        # flash-a dies while buried: it must never resurface.
        churn.apply_event(sampler, ChurnEvent(3.0, "die", "flash-a", 5))
        assert sampler.tenant_at(5) == "flash-b"
        churn.apply_event(sampler, ChurnEvent(4.0, "die", "flash-b", 5))
        assert sampler.tenant_at(5) == original

    def test_lifetime_cdf_drives_deaths(self):
        cdf = CdfSampler([(1.0, 2.0)])  # every flash tenant lives 2s
        churn = TenantChurn(duration=30.0, spawn_rate=0.5, lifetime_cdf=cdf,
                            seed=4)
        spawns = {e.tenant: e.time for e in churn.events if e.kind == "spawn"}
        for event in churn.events:
            if event.kind == "die":
                assert event.time == pytest.approx(spawns[event.tenant] + 2.0)

    def test_describe_roundtrip(self):
        churn = TenantChurn(duration=25.0, spawn_rate=0.3,
                            mean_lifetime_seconds=4.0, hot_rank_span=7, seed=8)
        rebuilt = TenantChurn.from_json(churn.describe())
        assert rebuilt.events == churn.events

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            TenantChurn(duration=0.0)
        with pytest.raises(ConfigurationError):
            TenantChurn(duration=10.0, spawn_rate=0.0)
        with pytest.raises(ConfigurationError):
            TenantChurn(duration=10.0, hot_rank_span=0)
        with pytest.raises(ConfigurationError):
            TenantChurn.from_json({"nope": 1})


class TestArrivalStats:
    def test_moments_and_rate(self):
        stats = ArrivalStats()
        for t in (0.0, 1.0, 2.0, 3.0, 4.0):
            stats.record(t)
        assert stats.count == 5
        assert stats.realized_rate == pytest.approx(1.0)
        # Perfectly regular: burstiness -> -1.
        assert stats.burstiness == pytest.approx(-1.0)

    def test_rejects_time_going_backwards(self):
        stats = ArrivalStats()
        stats.record(5.0)
        with pytest.raises(ConfigurationError):
            stats.record(4.0)

    def test_quantiles_and_summary(self):
        stats = ArrivalStats()
        t = 0.0
        for gap in [0.01] * 90 + [0.5] * 10:
            t += gap
            stats.record(t)
        quantiles = stats.interarrival_quantiles()
        assert quantiles["p50"] < quantiles["p99"]
        stats.set_live_tenants(3)
        stats.set_live_tenants(1)
        summary = stats.summary()
        assert summary["live_tenants"] == 1
        assert summary["peak_live_tenants"] == 3
        assert summary["count"] == 100

    def test_empty_stats_are_zero(self):
        stats = ArrivalStats()
        assert stats.realized_rate == 0.0
        assert stats.burstiness == 0.0
        assert stats.interarrival_quantiles()["p50"] == 0.0


class TestArrivalScenario:
    def test_tick_rates_conserve_event_count(self):
        process = BurstyProcess(100.0, duration=10.0, seed=2)
        expected = len(list(process.times()))
        scenario = ArrivalScenario(
            BurstyProcess(100.0, duration=10.0, seed=2), tick_seconds=0.5
        )
        ticks = list(scenario.ticks())
        assert len(ticks) == 20
        assert sum(t.rate for t in ticks) * 0.5 == pytest.approx(expected)
        assert scenario.stats.count == expected

    def test_churn_events_ride_ticks_and_remap_generator(self):
        generator = TransactionLogGenerator(
            WorkloadConfig(num_tenants=50, theta=1.0, seed=0)
        )
        churn = TenantChurn(duration=20.0, spawn_rate=0.5,
                            mean_lifetime_seconds=4.0, hot_rank_span=3, seed=1)
        assert churn.events, "seed must schedule at least one flash tenant"
        scenario = ArrivalScenario(
            PoissonProcess(50.0, duration=20.0, seed=0),
            churn=TenantChurn(duration=20.0, spawn_rate=0.5,
                              mean_lifetime_seconds=4.0, hot_rank_span=3,
                              seed=1),
        )
        carried = []
        saw_flash = False
        for tick in scenario.ticks():
            scenario.apply(generator, tick)
            carried.extend(tick.events)
            if any(
                str(generator.tenants.tenant_at(rank)).startswith("flash")
                for rank in (1, 2, 3)
            ):
                saw_flash = True
        assert [e.time for e in carried] == [e.time for e in churn.events]
        assert saw_flash
        assert scenario.stats.peak_live_tenants >= 1

    def test_duration_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalScenario(
                PoissonProcess(10.0, duration=5.0),
                churn=TenantChurn(duration=6.0),
            )


class TestTraceScenario:
    def test_buckets_recorded_times(self):
        scenario = TraceScenario([0.1, 0.2, 1.5, 2.9], duration=3.0)
        ticks = list(scenario.ticks())
        assert [t.rate for t in ticks] == [2.0, 1.0, 1.0]
        assert scenario.stats.count == 4

    def test_invalid_times_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceScenario([1.0, 0.5], duration=3.0)
        with pytest.raises(ConfigurationError):
            TraceScenario([0.5, 3.0], duration=3.0)


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
        counts = Counter(sampler.sample_many(3000))
        assert counts.most_common(1)[0][0] == "whale"

    def test_out_of_range_rank_rejected(self):
        sampler = ZipfSampler(10, 1.0, seed=0)
        with pytest.raises(ConfigurationError):
            sampler.tenant_at(0)
        with pytest.raises(ConfigurationError):
            sampler.assign_rank(11, "x")
