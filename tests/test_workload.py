"""Tests for Zipf sampling, workload generation and scenarios."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.workload import (
    HotspotShiftScenario,
    SinglesDayScenario,
    StaticScenario,
    TransactionLogGenerator,
    WorkloadConfig,
    ZipfSampler,
    zipf_weights,
)
from repro.storage.document import parse_attributes
from repro.workload.generator import (
    SUB_ATTRIBUTE_COUNT,
    SUB_ATTRIBUTE_THETA,
    SUB_ATTRIBUTES_PER_ROW,
)


class TestZipfWeights:
    def test_normalized(self):
        weights = zipf_weights(1000, 1.0)
        assert weights.sum() == pytest.approx(1.0)

    def test_theta_zero_is_uniform(self):
        weights = zipf_weights(100, 0.0)
        assert weights.max() == pytest.approx(weights.min())

    def test_higher_theta_more_skew(self):
        mild = zipf_weights(1000, 0.5)
        extreme = zipf_weights(1000, 2.0)
        assert extreme[0] > mild[0]

    def test_monotone_decreasing(self):
        weights = zipf_weights(100, 1.5)
        assert all(weights[i] >= weights[i + 1] for i in range(99))

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            zipf_weights(0, 1.0)
        with pytest.raises(ConfigurationError):
            zipf_weights(10, -1.0)


class TestZipfSampler:
    def test_deterministic_given_seed(self):
        a, b = ZipfSampler(1000, 1.0, seed=5), ZipfSampler(1000, 1.0, seed=5)
        draws = [a.sample() for _ in range(100)]
        assert draws == [b.sample() for _ in range(100)]
        assert len(set(draws)) > 1

    def test_rank1_is_most_frequent_at_high_theta(self):
        sampler = ZipfSampler(1000, 1.5, seed=0)
        counts = Counter([sampler.sample() for _ in range(20_000)])
        assert counts.most_common(1)[0][0] == 1

    def test_empirical_top_share_tracks_theory(self):
        sampler = ZipfSampler(10_000, 1.0, seed=1)
        counts = Counter([sampler.sample() for _ in range(50_000)])
        top10 = sum(counts.get(r, 0) for r in range(1, 11)) / 50_000
        assert top10 == pytest.approx(sum(sampler.weight(r) for r in range(1, 11)), abs=0.02)

    def test_weights_over_every_rank_sum_to_one(self):
        sampler = ZipfSampler(50, 1.0)
        weights = [sampler.weight(rank) for rank in range(1, 51)]
        assert sum(weights) == pytest.approx(1.0)
        assert weights == sorted(weights, reverse=True)

    def test_remap_changes_identity_not_distribution(self):
        sampler = ZipfSampler(100, 1.0, seed=2)
        before = Counter([sampler.sample() for _ in range(5000)])
        sampler = ZipfSampler(100, 1.0, seed=2)
        sampler.remap([f"tenant-{i}" for i in range(100)])
        after = Counter([sampler.sample() for _ in range(5000)])
        assert before[1] == after["tenant-0"]

    def test_rotate_hotspots_moves_hot_rank(self):
        sampler = ZipfSampler(100, 2.0, seed=3)
        sampler.rotate_hotspots(10)
        counts = Counter([sampler.sample() for _ in range(10_000)])
        assert counts.most_common(1)[0][0] == 11  # id 11 now holds rank 1

    def test_bad_mapping_length_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, 1.0).remap([1, 2, 3])


class TestTransactionLogGenerator:
    def test_documents_have_template_columns(self, generator):
        doc = generator.generate(created_time=5.0)
        for column in (
            "transaction_id",
            "tenant_id",
            "created_time",
            "status",
            "group",
            "auction_title",
            "attributes",
        ):
            assert column in doc
        assert doc["created_time"] == 5.0

    def test_transaction_ids_auto_increment(self, generator):
        ids = [generator.generate(0.0)["transaction_id"] for _ in range(10)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 10

    def test_pinned_tenant(self, generator):
        doc = generator.generate(0.0, tenant_id="whale")
        assert doc["tenant_id"] == "whale"

    def test_attributes_parse_and_bounded(self, generator):
        doc = generator.generate(0.0)
        attrs = parse_attributes(doc["attributes"])
        assert 0 < len(attrs) <= SUB_ATTRIBUTES_PER_ROW
        assert all(name.startswith("attr_") for name in attrs)

    def test_attributes_name_each_drawn_subattribute_once_in_rank_order(self, generator):
        for _ in range(50):
            text = generator.generate(0.0)["attributes"]
            names = [pair.split(":")[0] for pair in text.split(";")]
            assert names == sorted(set(names))
            assert all(value.startswith("v") for value in parse_attributes(text).values())

    def test_subattribute_popularity_skewed(self, generator):
        counts = Counter()
        for _ in range(500):
            counts.update(parse_attributes(generator.generate(0.0)["attributes"]).keys())
        top30 = sum(c for _, c in counts.most_common(30))
        assert top30 / sum(counts.values()) > 0.35  # paper: top 30 ≈ 50%

    def test_subattribute_draws_follow_the_fixed_zipf_law(self, generator):
        weights = zipf_weights(SUB_ATTRIBUTE_COUNT, SUB_ATTRIBUTE_THETA)
        draws = Counter(generator.sample_subattribute() for _ in range(20_000))
        assert set(draws) <= {
            generator.subattribute_name(rank) for rank in range(1, SUB_ATTRIBUTE_COUNT + 1)
        }
        for rank in (1, 2, 10):
            share = draws[generator.subattribute_name(rank)] / 20_000
            assert share == pytest.approx(weights[rank - 1], abs=0.01), rank

    def test_subattribute_names_sort_in_rank_order(self):
        names = [
            TransactionLogGenerator.subattribute_name(rank)
            for rank in range(1, SUB_ATTRIBUTE_COUNT + 1)
        ]
        assert names[0] == "attr_0001"
        assert sorted(names) == names
        assert len(set(names)) == SUB_ATTRIBUTE_COUNT

    def test_stream_rate_and_spacing(self, generator):
        docs = list(generator.stream(rate=100, duration=2.0, start_time=10.0))
        assert len(docs) == 200
        assert docs[0]["created_time"] == 10.0
        assert docs[1]["created_time"] == pytest.approx(10.01)

    def test_determinism_across_instances(self):
        config = WorkloadConfig(num_tenants=100, theta=1.0, seed=9)
        a = TransactionLogGenerator(config).batch(20)
        b = TransactionLogGenerator(config).batch(20)
        assert a == b


class TestScenarios:
    def test_static_tick_count(self):
        ticks = list(StaticScenario(rate=100, duration=10.0).ticks())
        assert len(ticks) == 10
        assert all(t.rate == 100 for t in ticks)

    def test_hotspot_shift_times(self):
        scenario = HotspotShiftScenario(
            rate=100, duration=300.0, shift_times=(60.0, 210.0), shift_amount=50
        )
        shifts = [t.time for t in scenario.ticks() if t.hotspot_shift]
        assert shifts == [60.0, 210.0]

    def test_hotspot_shift_applies_rotation(self):
        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=100, theta=2.0, seed=0))
        scenario = HotspotShiftScenario(rate=1, duration=2.0, shift_times=(1.0,), shift_amount=10)
        hot_before = Counter([generator.tenants.sample() for _ in range(3000)]).most_common(1)[0][0]
        for tick in scenario.ticks():
            scenario.apply(generator, tick)
        hot_after = Counter([generator.tenants.sample() for _ in range(3000)]).most_common(1)[0][0]
        assert hot_before != hot_after

    def test_singles_day_spike_shape(self):
        scenario = SinglesDayScenario(
            baseline_rate=100, duration=1200.0, spike_time=600.0,
            spike_factor=10.0, decay_seconds=60.0, plateau_factor=3.0,
        )
        assert scenario.rate_at(0.0) == 100
        assert scenario.rate_at(600.0) == pytest.approx(1000.0)
        assert scenario.rate_at(630.0) < 1000.0
        assert scenario.rate_at(1e6) == pytest.approx(300.0, rel=0.01)

    def test_singles_day_single_hotspot_shift_at_spike(self):
        scenario = SinglesDayScenario(baseline_rate=10, duration=100.0, spike_time=50.0)
        shifts = [t for t in scenario.ticks() if t.hotspot_shift]
        assert len(shifts) == 1
        assert shifts[0].time == pytest.approx(50.0)

    def test_invalid_scenarios_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticScenario(rate=0, duration=10)
        with pytest.raises(ConfigurationError):
            SinglesDayScenario(baseline_rate=10, spike_factor=0.5)

    def test_fractional_ticks_do_not_drift(self):
        # Regression: `t += 0.1` accumulates binary-float error and can
        # emit an off-count tick; the integer tick index must not.
        ticks = list(StaticScenario(rate=10, duration=1.0, tick_seconds=0.1).ticks())
        assert len(ticks) == 10
        assert ticks[-1].time == pytest.approx(0.9)

    def test_fractional_shift_time_fires_on_schedule(self):
        # With drifting accumulation a scripted shift at t=2.0 could land a
        # tick late at tick_seconds=0.1; the shift must fire at exactly 2.0.
        scenario = HotspotShiftScenario(
            rate=10, duration=4.0, shift_times=(2.0,), shift_amount=5,
            tick_seconds=0.1,
        )
        shifts = [t.time for t in scenario.ticks() if t.hotspot_shift]
        assert shifts == [pytest.approx(2.0)]

    def test_two_shifts_in_same_tick_apply_summed(self):
        # Regression: only one pending shift was popped per tick, silently
        # delaying the second by a tick.
        scenario = HotspotShiftScenario(
            rate=10, duration=10.0, shift_times=(3.2, 3.7), shift_amount=5,
            tick_seconds=1.0,
        )
        shifted = [t for t in scenario.ticks() if t.hotspot_shift]
        assert len(shifted) == 1
        assert shifted[0].time == pytest.approx(4.0)
        assert shifted[0].hotspot_shift == 10

    def test_unreachable_shift_time_rejected(self):
        with pytest.raises(ConfigurationError):
            HotspotShiftScenario(rate=10, duration=100.0, shift_times=(100.0,))
        with pytest.raises(ConfigurationError):
            HotspotShiftScenario(rate=10, duration=100.0, shift_times=(-1.0,))

    def test_unreachable_spike_time_rejected(self):
        # Regression: a spike_time >= duration silently never spiked.
        with pytest.raises(ConfigurationError):
            SinglesDayScenario(baseline_rate=10, duration=100.0, spike_time=100.0)


@settings(max_examples=20)
@given(
    theta=st.floats(min_value=0.0, max_value=2.5, allow_nan=False),
    n=st.integers(min_value=1, max_value=5000),
)
def test_property_sampler_ranks_in_range(theta, n):
    sampler = ZipfSampler(n, theta, seed=0)
    for _ in range(50):
        assert 1 <= sampler.sample_rank() <= n
