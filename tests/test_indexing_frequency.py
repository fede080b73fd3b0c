"""Tests for frequency-based sub-attribute index selection (§3.2, §6.3.3)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.indexing import FrequencyTracker


class TestFrequencyTracker:
    def test_top_k_prefers_query_frequency(self):
        tracker = FrequencyTracker()
        tracker.record_write(["a", "b", "c"])
        tracker.record_query(["c"])
        tracker.record_query(["c"])
        tracker.record_query(["b"])
        top = tracker.top_k(2)
        assert top == {"c", "b"}

    def test_write_frequency_breaks_ties(self):
        tracker = FrequencyTracker()
        tracker.record_query(["x"])
        tracker.record_query(["y"])
        tracker.record_write(["y", "y2"])
        tracker.record_write(["y"])
        assert "y" in tracker.top_k(1)

    def test_tie_break_is_name_ascending(self):
        """Regression: full ties must resolve to the lexicographically
        smallest names. The old implementation sorted names descending,
        so top_k(2) over three equal attributes picked {beta, gamma}."""
        tracker = FrequencyTracker()
        for name in ("gamma", "alpha", "beta"):
            tracker.record_query([name])
            tracker.record_write([name])
        assert tracker.top_k(2) == {"alpha", "beta"}
        assert tracker.top_k(1) == {"alpha"}

    def test_top_zero_empty(self):
        tracker = FrequencyTracker()
        tracker.record_query(["a"])
        assert tracker.top_k(0) == frozenset()

    def test_negative_k_rejected(self):
        with pytest.raises(ConfigurationError):
            FrequencyTracker().top_k(-1)

    def test_coverage_fraction(self):
        tracker = FrequencyTracker()
        for _ in range(8):
            tracker.record_query(["hot"])
        for _ in range(2):
            tracker.record_query(["cold"])
        assert tracker.coverage(frozenset({"hot"})) == pytest.approx(0.8)
        assert tracker.coverage(frozenset()) == 0.0

    def test_coverage_empty_tracker(self):
        assert FrequencyTracker().coverage(frozenset({"a"})) == 0.0


class TestSelection:
    def test_paper_skew_top30_covers_half(self):
        """With Zipf(1)-skewed sub-attribute usage over 1500 names, the top
        30 cover roughly half the references (§6.3.3)."""
        from repro.workload import TransactionLogGenerator, WorkloadConfig
        from repro.storage.document import parse_attributes

        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=100, seed=3))
        tracker = FrequencyTracker()
        for _ in range(400):
            doc = generator.generate(0.0)
            names = list(parse_attributes(doc["attributes"]))
            tracker.record_write(names)
            tracker.record_query(names[:1])
        selected = tracker.top_k(30)
        assert tracker.coverage(selected) > 0.35
