"""Frequency-based indexing of the "attributes" sub-attributes (§3.2, §6.3.3)."""

from repro.indexing.frequency import FrequencyTracker

__all__ = ["FrequencyTracker"]
