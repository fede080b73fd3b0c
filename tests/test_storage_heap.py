"""What a written document leaves on the collector's lists — a count, not a clock.

A full collection walks every tracked container the process retains, so a
container per index *term* makes every tenant's write pay for every other
tenant's history. The censuses below are representation-agnostic: they count
what ``gc.get_objects()`` lists, per document — after collecting (what a
write retains), and with the collector off (what a write hands it: every
young container is traversed by the next collection, even one it then stops
tracking).
"""

from __future__ import annotations

import gc
import platform

import pytest

from repro import ESDB, EsdbConfig
from repro.cluster import ClusterTopology
from repro.storage import EngineConfig, Schema, ShardEngine
from repro.workload import TransactionLogGenerator, WorkloadConfig

pytestmark = pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="counts what CPython's cyclic collector tracks",
)

# A write retains nothing the collector tracks: a stored row is its source
# dict of scalars, and every index entry and translog field is a string, a
# number or a row id appended to a column the structure already owns. What
# stays is a shard's share of a new segment's structures, amortized.
_RETAINED_PER_WRITE = 0.1

# A write hands the collector one composite key per composite index (a
# tuple of numbers and strings, untracked by the first collection that sees
# it) plus the telemetry samples its clock tick takes.
_YOUNG_PER_WRITE = 2.5


def _tracked() -> int:
    for _ in range(3):
        gc.collect()
    return len(gc.get_objects())


def _documents(count: int) -> list[dict]:
    generator = TransactionLogGenerator(WorkloadConfig(num_tenants=5000, seed=3))
    return generator.batch(count, spacing=0.001)


def _engine() -> ShardEngine:
    defaults = EsdbConfig()
    return ShardEngine(
        EngineConfig(
            schema=Schema.transaction_logs(),
            composite_columns=defaults.composite_columns,
            scan_columns=defaults.scan_columns,
        )
    )


def _facade() -> ESDB:
    return ESDB(EsdbConfig(topology=ClusterTopology(num_nodes=2, num_shards=8)))


def test_engine_write_retains_nothing():
    engine = _engine()
    docs = _documents(3000)
    for doc in docs[:200]:
        engine.index(doc)
    warm = _tracked()
    for doc in docs[200:1000]:
        engine.index(doc)
    buffered = _tracked()
    assert engine.stats.refreshes == 0
    assert (buffered - warm) / 800 <= _RETAINED_PER_WRITE
    for doc in docs[1000:]:
        engine.index(doc)
    sealed = _tracked()
    assert engine.stats.refreshes == 2
    assert (sealed - buffered) / 2000 <= _RETAINED_PER_WRITE


def test_facade_write_retains_nothing():
    """The facade keeps nothing per document: a record's shard is
    re-derived from the rule list, never stored."""
    db = _facade()
    docs = _documents(3200)
    for doc in docs[:200]:
        db.write(doc)
    warm = _tracked()
    for doc in docs[200:]:
        db.write(doc)
    assert (_tracked() - warm) / 3000 <= _RETAINED_PER_WRITE


@pytest.mark.parametrize("target", ["engine", "facade"])
def test_a_write_hands_the_collector_almost_nothing(target):
    """With the collector off, what 2,000 writes leave listed — the young
    generation the next collection would traverse."""
    write = _engine().index if target == "engine" else _facade().write
    docs = _documents(2200)
    for doc in docs[:200]:
        write(doc)
    before = _tracked()
    gc.disable()
    try:
        for doc in docs[200:]:
            write(doc)
        young = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert young / 2000 <= _YOUNG_PER_WRITE
