"""What a written document leaves on the collector's lists — a count, not a clock.

A full collection walks every tracked container the process retains, so a
container per index *term* makes every tenant's write pay for every other
tenant's history. The census below is representation-agnostic: it counts
what ``gc.get_objects()`` still lists after collecting, per document.
"""

from __future__ import annotations

import gc
import platform
import sys

import pytest

from repro import ESDB, EsdbConfig
from repro.cluster import ClusterTopology
from repro.storage import EngineConfig, Schema, ShardEngine
from repro.workload import TransactionLogGenerator, WorkloadConfig

pytestmark = pytest.mark.skipif(
    platform.python_implementation() != "CPython",
    reason="counts what CPython's cyclic collector tracks",
)

# What stays is the write's Document and its TranslogEntry: both reference the
# source dict, and the collector keeps tracking whatever references a dict.
# CPython 3.10 also materialises a ``__dict__`` for each of the two instances.
_PER_WRITE = 2 if sys.version_info >= (3, 11) else 4


def _tracked() -> int:
    for _ in range(3):
        gc.collect()
    return len(gc.get_objects())


def _documents(count: int) -> list[dict]:
    generator = TransactionLogGenerator(WorkloadConfig(num_tenants=5000, seed=3))
    return generator.batch(count, spacing=0.001)


def test_engine_write_retains_its_document_and_log_entry_only():
    defaults = EsdbConfig()
    engine = ShardEngine(
        EngineConfig(
            schema=Schema.transaction_logs(),
            composite_columns=defaults.composite_columns,
            scan_columns=defaults.scan_columns,
        )
    )
    docs = _documents(3000)
    for doc in docs[:200]:
        engine.index(doc)
    warm = _tracked()
    for doc in docs[200:1000]:
        engine.index(doc)
    buffered = _tracked()
    assert engine.stats.refreshes == 0
    assert (buffered - warm) / 800 <= _PER_WRITE + 1
    for doc in docs[1000:]:
        engine.index(doc)
    sealed = _tracked()
    assert engine.stats.refreshes == 2
    assert (sealed - buffered) / 2000 <= _PER_WRITE + 1


def test_facade_write_retains_at_most_one_more():
    """The facade keeps nothing per document: a record's shard is
    re-derived from the rule list, never stored."""
    db = ESDB(EsdbConfig(topology=ClusterTopology(num_nodes=2, num_shards=8)))
    docs = _documents(3200)
    for doc in docs[:200]:
        db.write(doc)
    warm = _tracked()
    for doc in docs[200:]:
        db.write(doc)
    assert (_tracked() - warm) / 3000 <= _PER_WRITE + 1
