"""Shared fixtures for the ESDB reproduction test suite."""

from __future__ import annotations

import pytest

from repro.storage import EngineConfig, Schema, ShardEngine
from repro.workload import TransactionLogGenerator, WorkloadConfig


@pytest.fixture()
def schema() -> Schema:
    return Schema.transaction_logs()


@pytest.fixture()
def engine_config(schema) -> EngineConfig:
    return EngineConfig(
        schema=schema,
        composite_columns=(("tenant_id", "created_time"),),
        scan_columns=frozenset({"status", "quantity"}),
        auto_refresh_every=None,
    )


@pytest.fixture()
def engine(engine_config) -> ShardEngine:
    return ShardEngine(engine_config)


@pytest.fixture()
def generator() -> TransactionLogGenerator:
    return TransactionLogGenerator(WorkloadConfig(num_tenants=1000, theta=1.0, seed=42))


def make_log(
    txn_id: int,
    tenant: object = "t1",
    created: float = 0.0,
    status: int = 1,
    group: int = 1,
    title: str = "red cotton shirt",
    attributes: str = "attr_0001:v1;attr_0002:v2",
    **extra,
) -> dict:
    """Build a minimal transaction-log document for tests."""
    doc = {
        "transaction_id": txn_id,
        "tenant_id": tenant,
        "created_time": float(created),
        "status": status,
        "group": group,
        "auction_title": title,
        "attributes": attributes,
    }
    doc.update(extra)
    return doc


def equal_spellings(key: object) -> list:
    """*key* and every int, float or bool ``==`` it: the spellings a
    query's ``=`` matches with the same stored value."""
    others = [True, False, -0.0]
    for convert in (int, float):
        try:
            others.append(convert(key))
        except (OverflowError, ValueError, TypeError):
            pass
    return [key] + [other for other in others if other == key]
