"""Shards and replicas.

A shard is the unit of routing and storage; each shard has exactly one
replica (the paper's configuration). The shard object here is pure topology
metadata — the actual per-shard storage engine lives in
:mod:`repro.storage.engine` and is attached by the :class:`~repro.esdb.ESDB`
facade.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass
class Shard:
    """A primary shard.

    Attributes:
        shard_id: index in ``[0, num_shards)``; routing targets this id.
        node_id: the worker node hosting the primary copy.
    """

    shard_id: int
    node_id: int

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ConfigurationError("shard_id must be non-negative")


@dataclass
class Replica:
    """The replica of a shard, hosted on a different node than the primary."""

    shard_id: int
    node_id: int

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ConfigurationError("shard_id must be non-negative")
