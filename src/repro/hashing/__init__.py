"""Deterministic hash functions used by every routing policy.

ESDB inherits double hashing from Elasticsearch: two independent hash
functions applied to two different attributes (tenant id and record id).
This package provides a stable, pair-wise independent 64-bit hash pair
``h1``/``h2`` so that routing decisions are reproducible across processes
and Python versions (the built-in ``hash`` is salted per process and is
therefore unusable for shard routing).
"""

from repro.hashing.functions import (
    fnv1a_64,
    h1,
    h2,
    splitmix64,
    stable_hash,
)

__all__ = ["fnv1a_64", "splitmix64", "h1", "h2", "stable_hash"]
