"""Stable 64-bit hash functions.

Two independent families are provided:

* :func:`fnv1a_64` — the classic Fowler–Noll–Vo 1a hash over bytes.
* :func:`splitmix64` — the splitmix64 finalizer, used here as a second,
  pair-wise independent mixing stage.

The routing layer uses :func:`h1` for the tenant id (partition key) and
:func:`h2` for the record id (secondary key), mirroring Elasticsearch's
two-attribute double hashing (§2.2 of the paper).
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _to_bytes(key: object) -> bytes:
    """Encode a routing key deterministically, by value.

    Equal ``str``, ``int``, ``float`` and ``bool`` keys encode alike, as
    rule matching and a query's ``=`` compare them: a bool or an integral
    float is encoded as its ``int`` (``True`` and ``1.0`` as ``1``).
    Anything else is hashed via its ``repr``, which is stable for the value
    types used in workloads.
    """
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, float) and key.is_integer():
        key = int(key)
    if isinstance(key, int):  # a bool too: True encodes as 1
        return key.to_bytes((key.bit_length() + 8) // 8 + 1, "little", signed=True)
    return repr(key).encode("utf-8")


def fnv1a_64(data: bytes) -> int:
    """Return the 64-bit FNV-1a hash of *data*."""
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def splitmix64(value: int) -> int:
    """Return the splitmix64 finalizer applied to *value*.

    A high-quality 64-bit mixing function; combined with FNV-1a it gives a
    second hash that behaves independently of the first on the same input.
    """
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def stable_hash(key: object, seed: int = 0) -> int:
    """Return a stable 64-bit hash of *key* under the given *seed*."""
    raw = fnv1a_64(_to_bytes(key))
    if seed:
        raw = splitmix64(raw ^ splitmix64(seed))
    return raw


def h1(key: object) -> int:
    """Primary routing hash, applied to the tenant id (``k1`` in Eq. 1/2)."""
    return stable_hash(key, seed=0)


def h2(key: object) -> int:
    """Secondary routing hash, applied to the record id (``k2`` in Eq. 1/2)."""
    return splitmix64(stable_hash(key, seed=0x5EED))
