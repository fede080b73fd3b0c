"""Deterministic trace contexts: W3C-shaped ids and their propagation.

Every top-level ESDB operation (write, bulk_write, query, rebalance) is
assigned a :class:`TraceContext` — a W3C-traceparent-shaped
``trace_id``/``span_id`` pair — by a :class:`TraceIdGenerator`. Ids are
derived purely from a seed and a monotone per-instance counter (blake2b,
no wall clock, no randomness), so two runs of the same seeded workload
produce byte-identical trace ids and the chaos fingerprints stay stable
with tracing on or off. A context holds only its seed, counter and
operation; the ids are computed on first read and kept, so an operation
whose ids nothing reads never hashes.

The *active* context is carried in a thread-local: a traced root
(:meth:`repro.telemetry.Tracer.trace`) installs it for the duration of the
operation and :func:`current_context` reads it, so code deep inside a
traced operation knows which request it belongs to. Every trace is
recorded in full and its finished root retained in the tracer's ring.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

_TRACE_ID_HEX = 32
_SPAN_ID_HEX = 16


def _digest(payload: str, hex_chars: int) -> str:
    """Deterministic hex digest of *payload*, ``hex_chars`` long."""
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=hex_chars // 2
    ).hexdigest()


class TraceContext:
    """One request's identity: trace id and root span id, hashed from
    ``seed:counter:op`` on first read."""

    __slots__ = ("seed", "counter", "op", "_trace_id")

    def __init__(self, seed: int, counter: int, op: str) -> None:
        self.seed = seed
        self.counter = counter
        self.op = op
        self._trace_id: str | None = None

    @property
    def trace_id(self) -> str:
        trace_id = self._trace_id
        if trace_id is None:
            trace_id = self._trace_id = _digest(
                f"{self.seed}:{self.counter}:{self.op}", _TRACE_ID_HEX
            )
        return trace_id

    @property
    def span_id(self) -> str:
        # The root span id is the trace id's leading half: already uniform
        # blake2b bits, and one digest per operation instead of two.
        return self.trace_id[:_SPAN_ID_HEX]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.trace_id}-{self.span_id})"

    def __eq__(self, other) -> bool:
        return isinstance(other, TraceContext) and self.trace_id == other.trace_id

    def __hash__(self) -> int:
        return hash(self.trace_id)


def derive_span_id(trace_id: str, parent_span_id: str, index: int, name: str) -> str:
    """Deterministic span id for the *index*-th child named *name* under
    *parent_span_id* — a pure function of the finished tree's structure,
    so every run of the same trace assigns identical ids."""
    return _digest(f"{trace_id}:{parent_span_id}:{index}:{name}", _SPAN_ID_HEX)


class TraceIdGenerator:
    """Allocates seed-derived trace contexts from a monotone counter.

    ``next_context(op)`` takes the next counter value; its context's trace
    id hashes ``seed : counter : op`` — never the clock, never a RNG — so
    the N-th operation of a seeded workload always gets the same trace id,
    on every run.
    """

    __slots__ = ("seed", "_counter", "_lock")

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._counter = 0
        self._lock = threading.Lock()

    @property
    def issued(self) -> int:
        """Contexts allocated so far."""
        return self._counter

    def next_context(self, op: str = "op") -> TraceContext:
        with self._lock:
            counter = self._counter
            self._counter += 1
        return TraceContext(self.seed, counter, op)


@dataclass(frozen=True)
class TraceConfig:
    """Configuration of request-scoped tracing (``EsdbConfig.tracing``).

    Attributes:
        enabled: allocate a deterministic :class:`TraceContext` per
            top-level operation, seeded by the cluster topology's seed.
            Disabled, the instance allocates no ids and every span tree
            looks exactly as it did before this layer existed — the
            bit-identity the chaos fingerprint tests pin.
    """

    enabled: bool = True

    @classmethod
    def off(cls) -> "TraceConfig":
        """Tracing disabled — no contexts, pre-trace spans."""
        return cls(enabled=False)


# -- thread-local propagation -------------------------------------------------

_ACTIVE = threading.local()


def current_context() -> TraceContext | None:
    """The context active on this thread, or None outside any trace."""
    return getattr(_ACTIVE, "context", None)
