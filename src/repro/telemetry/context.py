"""Deterministic trace contexts: W3C-shaped ids, propagation, sampling.

Every top-level ESDB operation (write, bulk_write, query, rebalance) is
assigned a :class:`TraceContext` — a W3C-traceparent-shaped
``trace_id``/``span_id`` pair — by a :class:`TraceIdGenerator`. Ids are
derived purely from a seed and a monotone per-instance counter (blake2b,
no wall clock, no randomness), so two runs of the same seeded workload
produce byte-identical trace ids and the chaos fingerprints stay stable
with tracing on or off.

The *active* context is carried in a thread-local: a traced root
(:meth:`repro.telemetry.Tracer.trace`) installs it for the duration of the
operation and :func:`current_context` reads it, so code deep inside a
traced operation knows which request it belongs to — the seam a future
wire protocol will serialize through ``traceparent`` headers.

Head-based sampling keeps full-fidelity tracing affordable: the sampler
decides per trace (from the trace id bits — deterministic, no RNG) whether
child spans are recorded and whether the finished root is retained in the
tracer's ring. ``always`` records everything; ``ratio(p)`` head-drops a
deterministic fraction; ``slow-tail`` records everything but only retains
roots that crossed a latency threshold. Errored roots are always retained
regardless of sampler.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: The only traceparent version this module emits or accepts.
TRACEPARENT_VERSION = "00"

#: Recognized sampler names for :class:`TraceConfig`.
SAMPLERS = ("always", "ratio", "slow-tail")

_TRACE_ID_HEX = 32
_SPAN_ID_HEX = 16


def _digest(payload: str, hex_chars: int) -> str:
    """Deterministic hex digest of *payload*, ``hex_chars`` long."""
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=hex_chars // 2
    ).hexdigest()


class TraceContext:
    """One request's identity: trace id, root span id, sampling decision."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def traceparent(self) -> str:
        """The W3C ``traceparent`` header value for this context."""
        flags = "01" if self.sampled else "00"
        return f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-{flags}"

    @classmethod
    def parse(cls, header: str) -> "TraceContext":
        """Parse a ``traceparent`` header back into a context."""
        parts = header.strip().split("-")
        if len(parts) != 4:
            raise ConfigurationError(f"malformed traceparent {header!r}")
        version, trace_id, span_id, flags = parts
        if version != TRACEPARENT_VERSION:
            raise ConfigurationError(f"unsupported traceparent version {version!r}")
        if len(trace_id) != _TRACE_ID_HEX or len(span_id) != _SPAN_ID_HEX:
            raise ConfigurationError(f"malformed traceparent ids in {header!r}")
        try:
            int(trace_id, 16), int(span_id, 16), int(flags, 16)
        except ValueError:
            raise ConfigurationError(
                f"non-hex traceparent field in {header!r}"
            ) from None
        return cls(trace_id, span_id, sampled=bool(int(flags, 16) & 0x1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceContext({self.traceparent()})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.sampled == other.sampled
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.sampled))


def derive_span_id(trace_id: str, parent_span_id: str, index: int, name: str) -> str:
    """Deterministic span id for the *index*-th child named *name* under
    *parent_span_id* — a pure function of the finished tree's structure,
    so every run of the same trace assigns identical ids."""
    return _digest(f"{trace_id}:{parent_span_id}:{index}:{name}", _SPAN_ID_HEX)


class TraceIdGenerator:
    """Allocates seed-derived trace contexts from a monotone counter.

    ``next_context(op)`` hashes ``seed : counter : op`` — never the clock,
    never a RNG — so the N-th operation of a seeded workload always gets
    the same trace id, on every run.
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
        trace_id = _digest(f"{self.seed}:{counter}:{op}", _TRACE_ID_HEX)
        # The root span id is the trace id's leading half: already uniform
        # blake2b bits, and one digest per operation instead of two — this
        # runs on the write hot path.
        return TraceContext(trace_id, trace_id[:_SPAN_ID_HEX], sampled=True)


# -- samplers -----------------------------------------------------------------


class AlwaysSampler:
    """Record and retain every trace."""

    name = "always"

    def sample(self, context: TraceContext) -> bool:
        return True

    def retain(self, context: TraceContext, root) -> bool:
        return True


class RatioSampler:
    """Head-based ratio sampling, decided from the trace id bits.

    The decision is a pure function of the trace id (its leading 8 hex
    digits scaled to [0, 1) against *ratio*), so the same trace is sampled
    on every run and on every node that sees it — no coordination, no RNG.
    Unsampled traces keep their (timed, tagged) root span for metrics but
    record no children and are not retained in the finished ring.
    """

    name = "ratio"

    def __init__(self, ratio: float) -> None:
        if not 0.0 <= ratio <= 1.0:
            raise ConfigurationError(f"sampling ratio must be in [0, 1], got {ratio}")
        self.ratio = ratio

    def sample(self, context: TraceContext) -> bool:
        if self.ratio >= 1.0:
            return True
        if self.ratio <= 0.0:
            return False
        return int(context.trace_id[:8], 16) / float(0xFFFFFFFF) < self.ratio

    def retain(self, context: TraceContext, root) -> bool:
        return context.sampled


class SlowTailSampler:
    """Record everything; retain only roots that crossed the threshold.

    The keep-if-slow policy: every trace is recorded in full (children
    included) so a slow one is complete when it finishes, but fast roots
    are dropped from the finished ring — the ring becomes a reservoir of
    exactly the traces an operator wants to look at.
    """

    name = "slow-tail"

    def __init__(self, threshold_seconds: float) -> None:
        if threshold_seconds < 0:
            raise ConfigurationError("slow-tail threshold must be >= 0")
        self.threshold_seconds = threshold_seconds

    def sample(self, context: TraceContext) -> bool:
        return True

    def retain(self, context: TraceContext, root) -> bool:
        return root.duration >= self.threshold_seconds


@dataclass(frozen=True)
class TraceConfig:
    """Configuration of request-scoped tracing (``EsdbConfig.tracing``).

    Attributes:
        enabled: allocate a deterministic :class:`TraceContext` per
            top-level operation. Disabled, the instance allocates no ids
            and every span tree looks exactly as it did before this layer
            existed — the bit-identity the chaos fingerprint tests pin.
        sampler: head-sampling policy — ``"always"`` (default),
            ``"ratio"`` (keep a deterministic ``ratio`` fraction of
            traces) or ``"slow-tail"`` (record all, retain only roots
            slower than ``slow_tail_seconds``).
        ratio: fraction of traces kept by the ``ratio`` sampler.
        slow_tail_seconds: retention threshold for ``slow-tail``.
        seed: trace-id seed. None (default) uses the cluster topology's
            seed, so one seeded scenario fully determines its trace ids.
        events_capacity: ring size of the structured event log
            (:class:`repro.telemetry.events.EventLog`).
    """

    enabled: bool = True
    sampler: str = "always"
    ratio: float = 1.0
    slow_tail_seconds: float = 0.005
    seed: int | None = None
    events_capacity: int = 256

    def __post_init__(self) -> None:
        if self.sampler not in SAMPLERS:
            raise ConfigurationError(
                f"unknown sampler {self.sampler!r}; expected one of {SAMPLERS}"
            )
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigurationError(f"ratio must be in [0, 1], got {self.ratio}")
        if self.slow_tail_seconds < 0:
            raise ConfigurationError("slow_tail_seconds must be >= 0")
        if self.events_capacity < 1:
            raise ConfigurationError("events_capacity must be >= 1")

    @classmethod
    def off(cls) -> "TraceConfig":
        """Tracing disabled — no contexts, no sampling, pre-trace spans."""
        return cls(enabled=False)


def build_sampler(config: TraceConfig):
    """The sampler object a :class:`TraceConfig` selects."""
    if config.sampler == "ratio":
        return RatioSampler(config.ratio)
    if config.sampler == "slow-tail":
        return SlowTailSampler(config.slow_tail_seconds)
    return AlwaysSampler()


# -- thread-local propagation -------------------------------------------------

_ACTIVE = threading.local()


def current_context() -> TraceContext | None:
    """The context active on this thread, or None outside any trace."""
    return getattr(_ACTIVE, "context", None)
