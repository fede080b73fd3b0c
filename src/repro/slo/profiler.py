"""Heavy-hitter attribution: *which* keys, terms and queries are hot.

A skew alert can say a tenant or shard is hot; this profiler names the
routing keys, filter terms and query fingerprints doing it. One bounded
:class:`~repro.slo.SpaceSavingSketch` per dimension globally, plus lazy
per-shard sketches (routing keys) and bounded per-tenant sketch maps, all
decayed on logical-clock window boundaries so the picture tracks *current*
heat. Every estimate ships with its count-error bound, and the tenant maps
are capped (:data:`~repro.slo.config.MAX_TRACKED_TENANTS`) so a tenant-id
flood cannot grow memory — overflow tenants still count globally and per
shard, and are tallied in ``dropped_tenants``.
"""

from __future__ import annotations

from repro.slo.config import (
    DECAY_FACTOR,
    DECAY_WINDOW_SECONDS,
    MAX_TRACKED_TENANTS,
    SKETCH_CAPACITY,
    TOP_K,
)
from repro.query.ast import ComparisonPredicate, SubAttributePredicate, iter_predicates
from repro.slo.sketch import SpaceSavingSketch


def query_terms(statement) -> tuple[str, ...]:
    """The filter terms a statement exercises, for heavy-hitter tracking:
    ``column=value`` for equality comparisons, the bare column for ranges,
    ``attr:key`` for sub-attribute filters."""
    terms: list[str] = []
    for predicate in iter_predicates(statement.where):
        if isinstance(predicate, SubAttributePredicate):
            terms.append(f"attr:{predicate.key_name}")
        elif isinstance(predicate, ComparisonPredicate):
            if predicate.op == "=":
                terms.append(f"{predicate.column}={predicate.value}")
            else:
                terms.append(str(predicate.column))
    return tuple(terms)


class HeavyHitterProfiler:
    """Bounded per-shard / per-tenant heavy-hitter tracking."""

    def __init__(self) -> None:
        self.routing_keys = SpaceSavingSketch(SKETCH_CAPACITY)
        self.filter_terms = SpaceSavingSketch(SKETCH_CAPACITY)
        self.query_fingerprints = SpaceSavingSketch(SKETCH_CAPACITY)
        self.shard_keys: dict[int, SpaceSavingSketch] = {}
        self.tenant_keys: dict[str, SpaceSavingSketch] = {}
        self.tenant_terms: dict[str, SpaceSavingSketch] = {}
        self.tenant_fingerprints: dict[str, SpaceSavingSketch] = {}
        self.dropped_tenants = 0
        self.decays = 0
        self._next_decay: float | None = None

    # -- recording ---------------------------------------------------------
    def record_write(self, tenant, shard_id: int, routing_key) -> None:
        """Absorb one routed write: its routing key, globally, per shard
        and (capacity permitting) per tenant."""
        self.routing_keys.offer(routing_key)
        shard_sketch = self.shard_keys.get(shard_id)
        if shard_sketch is None:
            shard_sketch = self.shard_keys[shard_id] = SpaceSavingSketch(SKETCH_CAPACITY)
        shard_sketch.offer(routing_key)
        tenant_sketch = self._tenant_sketch(self.tenant_keys, tenant)
        if tenant_sketch is not None:
            tenant_sketch.offer(routing_key)

    def record_query(self, tenant, fingerprint: str, terms) -> None:
        """Absorb one executed query: its fingerprint and each filter
        term, globally and per tenant."""
        self.query_fingerprints.offer(fingerprint)
        tenant_fp = self._tenant_sketch(self.tenant_fingerprints, tenant)
        if tenant_fp is not None:
            tenant_fp.offer(fingerprint)
        tenant_term = self._tenant_sketch(self.tenant_terms, tenant)
        for term in terms:
            self.filter_terms.offer(term)
            if tenant_term is not None:
                tenant_term.offer(term)

    def _tenant_sketch(self, table: dict, tenant) -> SpaceSavingSketch | None:
        if tenant is None:
            return None
        key = str(tenant)
        sketch = table.get(key)
        if sketch is not None:
            return sketch
        if len(table) >= MAX_TRACKED_TENANTS:
            self.dropped_tenants += 1
            return None
        sketch = table[key] = SpaceSavingSketch(SKETCH_CAPACITY)
        return sketch

    # -- decay -------------------------------------------------------------
    def maybe_roll(self, now: float) -> bool:
        """Decay every sketch once per :data:`DECAY_WINDOW_SECONDS` of
        logical time. First call anchors the schedule."""
        if self._next_decay is None:
            self._next_decay = now + DECAY_WINDOW_SECONDS
            return False
        if now < self._next_decay:
            return False
        for sketch in self._all_sketches():
            sketch.decay(DECAY_FACTOR)
        self.decays += 1
        self._next_decay = now + DECAY_WINDOW_SECONDS
        return True

    def _all_sketches(self):
        yield self.routing_keys
        yield self.filter_terms
        yield self.query_fingerprints
        yield from self.shard_keys.values()
        yield from self.tenant_keys.values()
        yield from self.tenant_terms.values()
        yield from self.tenant_fingerprints.values()

    # -- attribution -------------------------------------------------------
    def hot_keys_for_tenant(self, tenant, k: int = 3) -> list[tuple]:
        sketch = self.tenant_keys.get(str(tenant))
        return sketch.top(k) if sketch is not None else []

    def hot_queries_for_tenant(self, tenant, k: int = 3) -> list[tuple]:
        sketch = self.tenant_fingerprints.get(str(tenant))
        return sketch.top(k) if sketch is not None else []

    def hot_keys_for_shard(self, shard_id: int, k: int = 3) -> list[tuple]:
        sketch = self.shard_keys.get(shard_id)
        return sketch.top(k) if sketch is not None else []

    def attribute(self, alert) -> dict:
        """Name the heavy hitters behind one skew alert (the observer's
        attributor when SLOs are on): hot routing keys and query
        fingerprints for a hot tenant, hot routing keys for a hot shard."""
        subject = str(alert.subject)
        if alert.kind == "hot_tenant":
            found = {
                "hot_keys": self.hot_keys_for_tenant(subject),
                "hot_queries": self.hot_queries_for_tenant(subject),
            }
        elif alert.kind == "hot_shard" and subject.startswith("shard-"):
            found = {"hot_keys": self.hot_keys_for_shard(int(subject.split("-", 1)[1]))}
        else:
            return {}
        return {name: ",".join(str(key) for key, _, _ in top) for name, top in found.items() if top}

    # -- snapshot -----------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready dump (the bundle's ``hotkeys`` section)."""
        k = TOP_K
        return {
            "enabled": True,
            "sketch_capacity": SKETCH_CAPACITY,
            "decays": self.decays,
            "dropped_tenants": self.dropped_tenants,
            "concentration_pct": 100.0 * self.routing_keys.concentration(),
            "routing_keys": self.routing_keys.to_dict(k),
            "filter_terms": self.filter_terms.to_dict(k),
            "query_fingerprints": self.query_fingerprints.to_dict(k),
            "shards": {
                str(shard_id): self.shard_keys[shard_id].to_dict(k)
                for shard_id in sorted(self.shard_keys)
            },
            "tenants": {
                tenant: self.tenant_keys[tenant].to_dict(k)
                for tenant in sorted(self.tenant_keys)
            },
            "tenant_terms": {
                tenant: self.tenant_terms[tenant].to_dict(k)
                for tenant in sorted(self.tenant_terms)
            },
            "tenant_fingerprints": {
                tenant: self.tenant_fingerprints[tenant].to_dict(k)
                for tenant in sorted(self.tenant_fingerprints)
            },
        }
