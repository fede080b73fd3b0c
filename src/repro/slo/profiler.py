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
from repro.slo.sketch import SpaceSavingSketch


class HeavyHitterProfiler:
    """Bounded per-shard / per-tenant heavy-hitter tracking."""

    def __init__(self, metrics=None) -> None:
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
        self._conc_gauge = (
            metrics.gauge("slo_hotkey_concentration_pct") if metrics is not None else None
        )

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

    def export_gauges(self) -> None:
        """Refresh the concentration gauge — called from the SLO
        evaluation tick, not per write, to keep the write path lean."""
        if self._conc_gauge is not None:
            self._conc_gauge.set(100.0 * self.routing_keys.concentration())

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

    # -- tables / snapshots ------------------------------------------------
    def table_rows(self, k: int | None = None) -> list[tuple]:
        """``cat_hotkeys`` rows: (dimension, scope, subject, rank, key,
        count, error) — global rows first, then per-shard and per-tenant
        scopes in sorted subject order. Fully deterministic."""
        k = TOP_K if k is None else k
        rows: list[tuple] = []

        def extend(dimension: str, scope: str, subject: str,
                   sketch: SpaceSavingSketch) -> None:
            for rank, (key, count, error) in enumerate(sketch.top(k), 1):
                rows.append(
                    (dimension, scope, subject, rank, str(key),
                     round(count, 3), round(error, 3))
                )

        extend("routing_key", "global", "-", self.routing_keys)
        for shard_id in sorted(self.shard_keys):
            extend("routing_key", "shard", str(shard_id),
                   self.shard_keys[shard_id])
        for tenant in sorted(self.tenant_keys):
            extend("routing_key", "tenant", tenant, self.tenant_keys[tenant])
        extend("filter_term", "global", "-", self.filter_terms)
        for tenant in sorted(self.tenant_terms):
            extend("filter_term", "tenant", tenant, self.tenant_terms[tenant])
        extend("query_fingerprint", "global", "-", self.query_fingerprints)
        for tenant in sorted(self.tenant_fingerprints):
            extend("query_fingerprint", "tenant", tenant,
                   self.tenant_fingerprints[tenant])
        return rows

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
        }
