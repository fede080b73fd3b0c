"""Secondary hashing rules and the append-only rule list (§4.2, Algorithm 2).

A *secondary hashing rule* is the tuple ``(t, s, k_list)``: from effective
time ``t`` onward, every tenant in ``k_list`` uses maximum offset ``s`` in the
secondary hashing stage. The rule list is append-only and ordered by effective
time, which is what lets ESDB replace full consensus (Paxos/Raft) with a
lightweight commitment protocol: rules never need reordering, only a
commit/abort decision per rule.

Rule matching for a write ``(k1, k2, t_c)`` follows the three conditions of
§4.2:

1. the rule's effective time ``t`` is earlier than the record creation time
   ``t_c``;
2. ``k1`` is in the rule's ``k_list``;
3. among all rules satisfying (1) and (2), the one with the **largest** ``s``
   wins.

Condition (3) makes routing of UPDATE/DELETE deterministic even when a tenant
appears in several historical rules. Tenants never matched by any rule use
``s = 1`` (single shard), the default for small tenants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.telemetry.runtime import NULL_METRIC

DEFAULT_OFFSET = 1


@dataclass(frozen=True)
class RuleAnnotation:
    """Why a rule landed: the observer's measurement behind one commit.

    Attached by :mod:`repro.obsv` when a rule is committed — ``reason`` is
    a human-readable one-liner and ``measurement`` carries the skew-window
    statistics (share, CV, Gini, max/mean) of the window that made the
    balancer propose the rule. Annotations are metadata only: routing
    (:meth:`RuleList.match`) never reads them, and :meth:`RuleList.compact`
    leaves them untouched so the audit trail outlives dead memberships.
    """

    effective_time: float
    offset: int
    tenant: str
    reason: str
    measurement: dict


@dataclass(frozen=True, order=True)
class SecondaryHashingRule:
    """One committed secondary hashing rule ``(t, s, k_list)``.

    Attributes:
        effective_time: simulation/wall time from which the rule applies.
        offset: maximum secondary-hashing offset ``s`` (number of consecutive
            shards a tenant's data spreads over). Power of two in practice.
        tenants: tenant ids adopting this offset.
    """

    effective_time: float
    offset: int
    tenants: frozenset = field(compare=False)

    def __post_init__(self) -> None:
        if self.offset < 1:
            raise ConfigurationError(f"offset must be >= 1, got {self.offset}")

    def covers(self, tenant_id: object, created_time: float) -> bool:
        """Return True if this rule applies to a record of *tenant_id* created
        at *created_time* (conditions 1 and 2 of §4.2)."""
        return self.effective_time <= created_time and tenant_id in self.tenants


class RuleList:
    """Append-only list of secondary hashing rules, sorted by effective time.

    Mirrors Algorithm 2: when a rule with the same ``(t, s)`` pair already
    exists, the tenant is appended to its ``k_list``; otherwise a new rule is
    inserted. A per-tenant index keeps :meth:`match` at
    ``O(rules_for_tenant)`` instead of scanning the full list — the paper
    limits ``s`` to powers of two precisely to keep this list small.
    """

    def __init__(self, rules: Iterable[SecondaryHashingRule] = ()) -> None:
        self._rules: list[SecondaryHashingRule] = []
        self._by_key: dict[tuple[float, int], int] = {}
        self._by_tenant: dict[object, list[int]] = {}
        self._annotations: dict[tuple[float, int, str], RuleAnnotation] = {}
        self._version = 0
        self._lookup_counter = NULL_METRIC
        self._hit_counter = NULL_METRIC
        for rule in rules:
            self.insert(rule.effective_time, rule.offset, rule.tenants)

    @property
    def version(self) -> int:
        """Monotonically increasing routing-state counter.

        Bumps on every rule append (:meth:`insert`/:meth:`update`) and on
        :meth:`compact`. Caches that depend on a query's shard fan-out —
        the coordinator result cache keys on ``(fingerprint, version)`` —
        use it to invalidate atomically whenever routing changes.
        """
        return self._version

    def instrument(self, telemetry) -> "RuleList":
        """Attach telemetry counters for rule lookups and non-default hits."""
        self._lookup_counter = telemetry.metrics.counter("routing_rule_lookups_total")
        self._hit_counter = telemetry.metrics.counter("routing_rule_matches_total")
        return self

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[SecondaryHashingRule]:
        return iter(sorted(self._rules, key=lambda r: (r.effective_time, r.offset)))

    def insert(self, effective_time: float, offset: int, tenants: Iterable) -> SecondaryHashingRule:
        """Insert tenants under rule ``(effective_time, offset)``.

        Implements ``UpdateRuleList`` (Algorithm 2): merges into an existing
        ``(t, s)`` rule when present, otherwise creates a new one. Returns the
        resulting rule.
        """
        tenants = frozenset(tenants)
        if not tenants:
            raise ConfigurationError("a secondary hashing rule needs at least one tenant")
        key = (effective_time, offset)
        if key in self._by_key:
            index = self._by_key[key]
            merged = SecondaryHashingRule(
                effective_time, offset, self._rules[index].tenants | tenants
            )
            self._rules[index] = merged
        else:
            index = len(self._rules)
            merged = SecondaryHashingRule(effective_time, offset, tenants)
            self._rules.append(merged)
            self._by_key[key] = index
        for tenant in tenants:
            slots = self._by_tenant.setdefault(tenant, [])
            if index not in slots:
                slots.append(index)
        self._version += 1
        return merged

    def update(self, effective_time: float, offset: int, tenant: object) -> SecondaryHashingRule:
        """Algorithm-2 entry point for a single tenant (``UpdateRuleList``)."""
        return self.insert(effective_time, offset, [tenant])

    def annotate(
        self,
        effective_time: float,
        offset: int,
        tenant: object,
        reason: str,
        measurement: dict | None = None,
    ) -> RuleAnnotation:
        """Attach the triggering measurement to rule membership
        ``(effective_time, offset, tenant)``; the latest annotation for a
        membership wins."""
        annotation = RuleAnnotation(
            effective_time=effective_time,
            offset=offset,
            tenant=str(tenant),
            reason=reason,
            measurement=dict(measurement or {}),
        )
        self._annotations[(effective_time, offset, annotation.tenant)] = annotation
        return annotation

    def annotations(self) -> list[RuleAnnotation]:
        """All annotations, ordered like the rule list (time, offset, tenant)."""
        return [self._annotations[key] for key in sorted(self._annotations)]

    def match(self, tenant_id: object, created_time: float) -> int:
        """Return the secondary-hashing offset ``s`` for a record.

        Applies the three matching conditions of §4.2 and falls back to
        ``DEFAULT_OFFSET`` (= 1, single shard) when no rule covers the record.
        """
        self._lookup_counter.inc()
        best = DEFAULT_OFFSET
        for index in self._by_tenant.get(tenant_id, ()):
            rule = self._rules[index]
            if rule.effective_time <= created_time and rule.offset > best:
                best = rule.offset
        if best != DEFAULT_OFFSET:
            self._hit_counter.inc()
        return best

    def max_offset(self, tenant_id: object) -> int:
        """Return the largest offset any rule ever granted to *tenant_id*.

        Queries must fan out to every shard that may hold the tenant's
        historical records, i.e. the union over all committed rules — which,
        because shards are consecutive starting at ``h1(k1) mod N``, is simply
        the range of length ``max(s)``.
        """
        return self.match(tenant_id, float("inf"))

    def rules_for(self, tenant_id: object) -> list[SecondaryHashingRule]:
        """Return all rules mentioning *tenant_id*, ordered by effective time."""
        rules = [self._rules[i] for i in self._by_tenant.get(tenant_id, ())]
        rules.sort(key=lambda r: (r.effective_time, r.offset))
        return rules

    def snapshot(self) -> tuple[SecondaryHashingRule, ...]:
        """Return an immutable snapshot of the current rules (for replication
        to other coordinators after a consensus round)."""
        return tuple(iter(self))

    def compact(self) -> int:
        """Remove *dead* rule memberships; returns how many were dropped.

        A tenant's membership in rule ``(t2, s2)`` is dead when an earlier
        rule ``(t1, s1)`` with ``t1 <= t2`` grants the tenant ``s1 >= s2``:
        condition 3 of §4.2 picks the largest offset among applicable rules,
        so the later, smaller entry can never win for any creation time.
        Compaction therefore never changes :meth:`match` — the property test
        suite verifies this — while keeping the rule list small, which is
        the stated reason ESDB restricts offsets to powers of two.
        """
        dropped = 0
        version = self._version
        surviving: dict[tuple[float, int], set] = {}
        for tenant, indexes in self._by_tenant.items():
            entries = sorted(
                ((self._rules[i].effective_time, self._rules[i].offset) for i in indexes),
            )
            best_so_far = 0
            for time_, offset in entries:
                if offset > best_so_far:
                    best_so_far = offset
                    surviving.setdefault((time_, offset), set()).add(tenant)
                else:
                    dropped += 1
        self._rules = []
        self._by_key = {}
        self._by_tenant = {}
        for (time_, offset), tenants in sorted(surviving.items()):
            self.insert(time_, offset, tenants)
        # One compaction is one routing-state transition: exactly +1, even
        # when nothing was dropped (the rebuild inserts above over-count),
        # so dependent caches retire fan-outs planned against the
        # pre-compaction list without skipping key space.
        self._version = version + 1
        return dropped
