"""Stateful property test for the ESDB facade.

Random interleavings of writes, updates, deletes, refreshes, rebalances,
rule-list compactions and primary failovers against a dict model. The key
invariant is the paper's read-your-writes guarantee across offset changes:
no matter when the balancer splits a tenant, every record ever written
remains reachable through SQL — also by the time-bounded and id statements
whose fan-out the rule list prunes — updates/deletes land on the copy the
rules route to, and every stored record re-derives to the shard that holds
it.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import ESDB, EsdbConfig
from repro.balancer import BalancerConfig
from repro.cluster import ClusterTopology
from repro.storage import ShardEngine
from tests.conftest import make_log

TENANTS = ["whale", "dolphin", "minnow"]


class EsdbModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.db = ESDB(
            EsdbConfig(
                topology=ClusterTopology(
                    num_nodes=3, num_shards=16, replicas_per_shard=2
                ),
                auto_refresh_every=None,
                balancer=BalancerConfig(
                    hotspot_share=0.3, target_share_per_shard=0.1
                ),
                consensus_interval=1.0,
                replication="physical",
            )
        )
        self.model: dict[int, dict] = {}
        self.clock = 0.0
        self.next_id = 0

    def _tick(self) -> float:
        self.clock += 1.0
        self.db.advance_clock(self.clock)
        return self.clock

    def _pick(self, pick: int) -> dict:
        return self.model[sorted(self.model)[pick % len(self.model)]]

    def _address(self, doc: dict, timed: bool) -> dict:
        """Locate by tenant alone, or by tenant and creation time."""
        address = {"tenant_id": doc["tenant_id"]}
        if timed:
            address["created_time"] = doc["created_time"]
        return address

    @rule(tenant=st.sampled_from(TENANTS), status=st.integers(0, 3))
    def write(self, tenant, status):
        doc = {
            "transaction_id": self.next_id,
            "tenant_id": tenant,
            "created_time": self._tick(),
            "status": status,
        }
        self.db.write(doc)
        self.model[self.next_id] = doc
        self.next_id += 1

    @rule(status=st.integers(0, 3), pick=st.integers(0, 10**6), timed=st.booleans())
    def update(self, status, pick, timed):
        if not self.model:
            return
        doc = self._pick(pick)
        doc_id = doc["transaction_id"]
        self.db.update(doc_id, {"status": status}, **self._address(doc, timed))
        self.model[doc_id] = {**doc, "status": status}

    @rule(pick=st.integers(0, 10**6), timed=st.booleans())
    def delete(self, pick, timed):
        if not self.model:
            return
        doc = self._pick(pick)
        self.db.delete(doc["transaction_id"], **self._address(doc, timed))
        del self.model[doc["transaction_id"]]

    @rule()
    def refresh(self):
        self.db.refresh()

    @rule()
    def rebalance(self):
        self._tick()
        self.db.rebalance()

    @rule()
    def compact(self):
        self.db.policy.rules.compact()

    @rule(pick=st.integers(0, 10**6))
    def fail_primary(self, pick):
        replicated = sorted(self.db.replica_sets)
        if not replicated:
            return
        self.db.replicate()
        self.db.fail_primary(replicated[pick % len(replicated)])

    @invariant()
    def every_tenant_query_matches_model(self):
        self.db.refresh()
        for tenant in TENANTS:
            result = self.db.execute_sql(
                f"SELECT transaction_id, status FROM t WHERE tenant_id = '{tenant}'"
            )
            got = {r["transaction_id"]: r["status"] for r in result.rows}
            expected = {
                doc_id: doc["status"]
                for doc_id, doc in self.model.items()
                if doc["tenant_id"] == tenant
            }
            assert got == expected, tenant
        assert self.db.doc_count() == len(self.model)

    def _ids(self, where: str) -> set:
        rows = self.db.execute_sql(f"SELECT transaction_id FROM t WHERE {where}").rows
        return {row["transaction_id"] for row in rows}

    @invariant()
    def pruned_statements_match_model(self):
        """The statements fan-out pruning narrows — an upper time bound, a
        range, a record id, with and without its time — and one it must not
        narrow (a tenant under an OR) answer as the model does, compiled
        and bound into their shapes alike."""
        self.db.refresh()
        docs = sorted(self.model.values(), key=lambda doc: doc["created_time"])
        tenant = TENANTS[int(self.clock) % len(TENANTS)]
        low = docs[len(docs) // 4]["created_time"] if docs else 0.0
        high = docs[len(docs) // 2]["created_time"] if docs else self.clock
        probe = docs[len(docs) // 3] if docs else {
            "tenant_id": tenant, "transaction_id": -1, "created_time": 0.0
        }
        owner, doc_id, created = (
            probe["tenant_id"], probe["transaction_id"], probe["created_time"]
        )

        def expected(keep) -> set:
            return {key for key, doc in self.model.items() if keep(doc)}

        cases = {
            f"tenant_id = '{tenant}' AND created_time <= {high}":
                lambda d: d["tenant_id"] == tenant and d["created_time"] <= high,
            f"tenant_id = '{tenant}' AND created_time BETWEEN {low} AND {high}":
                lambda d: d["tenant_id"] == tenant and low <= d["created_time"] <= high,
            f"tenant_id = '{owner}' AND transaction_id = {doc_id}":
                lambda d: d["tenant_id"] == owner and d["transaction_id"] == doc_id,
            f"tenant_id = '{owner}' AND transaction_id = {doc_id} "
            f"AND created_time = {created}":
                lambda d: d["tenant_id"] == owner and d["transaction_id"] == doc_id
                and d["created_time"] == created,
            f"tenant_id = '{tenant}' OR status = 2":
                lambda d: d["tenant_id"] == tenant or d["status"] == 2,
        }
        metrics = self.db.telemetry.metrics
        binds = metrics.value("query_shapes_total", outcome="bind")
        for where, keep in cases.items():
            for _ in range(2):  # the second run binds the shape the first prepared
                self.db.result_cache.clear()
                assert self._ids(where) == expected(keep), where
        assert metrics.value("query_shapes_total", outcome="bind") >= binds + len(cases)

    @invariant()
    def every_stored_record_rederives_to_its_shard(self):
        self.db.refresh()
        policy = self.db.policy
        for shard_id, engine in self.db.engines.items():
            for _, doc in engine.iter_documents():
                source = doc.source
                assert policy.route_write(
                    source["tenant_id"], doc.doc_id, source["created_time"]
                ) == shard_id, doc.doc_id


EsdbModel.TestCase.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
TestEsdbStateful = EsdbModel.TestCase


def test_update_probes_one_shard_per_distinct_offset(monkeypatch):
    """Without a creation time, locating a record costs at most one
    ``contains`` per distinct offset the tenant was ever routed with, plus
    the default — never a scan of every shard."""
    db = ESDB(
        EsdbConfig(
            topology=ClusterTopology(num_nodes=4, num_shards=32),
            auto_refresh_every=None,
        )
    )
    rules = db.policy.rules
    for effective_time, offset in ((10.0, 4), (20.0, 16), (30.0, 4), (40.0, 16)):
        rules.update(effective_time, offset, "w")
    distinct_offsets = len({rule.offset for rule in rules.rules_for("w")})
    docs = [make_log(i, tenant="w", created=float(i)) for i in range(50)]
    for doc in docs:
        db.write(doc)
    calls = []
    contains = ShardEngine.contains

    def counting_contains(engine, doc_id):
        calls.append(engine.shard_id)
        return contains(engine, doc_id)

    monkeypatch.setattr(ShardEngine, "contains", counting_contains)
    for doc in docs:
        calls.clear()
        db.update(doc["transaction_id"], {"status": 2}, tenant_id="w")
        assert 1 <= len(calls) <= 1 + distinct_offsets
    calls.clear()
    db.update(0, {"status": 3}, tenant_id="w", created_time=0.0)
    assert calls == []
