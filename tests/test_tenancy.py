"""Tests for repro.tenancy: admission control, QoS, quotas, backpressure."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterTopology
from repro.errors import ConfigurationError, TenantThrottledError
from repro.esdb import ESDB, EsdbConfig
from repro.faults import ChaosConfig, ChaosRunner
from repro.faults.__main__ import (
    FLOOD_TENANT,
    build_failover_plan,
    build_noisy_neighbor_plan,
)
from repro.obsv import cat_tenants, render_dashboard, snapshot
from repro.obsv.skew import Alert
from repro.tenancy import (
    CLUSTER_TENANT,
    QUEUE_SHARES,
    QuotaLedger,
    TenancyConfig,
    TenantGovernor,
    TokenBucket,
    cat_tenant_governance,
    doc_bytes,
)
from repro.tenancy.config import DEMOTE_SECONDS, DEMOTE_SHARE
from repro.workload.generator import TransactionLogGenerator, WorkloadConfig

#: The governance-off failover fingerprint at seed 0 / 120 steps, captured
#: before repro.tenancy existed. Default-off governance must never move it.
#: What the standard and the demoted tenant of
#: ``test_qos_ordering_past_saturation`` get admitted — the same counts a
#: statically configured batch tenant got before demotion was its only way
#: into the class.
ADMITTED_PAST_SATURATION = [41, 27]

SEED_FINGERPRINT = (
    "seed=0 steps=120 acked=120 coalesced=0 redriven=6 faults=4/2 "
    "consensus=1/1 docs=[0:12,1:11,2:10,3:11,4:24,5:14,6:21,7:17] "
    "violations=0"
)


def governed_db(**overrides) -> ESDB:
    params = dict(enabled=True)
    params.update(overrides)
    return ESDB(
        EsdbConfig(
            topology=ClusterTopology(num_nodes=2, num_shards=4,
                                     replicas_per_shard=0),
            tenancy=TenancyConfig(**params),
        )
    )


def make_doc(generator=None, tenant="t-1", now=0.0) -> dict:
    generator = generator or TransactionLogGenerator(
        WorkloadConfig(num_tenants=100, seed=5)
    )
    return generator.generate(created_time=now, tenant_id=tenant)


# -- token bucket ------------------------------------------------------------


class TestTokenBucket:
    def test_starts_full_and_refills_on_logical_clock(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        assert bucket.available(0.0) == 5.0
        for _ in range(5):
            assert bucket.acquire(0.0) == 0.0
        assert bucket.acquire(0.0) is None  # empty, no debt allowed
        # Half a logical second accrues 5 tokens back.
        assert bucket.available(0.5) == 5.0

    def test_acquire_with_debt_returns_future_delay(self):
        bucket = TokenBucket(rate=2.0, burst=1.0)
        assert bucket.acquire(0.0) == 0.0
        delay = bucket.acquire(0.0, max_debt=4.0)
        assert delay == pytest.approx(0.5)  # one token accrues in 1/2 s
        assert bucket.acquire(0.0, max_debt=0.0) is None

    def test_clock_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=10.0)
        bucket.acquire(10.0)
        before = bucket.available(10.0)
        assert bucket.available(3.0) == before  # earlier now is clamped

    def test_deterministic_replay(self):
        def drive():
            bucket = TokenBucket(rate=3.0, burst=4.0)
            return [
                bucket.acquire(t * 0.1, max_debt=2.0) for t in range(50)
            ]

        assert drive() == drive()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=0.5)


# -- quota ledger ------------------------------------------------------------


class TestQuotaLedger:
    def test_window_resets_exactly_on_boundary(self):
        ledger = QuotaLedger(window_seconds=10.0)
        ledger.charge("indexed_bytes", 100, now=1.0)
        assert ledger.used("indexed_bytes", 9.999) == 100
        assert ledger.used("indexed_bytes", 10.0) == 0  # new window
        ledger.charge("indexed_bytes", 7, now=10.0)
        assert ledger.used("indexed_bytes", 19.0) == 7

    def test_would_exceed_and_reset_in(self):
        ledger = QuotaLedger(window_seconds=10.0)
        ledger.charge("indexed_bytes", 90, now=2.0)
        assert not ledger.would_exceed("indexed_bytes", 10, 100, now=2.0)
        assert ledger.would_exceed("indexed_bytes", 11, 100, now=2.0)
        assert not ledger.would_exceed("indexed_bytes", 10_000, None, now=2.0)
        assert ledger.reset_in(2.0) == pytest.approx(8.0)

    def test_kinds_are_independent(self):
        ledger = QuotaLedger(window_seconds=60.0)
        ledger.charge("result_bytes", 50, now=0.0)
        assert ledger.used("scanned_docs", 0.0) == 0


# -- governor ---------------------------------------------------------------


class TestTenantGovernor:
    def test_admits_within_rate_then_queues_then_sheds(self):
        # A standard tenant may fill 60% of the queue: 3 of 5 slots.
        config = TenancyConfig(
            enabled=True, write_rate=1.0, write_burst=2.0, queue_capacity=5
        )
        governor = TenantGovernor(config)
        assert governor.admit_write("a", 0.0) == 0.0
        assert governor.admit_write("a", 0.0) == 0.0  # burst exhausted
        delays = [governor.admit_write("a", 0.0) for _ in range(3)]
        assert delays == sorted(delays) and delays[0] > 0  # queued, FIFO-ish
        with pytest.raises(TenantThrottledError) as excinfo:
            governor.admit_write("a", 0.0)
        assert excinfo.value.budget == "queue"
        assert excinfo.value.retry_after > 0

    def test_queue_drains_as_logical_clock_advances(self):
        # 60% of 4 slots: a standard tenant may book 2.
        config = TenancyConfig(
            enabled=True, write_rate=1.0, write_burst=1.0, queue_capacity=4
        )
        governor = TenantGovernor(config)
        governor.admit_write("a", 0.0)
        governor.admit_write("a", 0.0)  # booked for t=1
        governor.admit_write("a", 0.0)  # booked for t=2
        assert governor.queue_depth(0.0) == 2
        with pytest.raises(TenantThrottledError):
            governor.admit_write("a", 0.0)
        assert governor.queue_depth(2.0) == 0  # releases passed
        governor.admit_write("a", 3.0)  # admitted again

    def test_qos_shed_ordering_batch_first(self):
        config = TenancyConfig(
            enabled=True, write_rate=1.0, write_burst=1.0, queue_capacity=10
        )
        governor = TenantGovernor(config)
        governor.demote("bulk", 0.0)
        for tenant in ("std", "bulk"):
            governor.admit_write(tenant, 0.0)  # burst tokens
        # Fill the queue from the batch tenant until its 25% share sheds.
        with pytest.raises(TenantThrottledError) as excinfo:
            for _ in range(20):
                governor.admit_write("bulk", 0.0)
        assert excinfo.value.qos == "batch"
        assert governor.queue_depth(0.0) == int(10 * QUEUE_SHARES["batch"])
        # The standard tenant still has queue share left.
        assert governor.admit_write("std", 0.0) > 0.0

    def test_qos_ordering_past_saturation(self):
        """Two tenants, one standard and one demoted to batch, each
        offering 100 writes/s against a 5/s budget on the logical clock:
        the standard one gets more through, and the counts are exact."""
        tenants = ("t-standard", "t-batch")
        config = TenancyConfig(
            enabled=True, write_rate=5.0, write_burst=8.0, queue_capacity=24
        )
        governor = TenantGovernor(config)
        governor.demote("t-batch", 0.0)
        for i in range(400):
            for tenant in tenants:
                try:
                    governor.admit_write(tenant, i * 0.01, 64)
                except TenantThrottledError:
                    pass
        assert governor.qos_of("t-batch", 4.0) == "batch"
        admitted = [governor.tenant_counts(tenant)[0] for tenant in tenants]
        assert admitted == ADMITTED_PAST_SATURATION

    def test_indexed_bytes_quota_sheds_with_window_retry_after(self):
        config = TenancyConfig(
            enabled=True, indexed_bytes_quota=100, quota_window_seconds=10.0
        )
        governor = TenantGovernor(config)
        governor.admit_write("a", 1.0, size_bytes=90)
        with pytest.raises(TenantThrottledError) as excinfo:
            governor.admit_write("a", 1.0, size_bytes=20)
        error = excinfo.value
        assert error.budget == "quota:indexed_bytes"
        assert error.retry_after == pytest.approx(9.0)
        # The shed write was not charged; a smaller one still fits ...
        governor.admit_write("a", 1.0, size_bytes=10)
        # ... and the next window starts from zero.
        governor.admit_write("a", 10.0, size_bytes=90)

    def test_query_quota_exhaustion_blocks_next_query(self):
        config = TenancyConfig(
            enabled=True, scanned_docs_quota=100, quota_window_seconds=50.0
        )
        governor = TenantGovernor(config)
        governor.admit_query("a", 0.0)
        governor.charge_query("a", 0.0, scanned=150)
        with pytest.raises(TenantThrottledError) as excinfo:
            governor.admit_query("a", 1.0)
        assert excinfo.value.budget == "quota:scanned_docs"
        governor.admit_query("a", 50.0)  # window rolled

    def test_cross_tenant_queries_account_to_cluster_tenant(self):
        governor = TenantGovernor(TenancyConfig(enabled=True))
        governor.admit_query(None, 0.0)
        assert governor.tenant_counts(CLUSTER_TENANT) == (1, 0, 0)

    def test_throttled_error_payload(self):
        with pytest.raises(TenantThrottledError) as excinfo:
            governor = TenantGovernor(
                TenancyConfig(enabled=True, indexed_bytes_quota=1)
            )
            governor.admit_write("tenant-9", 2.5, size_bytes=10)
        error = excinfo.value
        assert error.tenant == "tenant-9"
        assert error.op == "write"
        assert error.budget == "quota:indexed_bytes"
        assert error.retry_after > 0
        assert error.qos == "standard"
        assert "tenant-9" in str(error)

    def test_demote_and_lazy_restore(self):
        governor = TenantGovernor(TenancyConfig(enabled=True))
        governor.demote("noisy", now=10.0, reason="test")
        assert governor.qos_of("noisy", 11.0) == "batch"
        assert governor.is_demoted("noisy", 10.0 + DEMOTE_SECONDS - 0.001)
        restored = 10.0 + DEMOTE_SECONDS
        assert governor.qos_of("noisy", restored) == "standard"  # expired
        assert not governor.is_demoted("noisy", restored)

    def test_policy_demotes_on_hot_tenant_alert(self):
        governor = TenantGovernor(TenancyConfig(enabled=True))
        alerts = [
            Alert(1.0, "hot_tenant", "whale", {"share": DEMOTE_SHARE}),
            Alert(1.0, "hot_tenant", "minnow", {"share": DEMOTE_SHARE - 0.01}),
            Alert(1.0, "hot_shard", "3", {"share": 0.9}),
        ]
        assert governor.apply_alerts(alerts, now=1.0) == ["whale"]
        assert governor.is_demoted("whale", 2.0)
        assert not governor.is_demoted("minnow", 2.0)
        # Re-alerting restarts the window without re-reporting the tenant.
        assert governor.apply_alerts(alerts[:1], now=2.0) == []

    def test_rows_and_rendered_dashboard(self):
        governor = TenantGovernor(TenancyConfig(enabled=True))
        governor.admit_write("a", 0.0)
        governor.admit_write("b", 0.0)
        governor.admit_write("a", 0.0)
        rows = governor.snapshot(0.0)["tenants"]
        assert rows[0]["tenant"] == "a"  # busiest first
        db = governed_db()
        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=10, seed=1))
        for tenant in ("a", "b", "a"):
            db.write(generator.generate(created_time=0.0, tenant_id=tenant))
        snap = snapshot(db)
        lines = render_dashboard(snap).splitlines()
        tenancy = lines[lines.index("-- tenancy governance --") + 1]
        assert tenancy.startswith("  3 admitted / 0 queued / 0 shed, ")
        assert snap["cluster"]["tenancy"]["totals"]["tenants"] == 2


# -- config -----------------------------------------------------------------


class TestTenancyConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TenancyConfig(write_rate=0)
        with pytest.raises(ConfigurationError):
            TenancyConfig(queue_capacity=0)
        with pytest.raises(ConfigurationError):
            TenancyConfig(scanned_docs_quota=0)

    def test_strict_preset(self):
        strict = TenancyConfig.strict(write_rate=99.0)
        assert strict.enabled
        assert strict.write_rate == 99.0
        assert strict.indexed_bytes_quota is not None

    def test_doc_bytes_is_deterministic_and_positive(self):
        doc = make_doc()
        assert doc_bytes(doc) == doc_bytes(dict(doc)) > 0


# -- facade integration ------------------------------------------------------


class TestFacadeGovernance:
    def test_default_config_builds_no_governor(self):
        db = ESDB(EsdbConfig())
        assert db.governor is None

    def test_hot_tenant_is_demoted_and_restored_on_the_logical_clock(self):
        """A tenant writing 60% of a skew window is demoted to batch when
        the window closes, and is standard again a minute later."""
        db = governed_db(write_rate=1000.0, write_burst=1000.0)
        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=10, seed=3))
        tenants = ["whale", "whale", "whale", "b", "c"] * 20
        for i, tenant in enumerate(tenants):
            db.write(generator.generate(created_time=i * 0.09, tenant_id=tenant))
        db.advance_clock(10.0)
        db.rebalance()
        assert [event.tenant for event in db.events.query(kind="demotion")] == ["whale"]
        governor = db.governor
        assert governor.qos_of("whale", 10.0) == "batch"
        assert governor.qos_of("b", 10.0) == "standard"  # 20%: under the share
        db.write(generator.generate(created_time=10.0 + DEMOTE_SECONDS, tenant_id="whale"))
        assert governor.qos_of("whale", db.now) == "standard"
        assert not governor.is_demoted("whale", db.now)

    def test_alert_from_a_window_closed_mid_stream_reaches_the_governor(self):
        """The whale fills one window; the writes of the next close it
        mid-stream, and the alert that window raises is still handed to
        the governor at the next balance round."""
        db = governed_db(write_rate=1e9, write_burst=1e9, queue_capacity=10**6)
        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=10, seed=3))
        for i in range(200):
            db.write(generator.generate(created_time=i * 0.05, tenant_id="whale"))
        for j in range(50):
            db.write(generator.generate(created_time=10.0 + j * 0.01, tenant_id=f"small-{j}"))
        db.rebalance()
        assert ("hot_tenant", "whale") in [(a.kind, a.subject) for a in db.obsv.alerts]
        assert db.governor.is_demoted("whale", db.now)
        assert [event.tenant for event in db.events.query(kind="demotion")] == ["whale"]

    def test_governed_write_sheds_and_surfaces_error(self):
        db = governed_db(write_rate=1.0, write_burst=1.0, queue_capacity=1)
        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=10, seed=1))
        db.write(generator.generate(created_time=0.0, tenant_id="t-1"))
        db.write(generator.generate(created_time=0.0, tenant_id="t-1"))
        with pytest.raises(TenantThrottledError) as excinfo:
            db.write(generator.generate(created_time=0.0, tenant_id="t-1"))
        assert excinfo.value.op == "write"
        # Shed writes are not indexed.
        db.refresh()
        assert sum(engine.doc_count() for engine in db.engines.values()) == 2

    def test_governed_query_admission_and_tenant_extraction(self):
        db = governed_db(query_rate=1.0, query_burst=1.0)
        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=10, seed=1))
        db.write(generator.generate(created_time=0.0, tenant_id="t-1"))
        db.refresh()
        sql = "SELECT * FROM transaction_logs WHERE tenant_id = 't-1' LIMIT 5"
        db.execute_sql(sql)
        (admitted, _, _) = db.governor.tenant_counts("t-1")
        assert admitted >= 1  # charged to the statement's tenant, not "*"
        # Repeat queries resolve the tenant from the memoized probe cache.
        with pytest.raises(TenantThrottledError):
            for _ in range(40):
                db.execute_sql(sql)

    def test_cross_tenant_query_accounts_to_cluster(self):
        db = governed_db()
        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=10, seed=1))
        db.write(generator.generate(created_time=0.0))
        db.refresh()
        db.execute_sql("SELECT COUNT(*) FROM transaction_logs")
        assert db.governor.tenant_counts(CLUSTER_TENANT)[0] == 1

    @pytest.mark.parametrize("where, charged", [
        ("tenant_id = 'a' OR status = 2", CLUSTER_TENANT),
        ("(tenant_id = 'a' AND status = 2) OR (tenant_id = 'b' AND status = 2)",
         CLUSTER_TENANT),
        ("tenant_id = 'a' AND (status = 2 OR amount <= 5)", "a"),
        ("(tenant_id = 'a' AND status = 2) OR (tenant_id = 'a' AND amount <= 5)", "a"),
    ], ids=["tenant-or-filter", "two-tenants", "tenant-and-or", "same-tenant-twice"])
    def test_query_is_charged_to_the_tenant_every_disjunct_names(self, where, charged):
        # Admission reads the statement's tenant the way shard pruning does:
        # one tenant only when every disjunct names it, else cross-tenant.
        sql = f"SELECT * FROM transaction_logs WHERE {where}"
        db = governed_db()
        db.execute_sql(sql)
        assert db.governor.tenant_counts(charged)[0] == 1
        db.execute_sql(sql)  # a result-cache hit is admitted for the same tenant
        assert db.governor.tenant_counts(charged)[0] == 2
        assert db.governor.snapshot(db.now)["totals"]["admitted"] == 2

    def test_cat_tenants_gains_governance_columns(self):
        db = governed_db()
        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=10, seed=1))
        db.write(generator.generate(created_time=0.0, tenant_id="t-1"))
        db.refresh()
        table = cat_tenants(db)
        for column in ("qos", "admitted", "shed", "demoted"):
            assert column in table.columns
        ungoverned = ESDB(EsdbConfig())
        ungoverned.write(generator.generate(created_time=0.0, tenant_id="t-1"))
        ungoverned.refresh()
        assert "qos" not in cat_tenants(ungoverned).columns

    def test_cat_tenant_governance_table(self):
        db = governed_db()
        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=10, seed=1))
        db.write(generator.generate(created_time=0.0, tenant_id="t-1"))
        rendered = cat_tenant_governance(db).render()
        assert "t-1" in rendered
        # Well-formed empty table on an ungoverned instance.
        empty = cat_tenant_governance(ESDB(EsdbConfig()))
        assert empty.rows == []

    def test_rendered_dashboard_sections(self):
        db = governed_db()
        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=10, seed=1))
        db.write(generator.generate(created_time=0.0, tenant_id="t-1"))
        snap = snapshot(db)
        assert "tenancy governance" in render_dashboard(snap)
        ungoverned = ESDB(EsdbConfig())
        ungoverned.write(generator.generate(created_time=0.0, tenant_id="t-1"))
        snap = snapshot(ungoverned)
        assert "tenancy governance" not in render_dashboard(snap)

    def test_snapshot_tenancy_key_only_when_governed(self):
        db = governed_db()
        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=10, seed=1))
        db.write(generator.generate(created_time=0.0, tenant_id="t-1"))
        assert "tenancy" in snapshot(db)["cluster"]
        assert "tenancy" not in snapshot(ESDB(EsdbConfig()))["cluster"]

    def test_tenancy_telemetry_counters(self):
        db = governed_db(write_rate=1.0, write_burst=1.0, queue_capacity=1)
        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=10, seed=1))
        for _ in range(2):
            db.write(generator.generate(created_time=0.0, tenant_id="t-1"))
        with pytest.raises(TenantThrottledError):
            db.write(generator.generate(created_time=0.0, tenant_id="t-1"))
        metrics = db.telemetry.metrics
        assert metrics.total("tenancy_admitted_total") == 2
        assert metrics.total("tenancy_shed_total") == 1
        assert metrics.value(
            "tenancy_shed_total", op="write", budget="queue"
        ) == 1


class TestShedQuery:
    """A governed query is admitted after the result-cache probe, and on a
    miss after its traced prepare; a rejected one still raises before any
    fan-out, emits its event, records an SLO error and counts as no query."""

    SQL = "SELECT * FROM transaction_logs WHERE tenant_id = 't-1' AND status = {}"

    @pytest.fixture()
    def spent(self) -> ESDB:
        """A governed, SLO-enabled instance whose tenant ``t-1`` used up its
        scanned-documents quota on one query (``status = 1``)."""
        from tests.conftest import make_log

        db = ESDB(EsdbConfig(
            topology=ClusterTopology(num_nodes=2, num_shards=4, replicas_per_shard=0),
            tenancy=TenancyConfig(enabled=True, scanned_docs_quota=1),
            slo=True,
        ))
        for i in range(4):
            db.write(make_log(i, tenant="t-1", created=float(i), status=1))
        db.refresh()
        assert len(db.execute_sql(self.SQL.format(1))) == 4
        return db

    def _shed(self, db: ESDB, sql: str) -> TenantThrottledError:
        metrics = db.telemetry.metrics
        queries = metrics.total("esdb_queries_total")
        subqueries = metrics.total("esdb_subqueries_total")
        slo_errors = []
        record = db.slo.record

        def tapped(op, latency, now, error=False):
            if error:
                slo_errors.append(op)
            return record(op, latency, now, error=error)

        db.slo.record = tapped
        db.coordinator.execute = lambda *args: pytest.fail("a shed query fanned out")
        with pytest.raises(TenantThrottledError) as caught:
            db.execute_sql(sql)
        assert (caught.value.tenant, caught.value.budget) == ("t-1", "quota:scanned_docs")
        (event,) = db.events.query(kind="throttle")
        assert event.tenant == "t-1" and event.detail["op"] == "query"
        assert event.trace_id is not None
        assert slo_errors == ["query"]
        assert metrics.total("esdb_queries_total") == queries
        assert metrics.total("esdb_subqueries_total") == subqueries
        return caught.value

    def test_shed_on_a_result_cache_hit(self, spent):
        self._shed(spent, self.SQL.format(1))
        # The probe ran first and counts as a lookup.
        assert spent.result_cache.stats.hits == 1

    def test_shed_on_a_miss_after_its_prepare(self, spent):
        misses = spent.result_cache.stats.misses
        self._shed(spent, self.SQL.format(2))
        assert spent.result_cache.stats.misses == misses + 1
        # The statement was prepared (bound into the shape of status = 1).
        assert spent.telemetry.metrics.value("query_shapes_total", outcome="bind") == 1


# -- write client ------------------------------------------------------------


class TestWriteClientThrottling:
    def make_client(self, db, batch_size=128):
        from repro.client import WriteClient, WriteClientConfig

        return WriteClient(
            db.policy,
            dispatch=lambda shard_id, sources: [db.write(s) for s in sources],
            config=WriteClientConfig(
                backoff_base_seconds=0.0, batch_size=batch_size
            ),
        )

    def test_throttle_surfaces_without_dead_lettering(self):
        db = governed_db(write_rate=1.0, write_burst=2.0, queue_capacity=1)
        client = self.make_client(db)
        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=10, seed=1))
        for i in range(8):
            client.submit(generator.generate(created_time=0.0, tenant_id="t-1"))
        with pytest.raises(TenantThrottledError) as excinfo:
            client.flush()
        assert excinfo.value.retry_after > 0
        assert client.dead_letter_count() == 0  # never dead-lettered
        assert client.stats["throttled"] == 1
        # The throttled batch's writes are back in the queue, not lost.
        assert client.stats["dispatched"] < client.stats["queued"] == 8

    def test_throttled_pendings_redispatch_after_backoff(self):
        db = governed_db(write_rate=2.0, write_burst=2.0, queue_capacity=1)
        # Small batches: a throttled chunk is restored whole, so progress
        # per retry round is bounded by batch size vs. the refill rate.
        client = self.make_client(db, batch_size=2)
        generator = TransactionLogGenerator(WorkloadConfig(num_tenants=10, seed=1))
        docs = [generator.generate(created_time=0.0, tenant_id="t-1")
                for _ in range(6)]
        for doc in docs:
            client.submit(doc)
        with pytest.raises(TenantThrottledError):
            client.flush()
        assert client.stats["dispatched"] < len(docs)
        # Back off on the logical clock and retry: the burst-capped bucket
        # drains the backlog over a few rounds, losing nothing.
        for rounds in range(1, 20):
            db.advance_clock(rounds * 5.0)
            try:
                client.flush()
            except TenantThrottledError:
                continue
            if client.stats["dispatched"] == len(docs):
                break
        assert client.stats["dispatched"] == len(docs)
        assert client.dead_letter_count() == 0


# -- chaos ------------------------------------------------------------------


class TestNoisyNeighborChaos:
    def run_chaos(self, governed: bool, steps: int = 80, flood_factor: int = 10):
        plan = build_noisy_neighbor_plan(0, steps, 8)
        config = ChaosConfig(
            steps=steps,
            flood_tenant=FLOOD_TENANT,
            flood_factor=flood_factor,
            tenancy=TenancyConfig.strict() if governed else None,
        )
        runner = ChaosRunner(plan, config)
        return runner, runner.run()

    def test_governance_off_fingerprint_is_seed_identical(self):
        config = ChaosConfig(steps=120)
        plan = build_failover_plan(0, 120, config.num_shards)
        report = ChaosRunner(plan, config).run()
        assert report.fingerprint() == SEED_FINGERPRINT

    def test_governed_flood_is_throttled_and_victims_protected(self):
        runner, report = self.run_chaos(governed=True)
        assert report.ok, report.violations
        assert report.governed
        assert report.writes_throttled > 0
        assert set(report.throttled_by_tenant) == {FLOOD_TENANT}
        assert FLOOD_TENANT in report.fingerprint()

    def test_ungoverned_flood_floods(self):
        runner, report = self.run_chaos(governed=False)
        assert not report.governed
        assert report.writes_throttled == 0
        assert "throttled=" not in report.fingerprint()

    def test_noisy_neighbor_determinism(self):
        first = self.run_chaos(governed=True)[1].fingerprint()
        second = self.run_chaos(governed=True)[1].fingerprint()
        assert first == second

    def test_invariant_flags_unthrottled_flood(self):
        runner, report = self.run_chaos(governed=True)
        report.writes_throttled = 0
        report.throttled_by_tenant.clear()
        violations = runner.check_invariants()
        assert any("never throttled" in v for v in violations)

    def test_invariant_flags_victim_shed(self):
        runner, report = self.run_chaos(governed=True)
        report.throttled_by_tenant["victim-7"] = 3
        violations = runner.check_invariants()
        assert any("victim" in v for v in violations)

    def test_chaos_cli_noisy_neighbor(self, capsys):
        from repro.faults.__main__ import main

        exit_code = main([
            "--scenario", "noisy-neighbor", "--steps", "60",
            "--flood-factor", "6", "--quiet",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "tenancy" in captured.out


# -- experiments -------------------------------------------------------------


class TestGovernanceExperiment:
    def test_fig20_governed_vs_ungoverned(self):
        from repro.experiments import run

        ungoverned = run("fig20", scale="tiny")
        assert all(row[2] == 0 for row in ungoverned.rows)  # nothing shed
        governed = run("fig20", scale="tiny", tenancy=True)
        spike_row = next(row for row in governed.rows if row[0] == "spike")
        assert spike_row[2] > 0  # flash tenant shed during the spike
        assert all(row[4] == 0 for row in governed.rows)  # background intact
        assert any("flash-sale" in note for note in governed.notes)

    def test_unknown_options_are_dropped_for_other_experiments(self):
        from repro.experiments import run

        result = run("fig01", scale="tiny", tenancy=True)
        assert result.rows
