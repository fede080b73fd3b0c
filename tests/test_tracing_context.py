"""Tests for request-scoped distributed tracing.

Covers the context layer (deterministic ids, traceparent, samplers, the
thread-local active context), the structured event log, histogram
exemplars, the facade wiring (trace lookup, slow-log stamping, span links,
event emission) and the flight-recorder diagnostics bundle.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.cluster import ClusterTopology
from repro.errors import ConfigurationError
from repro.esdb import ESDB, EsdbConfig
from repro.obsv import cat_events
from repro.telemetry import (
    EVENT_KINDS,
    AlwaysSampler,
    EventLog,
    MetricsRegistry,
    RatioSampler,
    SlowTailSampler,
    Span,
    SlowTailSampler as _SlowTail,  # noqa: F401 - alias exercised below
    TraceConfig,
    TraceContext,
    TraceIdGenerator,
    Tracer,
    build_sampler,
    current_context,
    derive_span_id,
    parse_prometheus,
    to_prometheus,
)
from repro.telemetry.tracing import _assign_span_ids
from repro.workload.generator import TransactionLogGenerator, WorkloadConfig

TOPOLOGY = ClusterTopology(num_nodes=2, num_shards=8, replicas_per_shard=0)


def make_db(**extras) -> ESDB:
    return ESDB(EsdbConfig(topology=TOPOLOGY, consensus_interval=1.0, **extras))


def zipf_docs(count: int, seed: int = 0) -> list[dict]:
    generator = TransactionLogGenerator(WorkloadConfig(num_tenants=50, seed=seed))
    return [generator.generate(created_time=i * 0.02) for i in range(count)]


# -- contexts and ids ----------------------------------------------------------


class TestTraceContext:
    def test_generator_is_deterministic(self):
        a = TraceIdGenerator(seed=7)
        b = TraceIdGenerator(seed=7)
        for op in ("write", "query", "write"):
            ca, cb = a.next_context(op), b.next_context(op)
            assert ca == cb
            assert len(ca.trace_id) == 32 and len(ca.span_id) == 16
            int(ca.trace_id, 16), int(ca.span_id, 16)  # valid hex
        assert a.issued == 3

    def test_different_seed_or_counter_changes_ids(self):
        gen = TraceIdGenerator(seed=7)
        first, second = gen.next_context("write"), gen.next_context("write")
        assert first.trace_id != second.trace_id
        assert TraceIdGenerator(seed=8).next_context("write") != first

    def test_traceparent_round_trip(self):
        ctx = TraceIdGenerator(seed=1).next_context("query")
        parsed = TraceContext.parse(ctx.traceparent())
        assert parsed == ctx
        ctx.sampled = False
        assert ctx.traceparent().endswith("-00")
        assert TraceContext.parse(ctx.traceparent()).sampled is False

    @pytest.mark.parametrize("header", [
        "",
        "00-abc",
        "ff-" + "0" * 32 + "-" + "1" * 16 + "-01",
        "00-" + "0" * 31 + "-" + "1" * 16 + "-01",
        "00-" + "g" * 32 + "-" + "1" * 16 + "-01",
    ])
    def test_malformed_traceparent_rejected(self, header):
        with pytest.raises(ConfigurationError):
            TraceContext.parse(header)

    def test_derive_span_id_is_pure(self):
        a = derive_span_id("ab" * 16, "cd" * 8, 0, "parse")
        assert a == derive_span_id("ab" * 16, "cd" * 8, 0, "parse")
        assert a != derive_span_id("ab" * 16, "cd" * 8, 1, "parse")
        assert len(a) == 16

    def test_assign_span_ids_matches_derive_formula(self):
        # The walk inlines the digest for speed; the formula is pinned here.
        root = Span("op")
        child = Span("stage")
        grand = Span("sub")
        root.children.append(child)
        child.children.append(grand)
        root.span_id = "ab" * 8
        trace_id = "cd" * 16
        _assign_span_ids(root, trace_id)
        assert root.trace_id == trace_id
        assert child.span_id == derive_span_id(trace_id, root.span_id, 0, "stage")
        assert grand.span_id == derive_span_id(trace_id, child.span_id, 0, "sub")


class TestSamplers:
    def test_always(self):
        sampler = AlwaysSampler()
        ctx = TraceIdGenerator().next_context()
        assert sampler.sample(ctx) and sampler.retain(ctx, Span("x"))

    def test_ratio_bounds_and_determinism(self):
        gen = TraceIdGenerator(seed=3)
        contexts = [gen.next_context("op") for _ in range(200)]
        kept = [c for c in contexts if RatioSampler(0.5).sample(c)]
        assert 0 < len(kept) < len(contexts)
        # Pure function of the id: a second sampler agrees exactly.
        assert [RatioSampler(0.5).sample(c) for c in contexts] == [
            RatioSampler(0.5).sample(c) for c in contexts
        ]
        assert all(RatioSampler(1.0).sample(c) for c in contexts)
        assert not any(RatioSampler(0.0).sample(c) for c in contexts)
        with pytest.raises(ConfigurationError):
            RatioSampler(1.5)

    def test_slow_tail_retention(self):
        sampler = SlowTailSampler(0.010)
        ctx = TraceIdGenerator().next_context()
        fast, slow = Span("fast"), Span("slow")
        fast.start, fast.end = 0.0, 0.001
        slow.start, slow.end = 0.0, 0.5
        assert sampler.sample(ctx)
        assert not sampler.retain(ctx, fast)
        assert sampler.retain(ctx, slow)

    def test_build_sampler_and_config_validation(self):
        assert build_sampler(TraceConfig()).name == "always"
        assert build_sampler(TraceConfig(sampler="ratio", ratio=0.25)).name == "ratio"
        assert build_sampler(TraceConfig(sampler="slow-tail")).name == "slow-tail"
        with pytest.raises(ConfigurationError):
            TraceConfig(sampler="coin-flip")
        with pytest.raises(ConfigurationError):
            TraceConfig(ratio=2.0)
        with pytest.raises(ConfigurationError):
            TraceConfig(events_capacity=0)
        assert TraceConfig.off().enabled is False


class TestTracerWithContexts:
    def test_traced_tree_gets_deterministic_ids(self):
        tracer = Tracer()
        ctx = TraceIdGenerator(seed=5).next_context("write")
        with tracer.trace("write", ctx, sampler=AlwaysSampler()):
            with tracer.span("route"):
                pass
            with tracer.span("engine.index"):
                pass
        root = tracer.last_trace()
        assert root.trace_id == ctx.trace_id
        assert root.span_id == ctx.span_id
        ids = [s.span_id for s in root.walk()]
        assert len(set(ids)) == len(ids)
        assert all(s.trace_id == ctx.trace_id for s in root.walk())

    def test_unsampled_trace_suppresses_children_and_is_dropped(self):
        tracer = Tracer()
        ctx = TraceIdGenerator(seed=5).next_context("write")
        with tracer.trace("write", ctx, sampler=RatioSampler(0.0)) as root:
            with tracer.span("route") as child:
                child.tags["safe"] = True  # detached span accepts tags
        assert not ctx.sampled
        assert root.children == []
        assert tracer.last_trace() is None

    def test_errored_root_is_retained_despite_sampler(self):
        tracer = Tracer()
        ctx = TraceIdGenerator(seed=5).next_context("write")
        with pytest.raises(ValueError):
            with tracer.trace("write", ctx, sampler=SlowTailSampler(10.0)):
                raise ValueError("boom")
        root = tracer.last_trace()
        assert root is not None
        assert root.tags["error"] is True
        assert root.tags["error_type"] == "ValueError"

    def test_trace_without_context_behaves_like_span(self):
        tracer = Tracer()
        with tracer.trace("op") as root:
            with tracer.span("stage"):
                pass
        assert root.trace_id is None
        assert all(s.span_id is None for s in root.walk())
        assert tracer.last_trace() is root

    def test_find_trace(self):
        tracer = Tracer()
        gen = TraceIdGenerator(seed=2)
        contexts = [gen.next_context("op") for _ in range(3)]
        for ctx in contexts:
            with tracer.trace("op", ctx, sampler=AlwaysSampler()):
                pass
        assert tracer.find_trace(contexts[1].trace_id).trace_id == contexts[1].trace_id
        assert tracer.find_trace("f" * 32) is None

    def test_span_links_serialize(self):
        span = Span("batch.scan")
        span.add_link("aa" * 16)
        span.add_link("bb" * 16)
        assert span.to_dict()["links"] == ["aa" * 16, "bb" * 16]
        assert "links" not in Span("plain").to_dict()


class TestActiveContext:
    def test_trace_activates_its_context_for_its_duration(self):
        tracer = Tracer()
        assert current_context() is None
        ctx = TraceIdGenerator().next_context()
        with tracer.trace("outer", ctx, sampler=AlwaysSampler()):
            assert current_context() is ctx
            inner = TraceIdGenerator(seed=9).next_context()
            with tracer.trace("inner", inner, sampler=AlwaysSampler()):
                assert current_context() is inner
            assert current_context() is ctx
        assert current_context() is None

    def test_trace_restores_the_outer_context_when_its_body_raises(self):
        tracer = Tracer()
        ctx = TraceIdGenerator().next_context()
        with pytest.raises(ValueError):
            with tracer.trace("failing", ctx, sampler=AlwaysSampler()):
                assert current_context() is ctx
                raise ValueError("boom")
        assert current_context() is None
        assert tracer.last_trace().trace_id == ctx.trace_id  # errored: retained

    def test_active_context_is_per_thread(self):
        tracer = Tracer()
        ctx = TraceIdGenerator().next_context()
        seen = []
        with tracer.trace("outer", ctx, sampler=AlwaysSampler()):
            thread = threading.Thread(target=lambda: seen.append(current_context()))
            thread.start()
            thread.join(timeout=30)
            assert current_context() is ctx
        assert seen == [None]

    def test_shard_subqueries_run_under_the_query_context(self, monkeypatch):
        from repro.query.executor import QueryExecutor

        db = make_db()
        db.bulk_write(zipf_docs(40, seed=5))
        db.refresh()
        seen = []
        execute = QueryExecutor.execute

        def recording_execute(executor, plan):
            seen.append(current_context())
            return execute(executor, plan)

        monkeypatch.setattr(QueryExecutor, "execute", recording_execute)
        db.execute_sql("SELECT * FROM transaction_logs WHERE quantity >= 3")
        root = db.telemetry.tracer.last_trace()
        assert root.name == "query" and root.trace_id is not None
        assert len(seen) == TOPOLOGY.num_shards
        assert {ctx.trace_id for ctx in seen} == {root.trace_id}
        assert current_context() is None


# -- the event log -------------------------------------------------------------


class TestEventLog:
    def test_emit_query_counts(self):
        log = EventLog(capacity=8)
        log.emit("throttle", 1.0, tenant="t1", detail_op="write")
        log.emit("shed", 2.0, tenant="t1")
        log.emit("throttle", 3.0, tenant="t2", trace_id="ab" * 16)
        assert len(log) == 3 and log.total == 3
        assert log.counts() == {"throttle": 2, "shed": 1}
        assert [e.tenant for e in log.query(kind="throttle")] == ["t1", "t2"]
        assert [e.seq for e in log.query(trace_id="ab" * 16)] == [2]
        assert [e.seq for e in log.query(limit=2)] == [1, 2]

    def test_ring_eviction_keeps_monotone_counts(self):
        log = EventLog(capacity=2)
        for i in range(5):
            log.emit("promotion", float(i), shard=i)
        assert len(log) == 2 and log.total == 5
        assert log.counts() == {"promotion": 5}
        assert [e.shard for e in log.tail(10)] == [3, 4]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            EventLog().emit("surprise", 0.0)
        with pytest.raises(ConfigurationError):
            EventLog(capacity=0)

    def test_describe_and_to_dict(self):
        event = EventLog().emit(
            "slow_query", 1.5, tenant="t", trace_id="cd" * 16, elapsed=0.25
        )
        text = event.describe()
        assert "slow_query" in text and "tenant=t" in text
        assert f"trace={'cd' * 16}" in text and "elapsed=0.25" in text
        as_dict = event.to_dict()
        assert as_dict["kind"] == "slow_query"
        assert as_dict["detail"] == {"elapsed": 0.25}
        json.dumps(as_dict)  # JSON-ready

    def test_event_kinds_closed_set(self):
        for kind in EVENT_KINDS:
            EventLog().emit(kind, 0.0)


# -- exemplars -----------------------------------------------------------------


def _histogram_entry(snapshot: dict, name: str) -> dict:
    return next(e for e in snapshot["histograms"] if e["name"] == name)


class TestExemplars:
    def test_histogram_observe_stores_latest_exemplar_per_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("esdb_write_seconds")
        hist.observe(0.002, trace_id="aa" * 16)
        hist.observe(0.0021, trace_id="bb" * 16)  # same bucket: replaces
        hist.observe(0.5)  # untraced: no exemplar
        snapshot = registry.snapshot()
        entry = _histogram_entry(snapshot, "esdb_write_seconds")
        exemplars = entry["exemplars"]
        assert len(exemplars) == 1
        _, value, trace_id = exemplars[0]
        assert value == 0.0021 and trace_id == "bb" * 16

    def test_snapshot_omits_key_when_untraced_and_round_trips_json(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(0.1)
        snapshot = registry.snapshot()
        assert "exemplars" not in _histogram_entry(snapshot, "h")
        registry.histogram("h").observe(0.1, trace_id="ee" * 16)
        again = json.loads(json.dumps(registry.snapshot()))
        assert _histogram_entry(again, "h")["exemplars"][0][2] == "ee" * 16

    def test_prometheus_export_carries_openmetrics_exemplars(self):
        registry = MetricsRegistry()
        registry.histogram("esdb_write_seconds").observe(0.002, trace_id="ab" * 16)
        text = to_prometheus(registry)
        exemplar_lines = [line for line in text.splitlines() if "# {" in line]
        assert exemplar_lines, text
        assert f'# {{trace_id="{"ab" * 16}"}} 0.002' in exemplar_lines[0]
        # And the parser still round-trips the sample values despite the
        # exemplar suffix on bucket lines.
        parsed = parse_prometheus(text)
        bucket_samples = {
            labels: value
            for (name, labels), value in parsed.items()
            if name == "esdb_write_seconds_bucket"
        }
        assert bucket_samples
        assert all(value == int(value) for value in bucket_samples.values())


# -- facade wiring -------------------------------------------------------------


class TestEsdbTracing:
    def test_write_and_query_allocate_deterministic_traces(self):
        ids = []
        for _ in range(2):
            db = make_db()
            for doc in zipf_docs(10, seed=31):
                db.write(doc)
            db.refresh()
            db.execute_sql("SELECT COUNT(*) FROM transaction_logs")
            ids.append(
                [s.trace_id for s in db.telemetry.tracer.recent_traces()]
            )
        assert ids[0] == ids[1]
        assert any(t is not None for t in ids[0])

    def test_trace_lookup_by_id(self):
        db = make_db()
        db.write(zipf_docs(1, seed=1)[0])
        root = db.telemetry.tracer.last_trace()
        assert root.trace_id is not None
        found = db.trace(root.trace_id)
        assert found is root
        assert db.trace("0" * 32) is None

    def test_tracing_off_restores_pre_trace_spans(self):
        db = make_db(tracing=TraceConfig.off())
        db.write(zipf_docs(1, seed=1)[0])
        root = db.telemetry.tracer.last_trace()
        assert root.trace_id is None
        assert all(s.span_id is None for s in root.walk())
        assert db.trace_ids is None and db.trace_sampler is None

    def test_slowlog_entries_carry_trace_ids(self):
        from repro.obsv import ObsvConfig

        db = make_db(
            obsv=ObsvConfig(index_info_seconds=0.0, search_info_seconds=0.0)
        )
        db.write(zipf_docs(1, seed=1)[0])
        db.refresh()
        db.execute_sql("SELECT COUNT(*) FROM transaction_logs")
        index_tail = db.obsv.index_slowlog.tail(1)
        search_tail = db.obsv.search_slowlog.tail(1)
        assert index_tail and index_tail[0].trace_id is not None
        assert search_tail and search_tail[0].trace_id is not None
        assert f"trace={search_tail[0].trace_id}" in search_tail[0].describe()
        assert search_tail[0].to_dict()["trace_id"] == search_tail[0].trace_id

    def test_explain_analyze_surfaces_trace_id(self):
        db = make_db()
        db.write(zipf_docs(1, seed=1)[0])
        db.refresh()
        root = db.explain_analyze("SELECT COUNT(*) FROM transaction_logs")
        assert root.trace_id is not None
        assert root.tags["trace_id"] == root.trace_id
        assert f"trace_id={root.trace_id}" in root.render()

    def test_throttle_and_shed_events_emitted(self):
        from repro.errors import TenantThrottledError
        from repro.tenancy import TenancyConfig

        db = make_db(
            tenancy=TenancyConfig(
                enabled=True, write_rate=0.1, write_burst=1.0, queue_capacity=1
            )
        )
        doc = zipf_docs(1, seed=1)[0]
        doc["tenant_id"] = "flooder"
        rejected = 0
        for _ in range(6):
            try:
                db.write(dict(doc))
            except TenantThrottledError:
                rejected += 1
        assert rejected
        kinds = set(db.events.counts())
        assert kinds & {"throttle", "shed"}
        event = db.events.tail(1)[0]
        assert event.tenant == "flooder"
        assert event.trace_id is not None

    def test_fault_events_emitted(self):
        db = ESDB(
            EsdbConfig(
                topology=ClusterTopology(
                    num_nodes=3, num_shards=4, replicas_per_shard=1
                ),
                consensus_interval=1.0,
            )
        )
        db.inject_fault("crash_node", 1)
        db.recover("crash_node", 1)
        counts = db.events.counts()
        assert counts.get("fault_inject") == 1
        assert counts.get("fault_recover") == 1
        inject = db.events.query(kind="fault_inject")[0]
        assert inject.detail["fault"] == "crash_node"

    def test_promotion_event_on_failover(self):
        db = ESDB(
            EsdbConfig(
                topology=ClusterTopology(
                    num_nodes=3, num_shards=4, replicas_per_shard=1
                ),
                replication="physical",
                consensus_interval=1.0,
            )
        )
        for doc in zipf_docs(8, seed=2):
            db.write(doc)
        db.replicate()
        db.fail_primary(0)
        promotions = db.events.query(kind="promotion")
        assert promotions and promotions[0].shard == 0

    def test_execute_batch_scan_links_member_traces(self):
        db = make_db()
        db.bulk_write(zipf_docs(80, seed=6))
        db.refresh()
        batch = [
            "SELECT * FROM transaction_logs WHERE quantity >= 3",
            "SELECT * FROM transaction_logs WHERE quantity >= 4",
        ]
        db.execute_batch(batch)
        scans = [
            span
            for span in db.telemetry.tracer.recent_traces()
            if span.name.startswith("batch.scan[")
        ]
        assert scans
        assert len(scans[-1].links) == len(batch)
        assert all(len(link) == 32 for link in scans[-1].links)

    def test_write_exemplar_lands_in_histogram(self):
        db = make_db()
        db.write(zipf_docs(1, seed=1)[0])
        snapshot = db.telemetry.metrics.snapshot()
        entry = _histogram_entry(snapshot, "esdb_write_seconds")
        assert entry["exemplars"]
        assert len(entry["exemplars"][0][2]) == 32

    def test_cat_events_table(self):
        db = ESDB(
            EsdbConfig(
                topology=ClusterTopology(
                    num_nodes=3, num_shards=4, replicas_per_shard=1
                ),
                consensus_interval=1.0,
            )
        )
        db.inject_fault("crash_node", 1)
        db.recover("crash_node", 1)
        table = cat_events(db)
        assert table.columns == (
            "at", "kind", "tenant", "trace_id", "shard", "detail"
        )
        assert len(table) == 2
        filtered = cat_events(db, kind="fault_inject")
        assert len(filtered) == 1
        assert "fault=crash_node" in filtered.rows[0][-1]
        rendered = table.render()
        assert "fault_inject" in rendered and "fault_recover" in rendered


# -- diagnostics bundle --------------------------------------------------------


class TestDiagnosticsBundle:
    def _populated_db(self):
        from repro.obsv import ObsvConfig

        db = make_db(
            obsv=ObsvConfig(index_info_seconds=0.0, search_info_seconds=0.0)
        )
        for doc in zipf_docs(20, seed=8):
            db.write(doc)
        db.refresh()
        db.execute_sql("SELECT COUNT(*) FROM transaction_logs")
        return db

    def test_bundle_is_valid_and_json_serializable(self):
        from repro.obsv import validate_bundle

        db = self._populated_db()
        bundle = db.diagnostics_bundle()
        assert validate_bundle(bundle) == []
        again = json.loads(json.dumps(bundle))
        assert again["kind"] == "esdb-diagnostics"
        assert again["tracing"]["enabled"] is True
        assert again["tracing"]["traces_started"] > 0
        assert again["traces"]
        assert any("trace_id" in trace for trace in again["traces"])

    def test_validate_bundle_catches_problems(self):
        from repro.obsv import BUNDLE_SCHEMA_VERSION, validate_bundle

        assert validate_bundle("nope")
        assert any(
            "missing required key" in problem for problem in validate_bundle({})
        )
        db = self._populated_db()
        bundle = db.diagnostics_bundle()
        bundle["schema_version"] = BUNDLE_SCHEMA_VERSION + 1
        assert any("schema_version" in p for p in validate_bundle(bundle))
        bundle["schema_version"] = BUNDLE_SCHEMA_VERSION
        bundle["events"]["counts"]["martian"] = 1
        assert any("martian" in p for p in validate_bundle(bundle))

    def test_cluster_snapshot_has_events_section(self):
        from repro.obsv import cluster_snapshot

        db = self._populated_db()
        snapshot = cluster_snapshot(db)
        assert set(snapshot["events"]) == {"counts", "total", "recent"}

    def test_cli_writes_validated_bundle(self, tmp_path, capsys):
        from repro.obsv.__main__ import main

        out = tmp_path / "bundle.json"
        assert main([
            "--bundle", str(out), "--writes", "120", "--governed", "--chaos",
        ]) == 0
        bundle = json.loads(out.read_text())
        from repro.obsv import validate_bundle

        assert validate_bundle(bundle) == []
        counts = bundle["events"]["counts"]
        assert counts.get("fault_inject", 0) >= 1
        assert counts.get("fault_recover", 0) >= 1
        assert "wrote diagnostics bundle" in capsys.readouterr().out

    def test_cli_events_listing(self, capsys):
        from repro.obsv.__main__ import main

        assert main(["--events", "--writes", "80"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == [
            "at", "kind", "tenant", "trace_id", "shard", "detail",
        ]
