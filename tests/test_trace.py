"""Tests for workload trace persistence and replay."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import ESDB, EsdbConfig
from repro.cluster import ClusterTopology
from repro.errors import ConfigurationError
from repro.exec.bulk import BulkItemResult, BulkResult
from repro.workload import WorkloadConfig
from repro.workload.arrivals import BurstyProcess, TenantChurn, arrival_from_json
from repro.workload.trace import (
    load_into,
    read_trace,
    read_trace_events,
    replay_trace,
    scenario_from_trace,
    trace_churn,
    write_trace,
)


@pytest.fixture()
def trace_path(tmp_path):
    return tmp_path / "trace.jsonl"


class TestWriteRead:
    def test_roundtrip_header(self, trace_path):
        info = write_trace(
            trace_path,
            rate=100,
            duration=1.0,
            workload=WorkloadConfig(num_tenants=500, theta=1.5, seed=9),
        )
        loaded, _ = read_trace(trace_path)
        assert loaded == info
        assert loaded.theta == 1.5

    def test_document_count_matches_rate_times_duration(self, trace_path):
        write_trace(trace_path, rate=50, duration=2.0)
        _, docs = read_trace(trace_path)
        assert sum(1 for _ in docs) == 100

    def test_documents_have_template_columns(self, trace_path):
        write_trace(trace_path, rate=10, duration=1.0)
        _, docs = read_trace(trace_path)
        doc = next(docs)
        assert {"transaction_id", "tenant_id", "created_time", "attributes"} <= set(doc)

    def test_deterministic_bytes(self, trace_path, tmp_path):
        other = tmp_path / "other.jsonl"
        config = WorkloadConfig(num_tenants=100, theta=1.0, seed=4)
        write_trace(trace_path, rate=20, duration=1.0, workload=config)
        write_trace(other, rate=20, duration=1.0, workload=config)
        assert trace_path.read_bytes() == other.read_bytes()

    def test_empty_file_rejected(self, trace_path):
        trace_path.write_text("")
        with pytest.raises(ConfigurationError):
            read_trace(trace_path)

    def test_missing_header_rejected(self, trace_path):
        trace_path.write_text('{"transaction_id": 1}\n')
        with pytest.raises(ConfigurationError):
            read_trace(trace_path)

    def test_bad_version_rejected(self, trace_path):
        header = {"type": "header", "version": 99, "num_tenants": 1,
                  "theta": 1.0, "seed": 0, "rate": 1.0, "duration": 1.0}
        trace_path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ConfigurationError):
            read_trace(trace_path)

    def test_corrupt_body_line_raises_with_line_number(self, trace_path):
        write_trace(trace_path, rate=5, duration=1.0)
        lines = trace_path.read_text().splitlines()
        lines[2] = "{not json"
        trace_path.write_text("\n".join(lines) + "\n")
        _, docs = read_trace(trace_path)
        with pytest.raises(ConfigurationError, match="line 3"):
            list(docs)

    def test_blank_lines_skipped(self, trace_path):
        write_trace(trace_path, rate=5, duration=1.0)
        trace_path.write_text(trace_path.read_text() + "\n\n")
        _, docs = read_trace(trace_path)
        assert sum(1 for _ in docs) == 5


class TestHandleLeak:
    def test_rejected_header_closes_handle(self, trace_path, monkeypatch):
        # Regression: a header that parses as JSON but is rejected by
        # TraceInfo.from_json used to leak the open file handle.
        header = {"type": "header", "version": 99, "num_tenants": 1,
                  "theta": 1.0, "seed": 0, "rate": 1.0, "duration": 1.0}
        trace_path.write_text(json.dumps(header) + "\n")
        handles = []
        real_open = Path.open

        def spying_open(self, *args, **kwargs):
            handle = real_open(self, *args, **kwargs)
            handles.append(handle)
            return handle

        monkeypatch.setattr(Path, "open", spying_open)
        with pytest.raises(ConfigurationError):
            read_trace(trace_path)
        assert handles and all(h.closed for h in handles)

    def test_non_json_header_closes_handle(self, trace_path, monkeypatch):
        trace_path.write_text("{not json\n")
        handles = []
        real_open = Path.open

        def spying_open(self, *args, **kwargs):
            handle = real_open(self, *args, **kwargs)
            handles.append(handle)
            return handle

        monkeypatch.setattr(Path, "open", spying_open)
        with pytest.raises(ConfigurationError):
            read_trace_events(trace_path)
        assert handles and all(h.closed for h in handles)

    def test_exhausted_body_closes_handle(self, trace_path, monkeypatch):
        write_trace(trace_path, rate=5, duration=1.0)
        handles = []
        real_open = Path.open

        def spying_open(self, *args, **kwargs):
            handle = real_open(self, *args, **kwargs)
            handles.append(handle)
            return handle

        monkeypatch.setattr(Path, "open", spying_open)
        _, docs = read_trace(trace_path)
        list(docs)
        assert handles and all(h.closed for h in handles)


class TestTraceV2:
    def _bursty(self, seed: int = 3) -> BurstyProcess:
        return BurstyProcess(
            on_rate=80.0, duration=4.0, off_rate=4.0,
            mean_on_seconds=1.0, mean_off_seconds=1.0, seed=seed,
        )

    def test_v1_header_shape_unchanged(self, trace_path):
        # Byte-compat guarantee: the v1 header must keep its exact historical
        # key set so older readers keep working.
        write_trace(trace_path, rate=10, duration=1.0)
        header = json.loads(trace_path.read_text().splitlines()[0])
        assert header == {
            "type": "header", "version": 1,
            "num_tenants": WorkloadConfig().num_tenants,
            "theta": WorkloadConfig().theta, "seed": WorkloadConfig().seed,
            "rate": 10, "duration": 1.0,
        }

    def test_v2_roundtrip_header(self, trace_path):
        churn = TenantChurn(duration=4.0, spawn_rate=0.5,
                            mean_lifetime_seconds=1.0, seed=1)
        info = write_trace(
            trace_path,
            workload=WorkloadConfig(num_tenants=200, theta=1.2, seed=7),
            arrival=self._bursty(),
            churn=churn,
        )
        loaded, docs = read_trace(trace_path)
        assert loaded == info
        assert loaded.version == 2
        assert loaded.count == sum(1 for _ in docs)
        assert loaded.arrival["kind"] == "bursty"
        assert loaded.churn is not None
        # The header rebuilds both the process and the churn schedule.
        assert list(arrival_from_json(loaded.arrival).times()) == list(self._bursty().times())
        assert trace_churn(loaded).events == churn.events

    def test_v2_events_carry_arrival_timestamps(self, trace_path):
        write_trace(trace_path, arrival=self._bursty())
        expected = list(self._bursty().times())
        _, events = read_trace_events(trace_path)
        pairs = list(events)
        assert [t for t, _ in pairs] == expected
        assert all(doc["created_time"] == t for t, doc in pairs)

    def test_v1_events_report_created_time(self, trace_path):
        write_trace(trace_path, rate=10, duration=1.0)
        _, events = read_trace_events(trace_path)
        times = [t for t, _ in events]
        assert times[0] == 0.0
        assert times == sorted(times)

    def test_v2_deterministic_bytes(self, trace_path, tmp_path):
        other = tmp_path / "other.jsonl"
        churn = TenantChurn(duration=4.0, spawn_rate=0.5, seed=2)
        write_trace(trace_path, arrival=self._bursty(), churn=churn)
        # Reusing the same (stateful) churn object must not change the bytes.
        write_trace(other, arrival=self._bursty(), churn=churn)
        assert trace_path.read_bytes() == other.read_bytes()

    def test_malformed_v2_envelope_reports_line_number(self, trace_path):
        write_trace(trace_path, arrival=self._bursty())
        lines = trace_path.read_text().splitlines()
        lines[3] = json.dumps({"transaction_id": 1})  # v1-style bare doc
        trace_path.write_text("\n".join(lines) + "\n")
        _, docs = read_trace(trace_path)
        with pytest.raises(ConfigurationError, match="line 4"):
            list(docs)

    def test_churn_without_arrival_rejected(self, trace_path):
        with pytest.raises(ConfigurationError):
            write_trace(
                trace_path, rate=10, duration=1.0,
                churn=TenantChurn(duration=1.0),
            )

    def test_churn_duration_mismatch_rejected(self, trace_path):
        with pytest.raises(ConfigurationError):
            write_trace(
                trace_path,
                arrival=self._bursty(),
                churn=TenantChurn(duration=99.0),
            )

    def test_scenario_from_trace_matches_recorded_stream(self, trace_path):
        info = write_trace(trace_path, arrival=self._bursty())
        scenario = scenario_from_trace(trace_path, tick_seconds=0.5)
        ticks = list(scenario.ticks())
        assert sum(t.rate for t in ticks) * 0.5 == pytest.approx(info.count)
        assert scenario.stats.count == info.count


class _FlakyBulkDb:
    """A stand-in database whose bulk_write fails at chosen absolute
    positions — exercises load_into's error accounting across batches."""

    def __init__(self, fail_at=()):
        self.fail_at = set(fail_at)
        self.total = 0
        self.applied = 0
        self.refreshed = 0

    def bulk_write(self, docs, stop_on_error=True):
        items = []
        for i, _doc in enumerate(docs):
            if self.total + i in self.fail_at:
                items.append(BulkItemResult(
                    position=i, ok=False,
                    error=ValueError(f"boom at {self.total + i}"),
                ))
            else:
                self.applied += 1
                items.append(BulkItemResult(position=i, ok=True))
        self.total += len(items)
        return BulkResult(items=items)

    def refresh(self):
        self.refreshed += 1


class _WriteOnlyDb:
    """No bulk path: load_into must fall back to per-document writes."""

    def __init__(self, fail_at=()):
        self.fail_at = set(fail_at)
        self.written = 0
        self.position = 0

    def write(self, doc):
        position, self.position = self.position, self.position + 1
        if position in self.fail_at:
            raise ValueError(f"boom at {position}")
        self.written += 1

    def refresh(self):
        pass


class TestLoadIntoBulk:
    def test_count_is_applied_not_submitted(self):
        db = _FlakyBulkDb(fail_at={2, 5})
        errors = []
        applied = load_into(
            db, [{} for _ in range(10)], batch_size=3,
            stop_on_error=False, errors=errors,
        )
        assert applied == 8 == db.applied
        assert [position for position, _ in errors] == [2, 5]
        assert all(isinstance(exc, ValueError) for _, exc in errors)
        assert "boom at 5" in str(errors[1][1])

    def test_stop_on_error_raises_first_failure(self):
        db = _FlakyBulkDb(fail_at={4})
        with pytest.raises(ValueError, match="boom at 4"):
            load_into(db, [{} for _ in range(10)], batch_size=3)
        # The failing batch completed, later batches never started.
        assert db.total == 6

    def test_fallback_per_doc_write(self):
        db = _WriteOnlyDb()
        assert load_into(db, [{} for _ in range(7)], batch_size=3) == 7
        assert db.written == 7

    def test_fallback_surfaces_errors_too(self):
        db = _WriteOnlyDb(fail_at={1})
        errors = []
        applied = load_into(
            db, [{} for _ in range(5)], stop_on_error=False, errors=errors
        )
        assert applied == 4
        assert [position for position, _ in errors] == [1]

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            load_into(_FlakyBulkDb(), [], batch_size=0)


class TestOneTraceDrivesAll:
    """Acceptance: one recorded bursty trace drives the simulator, the
    database replay path, and the chaos runner from the same file."""

    @pytest.fixture()
    def recorded(self, trace_path):
        info = write_trace(
            trace_path,
            workload=WorkloadConfig(num_tenants=100, theta=1.0, seed=5),
            arrival=BurstyProcess(
                on_rate=120.0, duration=4.0, off_rate=10.0,
                mean_on_seconds=1.0, mean_off_seconds=1.0, seed=5,
            ),
            churn=TenantChurn(duration=4.0, spawn_rate=0.6,
                              mean_lifetime_seconds=1.5, seed=5),
        )
        return info, trace_path

    def test_simulator_consumes_trace(self, recorded):
        from repro.routing import HashRouting
        from repro.sim import SimulationConfig, WriteSimulation

        info, path = recorded
        sim = WriteSimulation(
            HashRouting(8),
            scenario_from_trace(path),
            config=SimulationConfig(num_shards=8, sample_per_tick=50),
            workload=WorkloadConfig(num_tenants=100, theta=1.0, seed=5),
        )
        report = sim.run()
        assert report.throughput > 0
        assert sim.arrival_stats is not None
        assert sim.arrival_stats.count == info.count

    def test_replay_into_database(self, recorded):
        info, path = recorded
        db = ESDB(
            EsdbConfig(topology=ClusterTopology(num_nodes=2, num_shards=8))
        )
        stats = replay_trace(db, path)
        assert db.doc_count() == info.count == stats.count
        assert db.arrivals is stats
        assert stats.realized_rate > 0
        # The recorded churn schedule rides the replay: two flash tenants
        # overlap at its peak.
        assert stats.peak_live_tenants == 2
        # Replay republishes the recorded stream's realized statistics.
        assert db.telemetry.metrics.gauge("workload_realized_rate").value == (
            pytest.approx(stats.realized_rate)
        )

    def test_chaos_runner_consumes_trace_deterministically(self, recorded):
        from repro.faults import ChaosConfig, ChaosRunner, FaultPlan

        info, path = recorded
        fingerprints = []
        for _ in range(2):
            config = ChaosConfig(trace_path=str(path))
            report = ChaosRunner(FaultPlan(seed=1), config).run()
            assert report.steps == info.count
            fingerprints.append(report.fingerprint())
        assert fingerprints[0] == fingerprints[1]


class TestReplay:
    def test_load_into_database(self, trace_path):
        write_trace(
            trace_path,
            rate=100,
            duration=1.0,
            workload=WorkloadConfig(num_tenants=50, theta=1.0, seed=2),
        )
        db = ESDB(
            EsdbConfig(topology=ClusterTopology(num_nodes=2, num_shards=8))
        )
        _, docs = read_trace(trace_path)
        count = load_into(db, docs)
        assert count == 100
        assert db.doc_count() == 100

    def test_two_instances_get_identical_workloads(self, trace_path):
        """The point of traces: byte-identical input for compared systems."""
        write_trace(
            trace_path,
            rate=60,
            duration=1.0,
            workload=WorkloadConfig(num_tenants=20, theta=1.0, seed=6),
        )
        results = []
        for _ in range(2):
            db = ESDB(
                EsdbConfig(topology=ClusterTopology(num_nodes=2, num_shards=8))
            )
            _, docs = read_trace(trace_path)
            load_into(db, docs)
            result = db.execute_sql("SELECT COUNT(*) FROM t WHERE tenant_id = 1")
            results.append(result.scalar())
        assert results[0] == results[1]


class TestCli:
    def test_cli_writes_trace(self, trace_path, capsys):
        from repro.workload.trace import _main

        code = _main(
            [
                "--out",
                str(trace_path),
                "--rate",
                "10",
                "--duration",
                "1",
                "--tenants",
                "50",
            ]
        )
        assert code == 0
        assert "wrote 10 docs" in capsys.readouterr().out
        info, docs = read_trace(trace_path)
        assert info.num_tenants == 50
        assert sum(1 for _ in docs) == 10

    def test_cli_writes_v2_trace_with_churn(self, trace_path, capsys):
        from repro.workload.trace import _main

        code = _main([
            "--out", str(trace_path), "--rate", "40", "--duration", "2",
            "--tenants", "50", "--arrival", "bursty", "--churn",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "arrival=bursty" in out and "churn" in out
        info, docs = read_trace(trace_path)
        assert info.version == 2
        assert info.count == sum(1 for _ in docs)
        assert info.churn is not None

    def test_cli_churn_without_arrival_is_config_error(self, trace_path, capsys):
        from repro.workload.trace import _main

        code = _main(["--out", str(trace_path), "--churn"])
        assert code == 2
        assert "error:" in capsys.readouterr().out
        assert not trace_path.exists()
