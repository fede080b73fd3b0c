"""Tests for workload trace persistence and replay."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import ESDB, EsdbConfig
from repro.cluster import ClusterTopology
from repro.errors import ConfigurationError
from repro.workload import WorkloadConfig
from repro.workload.arrivals import BurstyProcess, PoissonProcess, TenantChurn
from repro.workload.trace import read_trace_events, write_trace


@pytest.fixture()
def trace_path(tmp_path):
    return tmp_path / "trace.jsonl"


def read_documents(path):
    """``(header, documents)``: the trace's arrival envelope stripped."""
    info, events = read_trace_events(path)
    return info, (doc for _, doc in events)


class TestWriteRead:
    def test_roundtrip_header(self, trace_path):
        info = write_trace(
            trace_path,
            rate=100,
            duration=1.0,
            workload=WorkloadConfig(num_tenants=500, theta=1.5, seed=9),
        )
        loaded, _ = read_documents(trace_path)
        assert loaded == info
        assert loaded.theta == 1.5

    def test_document_count_matches_rate_times_duration(self, trace_path):
        write_trace(trace_path, rate=50, duration=2.0)
        _, docs = read_documents(trace_path)
        assert sum(1 for _ in docs) == 100

    def test_documents_have_template_columns(self, trace_path):
        write_trace(trace_path, rate=10, duration=1.0)
        _, docs = read_documents(trace_path)
        doc = next(docs)
        assert {"transaction_id", "tenant_id", "created_time", "attributes"} <= set(doc)

    def test_deterministic_bytes(self, trace_path, tmp_path):
        other = tmp_path / "other.jsonl"
        config = WorkloadConfig(num_tenants=100, theta=1.0, seed=4)
        write_trace(trace_path, rate=20, duration=1.0, workload=config)
        write_trace(other, rate=20, duration=1.0, workload=config)
        assert trace_path.read_bytes() == other.read_bytes()

    def test_v1_requires_rate_and_duration(self, trace_path):
        for kwargs in ({"rate": 10}, {"duration": 1.0}, {}):
            with pytest.raises(ConfigurationError):
                write_trace(trace_path, **kwargs)
        assert not trace_path.exists()

    def test_v1_body_record_must_be_a_document(self, trace_path):
        write_trace(trace_path, rate=5, duration=1.0)
        lines = trace_path.read_text().splitlines()
        lines[1] = "[1, 2]"
        trace_path.write_text("\n".join(lines) + "\n")
        _, docs = read_documents(trace_path)
        with pytest.raises(ConfigurationError, match="line 2 is not a document"):
            list(docs)

    def test_empty_file_rejected(self, trace_path):
        trace_path.write_text("")
        with pytest.raises(ConfigurationError):
            read_documents(trace_path)

    def test_missing_header_rejected(self, trace_path):
        trace_path.write_text('{"transaction_id": 1}\n')
        with pytest.raises(ConfigurationError):
            read_documents(trace_path)

    def test_bad_version_rejected(self, trace_path):
        header = {"type": "header", "version": 99, "num_tenants": 1,
                  "theta": 1.0, "seed": 0, "rate": 1.0, "duration": 1.0}
        trace_path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ConfigurationError):
            read_documents(trace_path)

    def test_corrupt_body_line_raises_with_line_number(self, trace_path):
        write_trace(trace_path, rate=5, duration=1.0)
        lines = trace_path.read_text().splitlines()
        lines[2] = "{not json"
        trace_path.write_text("\n".join(lines) + "\n")
        _, docs = read_documents(trace_path)
        with pytest.raises(ConfigurationError, match="line 3"):
            list(docs)

    def test_blank_lines_skipped(self, trace_path):
        write_trace(trace_path, rate=5, duration=1.0)
        trace_path.write_text(trace_path.read_text() + "\n\n")
        _, docs = read_documents(trace_path)
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
            read_documents(trace_path)
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
        _, docs = read_documents(trace_path)
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
        loaded, docs = read_documents(trace_path)
        assert loaded == info
        assert loaded.version == 2
        assert loaded.count == sum(1 for _ in docs)
        assert loaded.arrival["kind"] == "bursty"
        assert loaded.churn is not None
        # The header rebuilds both the process and the churn schedule.
        params = {key: value for key, value in loaded.arrival.items() if key != "kind"}
        assert list(BurstyProcess(**params).times()) == list(self._bursty().times())
        assert TenantChurn(**loaded.churn).events == churn.events

    def test_v2_header_rate_is_the_realized_rate(self, trace_path):
        """A v2 header's ``rate`` is the recorded stream's, not a target:
        its count over the process's duration."""
        info = write_trace(trace_path, rate=999.0, duration=99.0, arrival=self._bursty())
        count = sum(1 for _ in self._bursty().times())
        assert (info.count, info.duration) == (count, 4.0)
        assert info.rate == count / 4.0

    def test_poisson_header_rebuilds_its_stream(self, trace_path):
        process = PoissonProcess(60.0, duration=3.0, seed=4)
        info = write_trace(trace_path, arrival=process)
        header = json.loads(trace_path.read_text().splitlines()[0])
        assert header["arrival"] == info.arrival == process.describe()
        _, events = read_trace_events(trace_path)
        rebuilt = PoissonProcess(
            header["arrival"]["curve"]["rate"],
            duration=header["arrival"]["duration"],
            seed=header["arrival"]["seed"],
        )
        assert [t for t, _ in events] == list(rebuilt.times())

    def test_v2_without_churn_has_no_churn_key_and_no_flash_tenants(self, trace_path):
        write_trace(trace_path, arrival=self._bursty())
        header = json.loads(trace_path.read_text().splitlines()[0])
        assert "churn" not in header
        info, docs = read_documents(trace_path)
        assert info.churn is None
        assert not any(str(doc["tenant_id"]).startswith("flash-") for doc in docs)

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
        _, docs = read_documents(trace_path)
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

    def test_churn_puts_flash_tenants_into_the_documents(self, trace_path):
        """A flash tenant takes its hot rank's documents while it lives: the
        body names flash tenants, and none before the first spawn."""
        churn = TenantChurn(duration=4.0, spawn_rate=0.5,
                            mean_lifetime_seconds=1.0, hot_rank_span=3, seed=1)
        assert churn.events, "seed must schedule at least one flash tenant"
        write_trace(
            trace_path,
            workload=WorkloadConfig(num_tenants=50, theta=1.0, seed=0),
            arrival=self._bursty(),
            churn=churn,
        )
        _, events = read_trace_events(trace_path)
        flash = [
            (t, doc["tenant_id"]) for t, doc in events
            if str(doc["tenant_id"]).startswith("flash-")
        ]
        spawned = {e.tenant for e in churn.events if e.kind == "spawn"}
        assert flash and {tenant for _, tenant in flash} <= spawned
        assert min(t for t, _ in flash) >= churn.events[0].time


class TestChaosReplay:
    """One recorded bursty+churn trace drives the chaos runner, which is
    what CI's workload-realism step runs."""

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
        _, docs = read_documents(trace_path)
        result = db.bulk_write(list(docs))
        db.refresh()
        assert result.applied == 100
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
            _, docs = read_documents(trace_path)
            db.bulk_write(list(docs))
            db.refresh()
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
        info, docs = read_documents(trace_path)
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
        info, docs = read_documents(trace_path)
        assert info.version == 2
        assert info.count == sum(1 for _ in docs)
        assert info.churn is not None

    def test_cli_churn_without_arrival_is_config_error(self, trace_path, capsys):
        from repro.workload.trace import _main

        code = _main(["--out", str(trace_path), "--churn"])
        assert code == 2
        assert "error:" in capsys.readouterr().out
        assert not trace_path.exists()

    @pytest.mark.parametrize("arrival", ["diurnal", "spike"])
    def test_cli_offers_only_none_poisson_and_bursty(self, arrival, trace_path, capsys):
        from repro.workload.trace import _main

        with pytest.raises(SystemExit) as exit_info:
            _main(["--out", str(trace_path), "--arrival", arrival])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not trace_path.exists()

    def test_cli_poisson_trace_is_the_library_trace(self, trace_path, tmp_path, capsys):
        from repro.workload.trace import _main

        code = _main(["--out", str(trace_path), "--arrival", "poisson", "--rate", "30",
                      "--duration", "2", "--tenants", "40", "--seed", "3"])
        assert code == 0
        other = tmp_path / "library.jsonl"
        write_trace(other, workload=WorkloadConfig(num_tenants=40, theta=1.0, seed=3),
                    arrival=PoissonProcess(30.0, duration=2.0, seed=3))
        assert trace_path.read_bytes() == other.read_bytes()

    def test_cli_bursty_header_records_its_flags(self, trace_path, capsys):
        """The bursty off state trickles at 5 % of ``--rate``; the dwell and
        churn flags land in the header's records."""
        from repro.workload.trace import _main

        code = _main(["--out", str(trace_path), "--arrival", "bursty", "--rate", "40",
                      "--duration", "3", "--tenants", "50", "--seed", "2",
                      "--mean-on", "0.5", "--mean-off", "1.5", "--churn",
                      "--churn-rate", "0.7", "--churn-lifetime", "2.5"])
        assert code == 0
        info, _ = read_trace_events(trace_path)
        assert info.arrival == {
            "kind": "bursty", "duration": 3.0, "seed": 2, "on_rate": 40.0,
            "off_rate": 2.0, "mean_on_seconds": 0.5, "mean_off_seconds": 1.5,
        }
        assert info.churn == {
            "duration": 3.0, "spawn_rate": 0.7, "mean_lifetime_seconds": 2.5,
            "hot_rank_span": 10, "seed": 2,
        }

    def test_cli_runs_as_a_module_without_warnings(self, trace_path):
        """``python -m repro.workload.trace`` imports the module once: the
        package does not import it first, so runpy prints no warning."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        done = subprocess.run(
            [sys.executable, "-m", "repro.workload.trace", "--out", str(trace_path),
             "--arrival", "bursty", "--rate", "40", "--duration", "2",
             "--tenants", "50", "--churn"],
            capture_output=True, text=True, env=env, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert "arrival=bursty, churn" in done.stdout
