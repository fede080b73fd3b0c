"""Tests for the self-check doctor command."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

from repro.selfcheck import CHECKS, main


class TestSelfCheck:
    def test_all_checks_registered(self):
        names = [name for name, _ in CHECKS]
        assert names == [
            "write/query round trip",
            "balancing + consensus",
            "replication failover",
            "performance simulation",
        ]

    def test_individual_checks_return_details(self):
        for name, check in CHECKS:
            detail = check()
            assert isinstance(detail, str) and detail, name

    def test_main_exit_zero_and_reports(self, capsys):
        assert main() == 0
        out = capsys.readouterr().out
        assert out.count("[ ok ]") == len(CHECKS)
        assert "all checks passed" in out

    def test_main_reports_failures(self, capsys, monkeypatch):
        import repro.selfcheck as sc

        broken = [("boom", lambda: (_ for _ in ()).throw(RuntimeError("x")))]
        monkeypatch.setattr(sc, "CHECKS", broken + sc.CHECKS[:1])
        assert sc.main() == 1
        out = capsys.readouterr().out
        assert "[FAIL] boom" in out


class TestDocumentedCommandsExist:
    """Every ``python -m repro.<module>`` the docs, the CI workflow or the
    verify recipe tell someone to run names a module that can be run — a
    deleted CLI cannot leave them pointing at nothing."""

    ROOT = Path(__file__).resolve().parents[1]
    SOURCES = (
        "README.md",
        "DESIGN.md",
        ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md",
    )
    COMMAND = re.compile(r"python3? -m (repro(?:\.\w+)+)")

    @pytest.mark.parametrize("source", SOURCES)
    def test_named_modules_resolve_to_runnable_modules(self, source):
        named = set(self.COMMAND.findall((self.ROOT / source).read_text()))
        assert named, f"{source} names no repro command: has the pattern drifted?"
        for name in sorted(named):
            spec = importlib.util.find_spec(name)
            assert spec is not None, f"{source} names {name}, which does not exist"
            if spec.submodule_search_locations is not None:
                # `python -m package` runs package/__main__.py.
                runnable = importlib.util.find_spec(f"{name}.__main__") is not None
            else:
                runnable = '__name__ == "__main__"' in Path(spec.origin).read_text()
            assert runnable, f"{source} names {name}, which has no entry point"
