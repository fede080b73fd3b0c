"""Tests for the self-check doctor command."""

from __future__ import annotations

import ast
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

    #: A ``python -m repro.experiments`` command's arguments: up to the end
    #: of its code span, comment or shell operator, and on through indented
    #: lines that go on with a flag.
    EXPERIMENTS = re.compile(
        r"python3? -m repro\.experiments\b([^`#|;&)\n]*(?:\n[ \t]+--[^`#|;&)\n]*)*)"
    )

    @pytest.mark.parametrize("source", SOURCES)
    def test_experiments_commands_name_registered_figures_and_flags(self, source):
        """Every figure id a documented ``python -m repro.experiments``
        command names is registered, and every ``--flag`` on it is one the
        CLI defines — a deleted figure or flag cannot leave a command that
        exits with a usage error."""
        from repro.experiments import available
        from repro.experiments.cli import build_parser

        flags = {flag for action in build_parser()._actions for flag in action.option_strings}
        unknown = [
            token
            for arguments in self.EXPERIMENTS.findall((self.ROOT / source).read_text())
            for token in arguments.split()
            if (token.startswith("--") and token.split("=")[0] not in flags)
            or (re.fullmatch(r"fig\w+", token) and token not in available())
        ]
        assert not unknown, f"{source} runs repro.experiments with {unknown}"

    def test_experiments_pattern_reads_the_whole_command(self):
        """The pattern reads a command's figures and flags up to its code
        span, comment or pipe, and on through an indented flag line."""
        text = (
            "`python -m repro.experiments fig20 --scale tiny` and more\n"
            "python -m repro.experiments fig10 fig12 # --not-a-flag\n"
            "python -m repro.experiments fig11 --profile p.json | tee out\n"
            "python -m repro.experiments fig16 \\\n"
            "    --scale small --dashboard\n"
            "next paragraph --history\n"
        )
        assert [args.split() for args in self.EXPERIMENTS.findall(text)] == [
            ["fig20", "--scale", "tiny"],
            ["fig10", "fig12"],
            ["fig11", "--profile", "p.json"],
            ["fig16", "\\", "--scale", "small", "--dashboard"],
        ]

    METHOD = re.compile(r"\bdb\.(\w+)\(|\bESDB\.(\w+)")

    @pytest.mark.parametrize(
        "source", ("README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md")
    )
    def test_named_esdb_methods_exist(self, source):
        """Every ``db.<name>(`` / ``ESDB.<name>`` the docs show resolves on
        the facade — a deleted method cannot leave them pointing at nothing."""
        from repro.esdb import ESDB

        text = (self.ROOT / source).read_text()
        named = {a or b for a, b in self.METHOD.findall(text)}
        missing = sorted(name for name in named if not hasattr(ESDB, name))
        assert not missing, f"{source} names ESDB methods that do not exist: {missing}"


def _public_names(module: Path) -> set[str]:
    """The public top-level names *module* defines."""
    names = set()
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


#: What the censuses count as a caller: code that is not a test. CI runs
#: ``tools/`` and the inline scripts of its workflow, so both count.
READERS = ("src", "bench", "benchmarks", "examples", "tools", ".github/workflows/ci.yml")


def _reader_files(root: Path) -> list[Path]:
    """The files under :data:`READERS`: every ``.py`` below a directory, and
    a named file itself."""
    files = []
    for reader in READERS:
        path = root / reader
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def _caller_text(path: Path) -> str:
    """*path*'s text as the censuses read it: a package ``__init__``'s
    ``from … import`` lines and its ``__all__`` only re-export names, so
    they are blanked — they are not callers."""
    text = path.read_text()
    if path.name != "__init__.py":
        return text
    lines = text.splitlines()
    for node in ast.parse(text).body:
        if isinstance(node, ast.ImportFrom) or (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    return "\n".join(lines)


def test_caller_text_blanks_only_a_package_inits_reexports(tmp_path):
    """A package ``__init__``'s ``from … import`` lines and ``__all__`` call
    nothing, so the censuses do not read them; its other code, and every
    line of a plain module, they do."""
    source = (
        "from repro.workload.trace import (\n"
        "    read_trace_events,\n"
        ")\n"
        "import json\n"
        "__all__ = [\n"
        "    'read_trace_events',\n"
        "]\n"
        "DEFAULT = write_trace(path)\n"
    )
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(source)
    (package / "module.py").write_text(source)
    init_words = set(re.findall(r"\w+", _caller_text(package / "__init__.py")))
    assert "read_trace_events" not in init_words
    assert {"json", "DEFAULT", "write_trace"} <= init_words
    # Blanked, not removed: the line numbers still match the file's.
    assert _caller_text(package / "__init__.py").splitlines()[7] == "DEFAULT = write_trace(path)"
    assert _caller_text(package / "module.py") == source


def _registered_modules(init: Path, package: str) -> set[str]:
    """The submodules *init* imports as module objects (``from <package>
    import <module>``) — registration, as ``repro.experiments`` does."""
    return {
        alias.name
        for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == package
        for alias in node.names
    }


class TestEveryModuleIsNeeded:
    """The deletion census: every module under ``src/repro`` is reached from
    code that is not a test. Some file under :data:`READERS` other than the
    module itself and its package ``__init__`` names one of its public
    top-level names, or that ``__init__`` imports the module object to
    register it. ``__main__`` modules are reached by their command (checked
    above)."""

    ROOT = Path(__file__).resolve().parents[1]

    def test_every_module_is_reached_from_non_test_code(self):
        src = self.ROOT / "src"
        words = {
            path: set(re.findall(r"\w+", _caller_text(path))) for path in _reader_files(self.ROOT)
        }
        unreached = []
        for module in sorted((src / "repro").rglob("*.py")):
            if module.name in ("__init__.py", "__main__.py"):
                continue
            init = module.parent / "__init__.py"
            package = ".".join(module.parent.relative_to(src).parts)
            if module.stem in _registered_modules(init, package):
                continue
            names = _public_names(module)
            if not any(
                names & text for path, text in words.items() if path not in (module, init)
            ):
                unreached.append(str(module.relative_to(src)))
        assert not unreached, f"modules no figure, tool or example reaches: {unreached}"


def _passed_keywords(source: str, cls: str) -> set[str]:
    """The keywords *source* passes to the config class named *cls*: in a
    call to the class, to one of its presets (``cls.strict(...)``), to
    ``cls(...)`` inside the class body, or to ``replace(...)``. One hop
    further, the keywords of a call to a same-file function whose
    ``**kwargs`` is splatted into such a call, and of a ``dict(...)``
    assigned to a name that is splatted into one."""
    tree = ast.parse(source)
    in_class = {
        id(node)
        for owner in ast.walk(tree)
        if isinstance(owner, ast.ClassDef) and owner.name == cls
        for node in ast.walk(owner)
    }

    def reaches(call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id in (cls, "replace") or (func.id == "cls" and id(call) in in_class)
        return isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == cls

    def called(call: ast.Call) -> str | None:
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    def splats(call: ast.Call) -> set[str]:
        return {
            keyword.value.id
            for keyword in call.keywords
            if keyword.arg is None and isinstance(keyword.value, ast.Name)
        }

    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    direct = [call for call in calls if reaches(call)]
    splatted = set().union(*map(splats, direct))
    hops = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.args.kwarg is not None
        and any(
            isinstance(call, ast.Call) and reaches(call) and node.args.kwarg.arg in splats(call)
            for call in ast.walk(node)
        )
    }
    dicts = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "dict"
        and any(isinstance(t, ast.Name) and t.id in splatted for t in node.targets)
    ]
    passing = direct + dicts + [call for call in calls if called(call) in hops]
    return {keyword.arg for call in passing for keyword in call.keywords if keyword.arg}


class TestEveryOptionHasACaller:
    """The option census, one level below the module census: every field of
    every configuration dataclass is passed by keyword from code that is not
    a test. A field only tests set is a default nobody changes — it belongs
    in a module constant, with the code only its other values reached
    deleted."""

    ROOT = Path(__file__).resolve().parents[1]
    #: ``config class -> field -> a file (under one of the READERS) that
    #: passes the field by keyword``. A preset such as ``ObsvConfig.off()``
    #: counts where it is defined: bench reaches it.
    CALLERS = {
        "EsdbConfig": {
            "topology": "bench/runner.py",
            "indexed_subattributes": "src/repro/experiments/query_side.py",
            "optimizer_enabled": "src/repro/experiments/query_side.py",
            "balancer": "examples/flash_sale_balancing.py",
            "consensus_interval": "src/repro/faults/runner.py",
            "auto_refresh_every": "src/repro/faults/runner.py",
            "replication": "src/repro/faults/runner.py",
            "telemetry_enabled": "bench/runner.py",
            "cache": "benchmarks/test_cache_effectiveness.py",
            "obsv": "bench/runner.py",
            "timeseries_enabled": "bench/runner.py",
            "tenancy": "src/repro/obsv/__main__.py",
            "tracing": "bench/runner.py",
            "slo": "src/repro/obsv/__main__.py",
        },
        "ObsvConfig": {
            "enabled": "src/repro/obsv/config.py",
            "index_info_seconds": "src/repro/obsv/__main__.py",
            "search_info_seconds": "src/repro/obsv/__main__.py",
        },
        "TenancyConfig": {
            "enabled": "src/repro/obsv/__main__.py",
            "write_rate": "src/repro/obsv/__main__.py",
            "write_burst": "src/repro/obsv/__main__.py",
            "query_rate": "src/repro/tenancy/config.py",
            "query_burst": "src/repro/tenancy/config.py",
            "queue_capacity": "src/repro/obsv/__main__.py",
            "indexed_bytes_quota": "src/repro/experiments/tenancy_side.py",
            "result_bytes_quota": "src/repro/experiments/tenancy_side.py",
            "scanned_docs_quota": "src/repro/experiments/tenancy_side.py",
            "quota_window_seconds": "src/repro/tenancy/config.py",
        },
        "TraceConfig": {
            "enabled": "src/repro/telemetry/context.py",
        },
        "ConsensusConfig": {
            "effective_interval": "src/repro/esdb.py",
        },
        "ChaosConfig": {
            "steps": "src/repro/faults/__main__.py",
            "num_nodes": "src/repro/faults/__main__.py",
            "num_shards": "src/repro/faults/__main__.py",
            "replicas_per_shard": "src/repro/faults/__main__.py",
            "flood_tenant": "src/repro/faults/__main__.py",
            "flood_factor": "src/repro/faults/__main__.py",
            "tenancy": "src/repro/faults/__main__.py",
            "trace_path": "src/repro/faults/__main__.py",
        },
        "SimulationConfig": {
            "num_nodes": "benchmarks/test_model_validation.py",
            "num_shards": "benchmarks/test_model_validation.py",
            "node_capacity": "benchmarks/test_model_validation.py",
            "sample_per_tick": "src/repro/experiments/write_side.py",
            "balance_window": "src/repro/experiments/write_side.py",
            "consensus_interval": "src/repro/experiments/write_side.py",
        },
        "EngineConfig": {
            "schema": "src/repro/esdb.py",
            "composite_columns": "src/repro/esdb.py",
            "scan_columns": "src/repro/esdb.py",
            "indexed_subattributes": "src/repro/esdb.py",
            "auto_refresh_every": "src/repro/esdb.py",
            "filter_cache_bytes": "src/repro/esdb.py",
        },
        "WorkloadConfig": {
            "num_tenants": "bench/workloads.py",
            "theta": "bench/workloads.py",
            "seed": "bench/workloads.py",
        },
        "WriteClientConfig": {
            "batch_size": "src/repro/faults/runner.py",
            "coalesce_window": "src/repro/faults/runner.py",
            "dispatch_retries": "src/repro/faults/runner.py",
            "backoff_base_seconds": "src/repro/faults/runner.py",
        },
        "BalancerConfig": {
            "hotspot_share": "examples/flash_sale_balancing.py",
            "target_share_per_shard": "examples/flash_sale_balancing.py",
            "max_offset": "examples/seller_analytics.py",
        },
    }
    #: The paper's Figure 3 catalog: no caller outside the tests changes
    #: it, but tests build custom schemas and index sets through it.
    CATALOG = {"schema", "composite_columns", "scan_columns"}
    #: Fields no caller outside the tests sets, kept for a stated reason.
    EXEMPT = {
        "EsdbConfig": CATALOG,
        # Algorithm 1's initialization threshold, named by the paper.
        "BalancerConfig": {"init_storage_share"},
        # The seams through which tests prove a chaos run's fingerprint does
        # not depend on tracing or SLO tracking being on.
        "ChaosConfig": {"tracing", "slo"},
    }

    @staticmethod
    def _classes() -> dict:
        from repro.balancer import BalancerConfig
        from repro.client import WriteClientConfig
        from repro.consensus import ConsensusConfig
        from repro.esdb import EsdbConfig
        from repro.faults import ChaosConfig
        from repro.obsv import ObsvConfig
        from repro.sim import SimulationConfig
        from repro.storage import EngineConfig
        from repro.telemetry import TraceConfig
        from repro.tenancy import TenancyConfig
        from repro.workload import WorkloadConfig

        return {
            cls.__name__: cls
            for cls in (
                EsdbConfig, ObsvConfig, TenancyConfig, TraceConfig, ConsensusConfig,
                ChaosConfig, SimulationConfig, EngineConfig, WorkloadConfig,
                WriteClientConfig, BalancerConfig,
            )
        }

    def test_table_names_every_field(self):
        import dataclasses

        classes = self._classes()
        assert set(self.CALLERS) == set(classes)
        for name, cls in classes.items():
            fields = {field.name for field in dataclasses.fields(cls)}
            exempt = self.EXEMPT.get(name, set())
            assert set(self.CALLERS[name]) == fields - exempt, name
            assert exempt <= fields

    def test_each_field_is_passed_by_its_caller(self):
        for name, callers in self.CALLERS.items():
            for field, path in callers.items():
                assert path.split("/")[0] in READERS
                passed = _passed_keywords((self.ROOT / path).read_text(), name)
                assert field in passed, f"{name}.{field}: {path}"

    def test_a_keyword_counts_only_for_the_class_it_is_passed_to(self):
        source = (
            "sim = WriteSimulation(policy, scenario, config=SimulationConfig(num_shards=8),\n"
            "                      workload=WorkloadConfig(num_tenants=50, seed=3))\n"
        )
        assert _passed_keywords(source, "SimulationConfig") == {"num_shards"}
        assert _passed_keywords(source, "WorkloadConfig") == {"num_tenants", "seed"}

    def test_one_hop_through_a_splatted_function_or_dict(self):
        source = (
            "def new_db(**overrides):\n"
            "    return ESDB(EsdbConfig(topology=t, **overrides))\n"
            "def unrelated(**options):\n"
            "    return EsdbConfig(topology=t)\n"
            "class TenancyConfig:\n"
            "    def strict(**overrides):\n"
            "        params = dict(enabled=True, query_rate=20.0)\n"
            "        return TenancyConfig(**params)\n"
            "    @classmethod\n"
            "    def off(cls):\n"
            "        return cls(write_rate=0.0)\n"
            "new_db(cache=False)\n"
            "unrelated(slo=True)\n"
            "TenancyConfig.strict(queue_capacity=8)\n"
            "replace(config, trace_path=p)\n"
            "cls(tracing=None)\n"
        )
        assert _passed_keywords(source, "EsdbConfig") == {"topology", "cache", "trace_path"}
        assert _passed_keywords(source, "TenancyConfig") == {
            "enabled", "query_rate", "write_rate", "queue_capacity", "trace_path",
        }

    def test_at_most_65_settable_values(self):
        import dataclasses

        assert sum(len(dataclasses.fields(cls)) for cls in self._classes().values()) <= 65


class TestEveryNameIsReferenced:
    """The census one level below the option census: every function,
    method and class defined under ``src/`` is named again somewhere in
    :data:`READERS`. A name that only its own ``def`` and the tests spell is
    dead code. Exempt are dunders, the fault handlers
    :class:`~repro.faults.FaultInjector` reaches by
    ``getattr(self, f"_inject_{kind}")`` / ``_recover_``, the figures
    ``@experiment`` registers by figure id, and :attr:`PUBLIC_API`."""

    ROOT = Path(__file__).resolve().parents[1]
    DISPATCHED = re.compile(r"__\w+__|_inject_\w+|_recover_\w+")
    #: Names kept although no code outside the tests calls them, each with
    #: the reason it stays.
    PUBLIC_API = {
        "for_esdb": "WriteClient's wiring to a live instance, which README documents",
        "suggest_subattribute_indexes": "the §3.2 index advisor; ROADMAP item 1 decides it",
        "coverage": "FrequencyTracker's half of that advisor; ROADMAP item 1 decides it",
        "initialize": "LoadBalancer's Algorithm 1 initialization phase, which PAPER.md names",
        "seed_storage": "WorkloadMonitor's input to that initialization phase",
        "corrupt_entry": "the one way to reach the checksum check ShardEngine recovery runs",
    }

    @staticmethod
    def _registered(node) -> bool:
        return any(
            isinstance(d, ast.Call) and getattr(d.func, "id", None) == "experiment"
            for d in node.decorator_list
        )

    def test_every_definition_is_named_elsewhere(self):
        words: dict = {}
        for path in _reader_files(self.ROOT):
            for word in re.findall(r"\w+", _caller_text(path)):
                words[word] = words.get(word, 0) + 1
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        unnamed = []
        for path in sorted((self.ROOT / "src").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, defs)
                    and not self.DISPATCHED.fullmatch(node.name)
                    and not self._registered(node)
                    and node.name not in self.PUBLIC_API
                    and words.get(node.name, 0) < 2
                ):
                    unnamed.append(f"{path.relative_to(self.ROOT)}:{node.name}")
        assert not unnamed, f"defined but named only by tests: {unnamed}"

    def test_public_api_is_short_and_still_unreached(self):
        """Each allow-list entry is a name the tests alone reach: one that
        gains a caller, or is deleted, leaves the list."""
        assert len(self.PUBLIC_API) <= 12
        text = " ".join(_caller_text(path) for path in _reader_files(self.ROOT))
        for name in self.PUBLIC_API:
            assert len(re.findall(rf"\b{name}\b", text)) == 1, name


class TestFacadeBranchesOnNoConsumer:
    """The facade hands each write batch, query and balance round to the
    recording subsystems through its ``consumers`` tuple: outside
    ``ESDB.__init__`` no method reads the observer, the SLO engine or its
    profiler, the time series or the frequency tracker, and the governor
    is read only at the write and query admission points. The frequency
    tracker's one reader is the index advisor."""

    ROOT = Path(__file__).resolve().parents[1]
    HANDLES = frozenset(
        ("obsv", "slo", "hotkeys", "timeseries", "_subattr_frequencies", "governor")
    )
    ALLOWED = {
        ("governor", "_write_batch"),
        ("governor", "_execute_traced"),
        ("_subattr_frequencies", "suggest_subattribute_indexes"),
    }

    def test_subsystems_are_read_only_where_allowed(self):
        tree = ast.parse((self.ROOT / "src" / "repro" / "esdb.py").read_text())
        (facade,) = (
            node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "ESDB"
        )
        reads = {
            (node.attr, method.name)
            for method in facade.body
            if isinstance(method, ast.FunctionDef) and method.name != "__init__"
            for node in ast.walk(method)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in self.HANDLES
        }
        assert reads == self.ALLOWED


class TestFacadeOnlyComposes:
    """The facade composes the query coordinator (``repro.query.coordinator``)
    and the routing bounds (``repro.routing.bounds``); it knows no statement
    tree, shape, plan, optimizer or cache key of its own."""

    ROOT = TestFacadeBranchesOnNoConsumer.ROOT
    MODULES = frozenset(
        ("repro.query.ast", "repro.query.shapes", "repro.query.planner", "repro.query.optimizer")
    )
    CACHE_KEYS = frozenset(("sql_fingerprint", "rows_cost"))

    def test_facade_imports_no_query_internals(self):
        tree = ast.parse((self.ROOT / "src" / "repro" / "esdb.py").read_text())
        imported = []  # (module, module.name) per imported name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(alias.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [(node.module, f"{node.module}.{alias.name}") for alias in node.names]
        internals = sorted(
            name
            for module, name in imported
            if module in self.MODULES
            or name in self.MODULES
            or (module.startswith("repro.cache") and name.rsplit(".", 1)[1] in self.CACHE_KEYS)
        )
        assert not internals, f"the facade imports query internals: {internals}"


class TestOneDefinitionPerFigure:
    """Each paper figure is defined once, in ``repro.experiments``: fig01 and
    fig10–fig19 each have exactly one ``benchmarks/test_figNN_*.py``, which
    gets its figure from ``repro.experiments.run("figNN", scale)`` and
    builds no instance, simulation, routing policy or workload of its own.
    Fig 15's real-engine replica-CPU cross-check is the one exception: it is
    not a figure series."""

    ROOT = Path(__file__).resolve().parents[1]
    FIGURES = ("fig01",) + tuple(f"fig{n}" for n in range(10, 20))
    EXCEPTIONS = frozenset({"test_fig15_real_engine_cpu_accounting"})

    @staticmethod
    def _builders() -> frozenset:
        import repro.routing
        import repro.sim
        import repro.workload

        policies = {
            name
            for name in repro.routing.__all__
            if isinstance(getattr(repro.routing, name), type)
            and issubclass(getattr(repro.routing, name), repro.routing.RoutingPolicy)
        }
        return frozenset(
            {"ESDB", "EsdbConfig"} | policies | set(repro.sim.__all__) | set(repro.workload.__all__)
        )

    def _figure_file(self, figure: str) -> Path:
        files = sorted((self.ROOT / "benchmarks").glob(f"test_{figure}_*.py"))
        assert len(files) == 1, f"{figure}: {[f.name for f in files]}"
        return files[0]

    @staticmethod
    def _called(node) -> str | None:
        func = node.func
        return getattr(func, "id", None) or getattr(func, "attr", None)

    @pytest.mark.parametrize("figure", FIGURES)
    def test_figure_file_calls_experiments_run(self, figure):
        tree = ast.parse(self._figure_file(figure).read_text())
        imported = any(
            isinstance(node, ast.ImportFrom)
            and node.module == "repro.experiments"
            and any(alias.name == "run" and alias.asname is None for alias in node.names)
            for node in tree.body
        )
        calls = [
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "run"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == figure
        ]
        assert imported and calls, f"{figure} does not call repro.experiments.run({figure!r}, ...)"

    @pytest.mark.parametrize("figure", FIGURES)
    def test_figure_file_builds_nothing(self, figure):
        tree = ast.parse(self._figure_file(figure).read_text())
        skipped = {
            id(inner)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in self.EXCEPTIONS
            for inner in ast.walk(node)
        }
        builders = self._builders()
        built = sorted(
            {
                self._called(node)
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and id(node) not in skipped
                and self._called(node) in builders
            }
        )
        assert not built, f"{figure} builds {built} instead of running repro.experiments"
