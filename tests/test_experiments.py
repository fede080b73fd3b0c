"""Tests for the experiments package and its CLI."""

from __future__ import annotations

import pytest

from repro.experiments import available, run
from repro.experiments.base import ExperimentResult, Scale
from repro.experiments.cli import main


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {
            "fig01", "fig10", "fig11", "fig12", "fig13", "fig14",
            "fig15", "fig16", "fig17", "fig18", "fig19",
            "fig20",  # extension: governed Single's-Day spike
        }
        assert set(available()) == expected

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            run("fig99")

    def test_run_takes_only_a_scale(self):
        """An experiment is a function of its scale alone: ``run`` forwards
        no other option, so a stray one is an error, not silently dropped."""
        with pytest.raises(TypeError):
            run("fig20", "tiny", tenancy=True)

    def test_duplicate_registration_rejected(self):
        from repro.errors import ConfigurationError
        from repro.experiments.base import experiment

        with pytest.raises(ConfigurationError):
            experiment("fig01")(lambda scale: None)


class TestScale:
    def test_pick(self):
        assert Scale.TINY.pick(1, 2, 3) == 1
        assert Scale.SMALL.pick(1, 2, 3) == 2
        assert Scale.PAPER.pick(1, 2, 3) == 3

    def test_from_string(self):
        assert Scale("tiny") is Scale.TINY


class TestResultRendering:
    def test_render_contains_rows_and_notes(self):
        result = ExperimentResult(
            figure="figX",
            title="demo",
            headers=["a", "b"],
            rows=[(1, 2), (3, 4)],
            notes=["hello"],
        )
        text = result.render()
        assert "figX" in text and "demo" in text
        assert "1" in text and "4" in text
        assert "note: hello" in text

    def test_render_empty_rows(self):
        result = ExperimentResult("figX", "t", ["a"], [])
        assert "figX" in result.render()


class TestTinyRuns:
    """Smoke-run the cheap experiments end to end at tiny scale."""

    @pytest.mark.parametrize("figure", ["fig01"])
    def test_instant_figures(self, figure):
        result = run(figure, scale="tiny")
        assert result.figure == figure
        assert result.rows

    def test_fig16_paper_scale_gain_note(self):
        result = run("fig16", scale="tiny")
        assert result.rows
        assert set(result.values["fanout"]["double-hashing"].values()) == {8}
        assert any("double hashing" in note for note in result.notes)

    def test_same_comparison_is_simulated_once(self):
        fig10 = run("fig10", scale="tiny").values["reports"]
        fig12 = run("fig12", scale="tiny").values["reports"]
        assert fig10[160_000] is fig12[1.0]


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "fig19" in out

    def test_unknown_figure_exit_code(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--tenancy"], ["--trace", "trace.jsonl"]])
    def test_no_per_figure_options(self, flag, capsys):
        """Fig 20 reports both arms in one run, so the CLI takes no option
        that only one figure reads."""
        with pytest.raises(SystemExit) as exit_info:
            main(["fig20", "--scale", "tiny", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 2

    def test_runs_single_figure(self, capsys):
        assert main(["fig01", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "top-10 share" in out
