"""Tests for the experiments command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.experiments.cli import (
    DESCRIPTIONS,
    EXPERIMENTS,
    main,
    run_experiment,
)
from repro.experiments.serve_demo import ServeSpec


class TestRegistry:
    def test_every_experiment_described(self):
        assert set(DESCRIPTIONS) == set(EXPERIMENTS)

    def test_expected_names(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig1", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11",
        }


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert "cluster" in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "done in" in out

    def test_run_requires_known_name(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestServeSpecValidation:
    def test_unknown_scheduler_is_one_line_exit_2(self, capsys):
        assert main(["serve", "--quick", "--scheduler", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown scheduler 'nope'")
        assert captured.err.count("\n") == 1
        assert "edf" in captured.err

    @pytest.mark.parametrize("field, value", [
        ("scheduler", "nope"),
        ("scheduler", ""),
        ("policy", "nope"),
    ])
    def test_spec_rejects_unknown_names(self, field, value):
        with pytest.raises(ValueError, match=f"unknown .*{value!r}"):
            ServeSpec(**{field: value})

    @pytest.mark.parametrize("scheduler, policy", [
        ("cascaded-sfc", "reservation"),
        ("edf", "measurement"),
        ("fcfs", "always"),
    ])
    def test_spec_accepts_registered_names(self, scheduler, policy):
        spec = ServeSpec(scheduler=scheduler, policy=policy)
        assert (spec.scheduler, spec.policy) == (scheduler, policy)


class TestRunExperiment:
    def test_quick_fig8_prints_both_panels(self):
        out = io.StringIO()
        run_experiment("fig8", quick=True, out=out)
        text = out.getvalue()
        assert "Figure 8a" in text
        assert "Figure 8b" in text

    def test_quick_fig9_prints_all_dimensions(self):
        out = io.StringIO()
        run_experiment("fig9", quick=True, out=out)
        text = out.getvalue()
        assert "dimension 0" in text
        assert "dimension 2" in text
