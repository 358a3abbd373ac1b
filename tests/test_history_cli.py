"""The ``history`` CLI: record, list, show, replay, diff.

End-to-end through ``repro.experiments.cli.main`` — a quick serve run
recorded with ``--record`` lands in the store, ``history
list/show/replay/diff`` work against it, a tampered entry makes
``replay`` exit 1, ``diff --bench`` renders the committed baseline
trajectory, read commands never create or write a store, and a run
recorded on the legacy engine replays on the default engine (a
cross-engine byte check).
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path

import pytest

from repro.experiments import history
from repro.experiments.cli import main
from repro.store import SqliteRunStore

REPO_ROOT = Path(__file__).parent.parent


@pytest.fixture
def store_path(tmp_path):
    return str(tmp_path / "runs.sqlite")


def record_serve(store_path: str, *extra: str) -> int:
    """Record one quick serve run; returns its run id."""
    assert main(["serve", "--quick", "--record",
                 "--store", store_path, *extra]) == 0
    rows = SqliteRunStore(store_path).list(kind="serve")
    return rows[0].run_id


class TestRecording:
    def test_record_flag_writes_provenance(self, store_path, capsys):
        run_id = record_serve(store_path)
        out = capsys.readouterr().out
        assert f"recorded run {run_id} -> {store_path}" in out
        run = SqliteRunStore(store_path).get(run_id)
        assert run.kind == "serve"
        assert run.quick
        assert run.engine == "batched"
        assert run.scheduler == "cascaded-sfc"
        assert run.config["tail_ms"] == 5_000.0
        assert "serve" in run.argv and "--quick" in run.argv
        assert run.trace and run.verify()
        # Recording lights up the pillars: spans + latency histograms.
        assert run.spans_jsonl
        assert run.metrics["request_response_ms"]["type"] == "histogram"
        assert run.timings["total_s"] > 0

    def test_no_record_no_store(self, store_path, capsys):
        assert main(["serve", "--quick"]) == 0
        capsys.readouterr()
        assert not os.path.exists(store_path)

    def test_store_env_turns_recording_on(self, store_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_STORE", store_path)
        assert main(["serve", "--quick"]) == 0
        capsys.readouterr()
        assert SqliteRunStore(store_path).list(kind="serve")


class TestHistoryCommands:
    def test_list_and_show(self, store_path, capsys):
        run_id = record_serve(store_path)
        capsys.readouterr()
        assert main(["history", "list", "--store", store_path,
                     "--kind", "serve"]) == 0
        out = capsys.readouterr().out
        assert "cascaded-sfc" in out
        assert main(["history", "show", str(run_id),
                     "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out and "config" in out

    def test_list_filters_exclude(self, store_path, capsys):
        record_serve(store_path)
        capsys.readouterr()
        assert main(["history", "list", "--store", store_path,
                     "--kind", "serve", "--engine", "legacy"]) == 0
        assert "0 run(s)" in capsys.readouterr().out

    def test_replay_fresh_run_exits_0(self, store_path, capsys):
        run_id = record_serve(store_path)
        capsys.readouterr()
        assert main(["history", "replay", str(run_id),
                     "--store", store_path]) == 0
        assert "byte-for-byte" in capsys.readouterr().out

    def test_replay_tampered_run_exits_1(self, store_path, capsys):
        run_id = record_serve(store_path)
        capsys.readouterr()
        with sqlite3.connect(store_path) as conn:
            conn.execute("UPDATE runs SET trace = X'DEADBEEF' "
                         "WHERE run_id = ?", (run_id,))
        assert main(["history", "replay", str(run_id),
                     "--store", store_path]) == 1
        assert "TAMPERED" in capsys.readouterr().out

    def test_replay_unknown_run_errors(self, store_path, capsys):
        record_serve(store_path)
        capsys.readouterr()
        assert main(["history", "replay", "999",
                     "--store", store_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not found" in err

    def test_diff_two_runs_reports_deltas(self, store_path, capsys):
        a = record_serve(store_path)
        b = record_serve(store_path, "--policy", "measurement")
        capsys.readouterr()
        assert main(["history", "diff", str(a), str(b),
                     "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "policy: 'reservation' -> 'measurement'" in out
        assert "report (QoS deltas)" in out
        assert "phase latency (ms)" in out
        assert "outcome counters" in out

    def test_diff_identical_runs(self, store_path, capsys):
        a = record_serve(store_path)
        b = record_serve(store_path)
        capsys.readouterr()
        assert main(["history", "diff", str(a), str(b),
                     "--store", store_path]) == 0
        assert "[identical traces]" in capsys.readouterr().out

    def test_diff_bench_renders_trajectory(self, store_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["history", "diff", "--bench",
                     "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert "imported" in out
        assert "BENCH_PR3" in out and "BENCH_PR10" in out
        assert "end_to_end" in out

    def test_baseline_import_is_idempotent(self, store_path,
                                           monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        store = SqliteRunStore(store_path)
        first = history.import_bench_baselines(store)
        assert first  # the committed BENCH_PR<n>.json baselines
        assert history.import_bench_baselines(store) == []
        assert len(store.labels(kind="bench")) == len(first)

    def test_foreign_store_clear_error(self, tmp_path, capsys):
        foreign = str(tmp_path / "foreign.sqlite")
        with sqlite3.connect(foreign) as conn:
            conn.execute("CREATE TABLE t (x)")
        assert main(["history", "list", "--store", foreign]) == 2
        assert "foreign database" in capsys.readouterr().err


class TestReadOnlyReads:
    @pytest.mark.parametrize("command", [
        ["list"], ["show", "1"], ["replay", "99"], ["diff", "1", "2"],
    ])
    def test_read_on_missing_store_creates_nothing(self, tmp_path,
                                                   capsys, command):
        path = tmp_path / "new.sqlite"
        assert main(["history", *command, "--store", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: no run store at {path}\n"
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_reads_never_write(self, store_path, capsys):
        run_id = record_serve(store_path)
        capsys.readouterr()
        before = Path(store_path).read_bytes()
        for command in (["list"], ["show", str(run_id)],
                        ["replay", str(run_id)],
                        ["diff", str(run_id), str(run_id)]):
            assert main(["history", *command, "--store", store_path]) == 0
        assert "imported" not in capsys.readouterr().out
        assert Path(store_path).read_bytes() == before
        assert not SqliteRunStore(store_path).labels(kind="bench")


class TestLegacyRecordedReplay:
    def test_legacy_run_replays_on_default_engine(self, store_path,
                                                  capsys, monkeypatch):
        """A legacy-recorded run replays on batched, byte-identical."""
        from repro.experiments import serve_demo

        spec = serve_demo.ServeSpec(engine="legacy").quick()
        with SqliteRunStore(store_path) as store:
            run_id = history.record_serve(
                store, spec, serve_demo.run(spec, sink=lambda line: None))
        assert SqliteRunStore(store_path).get(run_id).engine == "legacy"

        engines: list[str | None] = []
        original = serve_demo.run

        def spying_run(spec, **kwargs):
            engines.append(spec.engine)
            return original(spec, **kwargs)

        monkeypatch.setattr(serve_demo, "run", spying_run)
        assert main(["history", "replay", str(run_id),
                     "--store", store_path]) == 0
        assert "byte-for-byte" in capsys.readouterr().out
        assert engines == [None]


class TestCliErrors:
    @pytest.mark.parametrize("argv, message", [
        (["cluster", "--arrays", "0"], "arrays must be >= 1, got 0"),
        (["cluster", "--arrays", "1", "--quick"],
         "failure_array 1 is not one of the fleet's arrays 0..0"),
    ])
    def test_bad_spec_is_one_line_exit_2(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, command", [
        ("--csv", ["run", "fig5", "--quick"]),
        ("--out-dir", ["obs", "--quick"]),
    ])
    def test_output_path_under_a_file_is_one_line_exit_2(
            self, tmp_path, capsys, flag, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        target = blocker / "sub"
        assert main([*command, flag, str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Not a directory" in err and str(target) in err
