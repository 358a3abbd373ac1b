"""The benchmark's own tests: a smallest-size pass of every workload.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py

Each test drives ``perfbench/run.py`` exactly as a benchmark run does
(a subprocess from the root of the checkout), at ``--size smoke``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: The seed whose smoke-size digests ``digests.json`` records.  The
#: smallest ``fleet16`` is the quick cluster scenario, whose "migrations
#: counted" check holds at this seed (not at every seed: at 5 the
#: failure strands no stream).
SEED = DEFAULT_SEED


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(SEED),
         "--seconds", "0", "--size", "smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def copy_benchmark(into: Path) -> None:
    """``BENCHMARK.json`` and ``perfbench/`` as a checkout holds them."""
    shutil.copytree(HERE, into / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", into)


def result(lines: list[str]) -> dict:
    report = json.loads(lines[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    return report


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics(workload, declared):
    code, lines = bench("--workload", workload, "--trace", "0")
    report = result(lines)
    assert code == 0 and report["correct"], lines
    assert report["failed"] == 0 and report["attempted"] >= 1
    metrics = report["metrics"]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert list(metrics) == list(units)
    for name, metric in metrics.items():
        assert NAME.match(name)
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
        assert any(line.startswith(f"{workload} {name} = ")
                   for line in lines), name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_ledger_adds_up(workload, declared):
    code, lines = bench("--workload", workload, "--trace", "1")
    report = result(lines)
    assert code == 0 and report["correct"], lines
    metrics = report["metrics"]
    assert list(metrics) == [m["name"] for m in declared["per_layer"]]
    for name in metrics:
        assert NAME.match(name)
    with open(OUT / "trace" / f"{workload}-seed{SEED}.layers.json") as fh:
        layers = json.load(fh)
    wall = layers["wall_s"]
    covered = sum(layers["metrics"][f"{layer}.self_s"] for layer in LAYERS)
    share = layers["metrics"]["ledger.unattributed_share"]
    assert covered + share * wall == pytest.approx(wall, rel=1e-9)
    assert 0.0 <= share < 1.0
    spans = OUT / "trace" / f"{workload}-seed{SEED}.spans.jsonl"
    with open(spans) as fh:
        first = json.loads(fh.readline())
    assert {"run", "id", "parent", "name", "layer", "start_s",
            "end_s"} <= set(first)


def test_wrong_recorded_digest_fails_every_operation(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "digests.json"
    recorded = json.loads(path.read_text())
    recorded["digests"]["smoke"]["sim_overload"] = "0" * 64
    path.write_text(json.dumps(recorded))
    code, lines = bench("--workload", "sim_overload", "--trace", "0",
                        cwd=tmp_path)
    report = result(lines)
    assert code == 1
    assert report["correct"] is False
    assert report["failed"] == report["attempted"] >= 1
    assert any(line.startswith("FAILED digest") for line in lines)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    copy_benchmark(tmp_path)
    code, lines = bench("--workload", "sim_overload", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
