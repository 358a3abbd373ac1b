"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim_overload --seed 2004 \\
        --seconds 20 --trace 0

Each iteration is a fresh ``python3 perfbench/worker.py`` process that
imports ``repro``, builds its seeded inputs, makes the run calls the
CLI subcommands make, and checks its own outputs.  ``--trace 0``
repeats untraced iterations for ``--seconds`` and reports the median
of every end-to-end metric, host times at the reference host speed
(see ``at_reference_speed``); ``--trace 1`` alternates untraced and
traced iterations and reports every per-layer metric, writing the
traced run's layer metrics and span file under ``perfbench/out/trace``.

Every metric is printed by name with its unit; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  The exit code is 1 when an output check
fails, 2 when the benchmark cannot run (for example, no ``src/repro``
in the checkout); then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Everything a run leaves behind: the LUT cache, scratch stores,
#: traced-run artifacts (gitignored).
OUT = HERE / "out"

#: Reported for a simulated metric a workload does not measure (every
#: run must report every metric, and no median may be 0).
NOT_MEASURED = 1.0

#: Seconds ``worker.calibrate`` takes at the reference host speed, to
#: which host times are scaled (about its time on a 2-vCPU Xeon host at
#: its undisturbed speed, CPython 3.11).
REFERENCE_CALIBRATION_S = 0.04

#: A run must end within this many seconds, whatever ``--seconds`` is.
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (not an output-check failure)."""


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def declared_units(section: str) -> dict[str, str]:
    """Metric names and units of one ``BENCHMARK.json`` section, in
    report order."""
    declared = load_json(ROOT / "BENCHMARK.json")
    return {metric["name"]: metric["unit"] for metric in declared[section]}


def worker_env() -> dict[str, str]:
    """Environment of every iteration: pinned, nothing ambient.

    The LUT cache lives in a directory the benchmark owns, the run
    store goes to a scratch directory (never ``$REPRO_STORE``), and
    the engine is left to the CLI's own default (see ``--probe-engine``
    in ``worker.py``).
    """
    env = dict(os.environ)
    for name in ("REPRO_STORE", "REPRO_SIM_ENGINE", "REPRO_LUT_CACHE",
                 "REPRO_LUT_CACHE_DIR"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_LUT_CACHE_DIR"] = str(OUT / "lut")
    # Temporary files (sqlite's included) stay inside the checkout.
    env["TMPDIR"] = str(OUT / "tmp")
    return env


class Runner:
    """Starts worker processes and enforces the run's time limit."""

    def __init__(self, env: dict[str, str], deadline: float) -> None:
        self.env = env
        self.deadline = deadline

    def worker(self, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached before an iteration")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            # The iteration's pool workers share its session: stop all.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("iteration exceeded the time limit") from None
        if proc.returncode != 0:
            raise BenchError(
                f"worker {' '.join(args)} exited {proc.returncode}:\n"
                + err[-2000:])
        return json.loads(out.strip().splitlines()[-1])

    def iteration(self, workload: str, seed: int, size: str, mode: str,
                  *extra: str) -> dict:
        return self.worker("--workload", workload, "--seed", str(seed),
                           "--size", size, "--mode", mode,
                           "--tmp", str(OUT / "tmp"), *extra)


def measure(runner: Runner, args) -> tuple[list[dict], list[dict]]:
    """Untraced iterations (and traced ones with ``--trace 1``).

    Iterations repeat while another one still fits in ``--seconds``
    (judged by the median iteration so far), at least three times, or
    twice when traced; in trace mode one iteration is one cycle of
    untraced, traced and, for ``serve_recorded``, plain.
    """
    untraced: list[dict] = []
    others: list[dict] = []
    spans_dir = OUT / "trace"
    started = time.monotonic()
    durations: list[float] = []
    while True:
        cycle_start = time.monotonic()
        extra = (("--probe-cells",)
                 if args.trace and args.workload == "fleet16" else ())
        untraced.append(runner.iteration(args.workload, args.seed,
                                         args.size, "untraced", *extra))
        if args.trace:
            spans = spans_dir / f"{args.workload}-seed{args.seed}" \
                f"-{len(untraced)}.spans.jsonl"
            others.append(runner.iteration(args.workload, args.seed,
                                           args.size, "traced",
                                           "--spans", str(spans)))
            others[-1]["spans_path"] = str(spans)
            if args.workload == "serve_recorded":
                others.append(runner.iteration(args.workload, args.seed,
                                               args.size, "plain"))
        durations.append(time.monotonic() - cycle_start)
        elapsed = time.monotonic() - started
        minimum = 2 if args.trace else 3
        if len(durations) >= minimum and (
                elapsed + statistics.median(durations) > args.seconds):
            return untraced, others


def median_of(runs: list[dict], key) -> float:
    return statistics.median(key(run) for run in runs)


def verdict(untraced: list[dict], others: list[dict],
            expected: str | None) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, problems) over every iteration.

    An iteration whose checks fail counts all its operations as
    failed.  Digests or simulated metrics that differ between
    iterations of one seed, a digest other than the recorded one, or a
    failed traced or plain iteration fail every operation of the run.
    """
    runs = untraced + others
    attempted = sum(run["attempted"] for run in untraced)
    failed = sum(run["attempted"] for run in untraced if not run["ok"])
    problems = [
        f"{run['mode']} iteration: check failed: {name} ({detail})"
        for run in runs for name, ok, detail in run["checks"] if not ok
    ]
    whole_run = []
    digests = {run["digest"] for run in runs}
    if len(digests) > 1:
        whole_run.append(f"digests differ between iterations: {digests}")
    if expected is not None and digests != {expected}:
        whole_run.append(f"digest {sorted(digests)} != recorded {expected}")
    simulated = {json.dumps(run["simulated"], sort_keys=True)
                 for run in runs if run["mode"] != "plain"}
    if len(simulated) > 1:
        whole_run.append("simulated metrics differ between iterations")
    if whole_run or not all(run["ok"] for run in others):
        failed = attempted
    problems += whole_run
    return not problems, attempted, failed, problems


def declared_only(metrics: dict[str, float], names) -> dict[str, float]:
    """``metrics`` restricted to ``names``, in their order."""
    missing = [name for name in names if name not in metrics]
    if missing:
        raise BenchError(f"declared metrics not produced: {missing}")
    return {name: metrics[name] for name in names}


def at_reference_speed(run: dict) -> dict[str, float]:
    """One iteration's host times, scaled to the reference host speed.

    The host's CPU speed swings by up to about 2x, in phases from under
    a second to tens of seconds, so a run's raw times depend on the
    phases it met (over ten seeds the median wall time's quartile
    spread reached 26% of the median; scaled, it stays under 10%).  Each phase is scaled by the
    calibration loop's mean time either side of it, so the metric
    reads the program's cost, not the host's speed at the time.
    """
    before, between, after = run["calibration_s"]
    setup_s = run["setup_s"] * 2 * REFERENCE_CALIBRATION_S / (
        before + between)
    run_s = run["run_s"] * 2 * REFERENCE_CALIBRATION_S / (between + after)
    return {"wall_s": setup_s + run_s, "setup_s": setup_s,
            "requests_per_s": run["retired"] / run_s}


def end_to_end(untraced: list[dict], names) -> dict[str, float]:
    scaled = [at_reference_speed(run) for run in untraced]
    metrics = {
        name: median_of(scaled, lambda r: r[name])
        for name in ("wall_s", "setup_s", "requests_per_s")
    }
    metrics["peak_rss_mb"] = median_of(untraced, lambda r: r["peak_rss_mb"])
    for name, value in untraced[0]["simulated"].items():
        metrics[name] = NOT_MEASURED if value is None else value
    return declared_only(metrics, names)


def per_layer(args, untraced: list[dict], others: list[dict],
              names) -> dict[str, float]:
    traced = [run for run in others if run["mode"] == "traced"]
    # The traced iteration of median wall time carries the ledger, so
    # its layer self times and unattributed share stay consistent.
    traced.sort(key=lambda run: run["wall_s"])
    chosen = traced[(len(traced) - 1) // 2]
    metrics = dict(chosen["layers"])
    metrics["trace.overhead"] = (
        median_of(traced, lambda r: r["wall_s"])
        / median_of(untraced, lambda r: r["wall_s"]))
    pooled = [run["pool"] for run in untraced if "pool" in run]
    for name in names:
        if name.startswith("parallel.") and name != "parallel.self_s":
            metrics[name] = (statistics.median(p[name] for p in pooled)
                             if pooled else 0.0)
    plain = [run for run in others if run["mode"] == "plain"]
    metrics["obs.observe_s"] = (
        median_of(untraced, lambda r: r["phases"]["serve_s"])
        - median_of(plain, lambda r: r["phases"]["serve_s"])
        if plain else 0.0)
    # Keep the chosen span file under a stable name, drop the others.
    stem = OUT / "trace" / f"{args.workload}-seed{args.seed}"
    for run in traced:
        path = Path(run["spans_path"])
        if run is chosen:
            path.replace(f"{stem}.spans.jsonl")
        else:
            path.unlink(missing_ok=True)
    metrics = declared_only(metrics, names)
    with open(f"{stem}.layers.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "wall_s": chosen["wall_s"], "spans": chosen["spans"],
                   "untraced_targets": chosen["untraced_targets"],
                   "metrics": metrics}, fh, indent=1, sort_keys=True)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="smoke: the smallest pass (the tests use it)")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    units = declared_units("per_layer" if args.trace else "end_to_end")
    recorded = load_json(HERE / "digests.json")
    expected = (recorded["digests"][args.size][args.workload]
                if args.seed == recorded["seed"] else None)

    for sub in ("lut", "tmp", "trace"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    runner = Runner(worker_env(), started + HARD_LIMIT_S)
    try:
        engine = runner.worker("--probe-engine")["engine"]
        if engine:
            runner.env["REPRO_SIM_ENGINE"] = engine
        # One untimed iteration warms the benchmark's LUT cache and the
        # bytecode; a smaller input would not build every table (the
        # LUT tier skips tables that a small batch cannot amortize).
        runner.iteration(args.workload, args.seed, args.size, "untraced")
        untraced, others = measure(runner, args)
        correct, attempted, failed, problems = verdict(
            untraced, others, expected)
        if args.trace:
            metrics = per_layer(args, untraced, others, units)
        else:
            metrics = end_to_end(untraced, units)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    measured = untraced[0]["simulated"]
    print(f"# {args.workload} seed={args.seed} size={args.size} "
          f"engine={engine or 'library default'} "
          f"iterations={len(untraced)} digest={untraced[0]['digest']}")
    if not args.trace:
        for name in ("wall_s", "setup_s", "run_s"):
            values = [run[name] for run in untraced]
            print(f"# raw {name} over {len(values)} iterations: min "
                  f"{min(values):.6g} median {statistics.median(values):.6g}"
                  f" max {max(values):.6g}")
        speeds = [REFERENCE_CALIBRATION_S
                  / statistics.mean(run["calibration_s"])
                  for run in untraced]
        print(f"# host speed / reference: min {min(speeds):.3f} median "
              f"{statistics.median(speeds):.3f} max {max(speeds):.3f}")
    for name, value in metrics.items():
        note = (" (not measured on this workload)"
                if name in measured and measured[name] is None else "")
        print(f"{args.workload} {name} = {value:.6g} {units[name]}{note}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
