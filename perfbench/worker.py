"""One benchmark iteration in a fresh interpreter: set up, run, check.

``run.py`` starts this script once per iteration, so every iteration
pays (and times) the import of ``repro`` and its own set-up, and its
peak memory is its own.  The last line of standard output is one JSON
object with the iteration's timings, digest, checks and metrics.

Modes:

* ``untraced`` -- the timed run: nothing is wrapped.
* ``traced`` -- the public entry points in :mod:`tracing` are wrapped
  with spans; the per-layer ledger and the span file come from here.
* ``plain`` -- ``serve_recorded`` without observer or store, the
  reference its observation cost is priced against.

``--probe-cells`` (untraced, ``fleet16``) additionally keeps what
``run_cells`` returns, for the pool metrics.

Before set-up, between set-up and run, and after the run, the worker
times a fixed pure-Python loop (``calibrate``); ``run.py`` scales each
phase by the loop times either side of it.
"""

import time

#: Iterations of the calibration loop (about 40 ms on a 2-vCPU Xeon
#: host at its undisturbed speed, CPython 3.11).
CALIBRATION_LOOPS = 150_000


def calibrate() -> float:
    """Seconds the calibration loop takes: the host's current speed.

    The loop walks ~7 MB of distinct int objects at a large stride, so
    it slows with cache and memory contention as well as with the
    core's speed: on ``sim_overload``, scaling by an arithmetic-only
    loop left the quartile spread of 25-second medians at 5.5%, a
    loop doing both kinds of work at under 4%.  The data is built
    afresh and freed each time; it adds under 1 MB to an iteration's
    peak memory.
    """
    data = list(range(1 << 20, (1 << 20) + 200_003))
    size = len(data)
    started = time.perf_counter()
    total = j = 0
    for i in range(CALIBRATION_LOOPS):
        j = (j + 7919) % size
        total += data[j] * i % 7
    return time.perf_counter() - started


CALIBRATION_S = [calibrate()]
T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from tracing import (  # noqa: E402
    LAYERS,
    SpanRecorder,
    replace_everywhere,
    span_name,
)
from workloads import SIZES, WORKLOADS  # noqa: E402


def probe_engine() -> str:
    """The engine the CLI selects by default, via the CLI's own code.

    ``main`` routes its choice through ``$REPRO_SIM_ENGINE``; running
    its ``list`` subcommand sets that variable exactly as a CLI run
    would, without running an experiment.
    """
    import contextlib
    import io

    from repro.experiments import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["list"])
    return os.environ.get("REPRO_SIM_ENGINE", "")


def probe_run_cells(sink: list) -> None:
    """Keep each ``run_cells`` call's wall time and cell results."""
    original = sys.modules["repro.parallel.runner"].run_cells

    def probed(*args, **kwargs):
        started = time.perf_counter()
        results = original(*args, **kwargs)
        sink.append((time.perf_counter() - started, results))
        return results

    replace_everywhere(original, probed)


def pool_metrics(calls: list) -> dict[str, float]:
    """Pool cost from each cell's own ``WorkerStats.duration_s``.

    The critical path of a call is its busiest worker (cells summed by
    pid); ``pool_s`` is the call's wall time beyond it: spawn, pickling
    and result transfer.
    """
    cells, cell_sum, cell_max, pool_s, imbalance = 0, 0.0, 0.0, 0.0, 0.0
    for wall, results in calls:
        busy: dict[int, float] = {}
        for result in results:
            stats = result.stats
            busy[stats.pid] = busy.get(stats.pid, 0.0) + stats.duration_s
            cells += 1
            cell_sum += stats.duration_s
            cell_max = max(cell_max, stats.duration_s)
        if busy:
            critical = max(busy.values())
            pool_s += wall - critical
            imbalance = max(imbalance,
                            critical / (sum(busy.values()) / len(busy)))
    return {
        "parallel.cells": cells,
        "parallel.cell_s_sum": cell_sum,
        "parallel.cell_s_max": cell_max,
        "parallel.imbalance": imbalance,
        "parallel.pool_s": pool_s,
    }


def layer_metrics(recorder: SpanRecorder, wall_s: float, outcome,
                  lut: tuple[int, int]) -> dict[str, float]:
    """The traced run's per-layer metrics (see ``ledger.json``)."""

    def calls(module: str, qualname: str) -> tuple[int, float, int]:
        return recorder.by_name(span_name(module, qualname))

    gen_s = sum(calls(module, name)[1] for module, name in (
        ("repro.workloads.poisson", "PoissonWorkload.generate"),
        ("repro.experiments.serve_demo", "ramp_events"),
        ("repro.experiments.cluster_demo", "cluster_events")))
    builds, build_s, _ = calls("repro.disk.disk", "make_xp32150_disk")
    serves, serve_s, _ = calls("repro.sim.service", "DiskService.serve")
    _, lut_s, _ = calls("repro.sfc.lut", "curve_lut")
    char_calls, char_s, rows = calls("repro.core.batch",
                                     "characterize_batch")
    submit_s = sum(calls("repro.core.scheduler",
                         f"CascadedSFCScheduler.{name}")[1]
                   for name in ("submit", "submit_batch", "submit_many"))
    next_calls, next_s, _ = calls("repro.core.scheduler",
                                  "CascadedSFCScheduler.next_request")
    until_calls, until_s, _ = calls("repro.serve.server",
                                    "StreamingServer.run_until")
    open_calls, open_s, _ = calls("repro.serve.server",
                                  "StreamingServer.open_stream")
    _, decide_s, _ = calls("repro.cluster.controller",
                           "ClusterController.run")
    records, record_s, _ = calls("repro.store.sqlite",
                                 "SqliteRunStore.record")

    schedulers = recorder.instances.get("CascadedSFCScheduler", {}).values()
    queue = [s.dispatcher.stats() for s in schedulers]
    servers = [s.stats() for s in
               recorder.instances.get("StreamingServer", {}).values()]
    layer = dict(outcome.layer)
    if servers and "disk.queue_len_mean" not in layer:
        # fleet16: its result keeps no per-array queue or response
        # figures, so average the traced servers' own snapshots.
        layer["disk.queue_len_mean"] = (
            sum(s.mean_queue_length for s in servers) / len(servers))
        layer["sim.response_ms_mean"] = (
            sum(s.mean_response_ms for s in servers) / len(servers))
    decisions = layer.get("cluster.decisions", 0)

    metrics = {
        "workloads.gen_s": gen_s,
        "disk.builds": builds,
        "disk.build_s": build_s,
        "disk.serve_calls": serves,
        "disk.serve_s": serve_s,
        "disk.utilization": layer.get("disk.utilization", 0.0),
        "disk.queue_len_mean": layer.get("disk.queue_len_mean", 0.0),
        "sfc.lut_builds": lut[0],
        "sfc.lut_disk_loads": lut[1],
        "sfc.lut_s": lut_s,
        "core.characterize_calls": char_calls,
        "core.characterized": rows,
        "core.batch_size": rows / char_calls if char_calls else 0.0,
        "core.characterize_s": char_s,
        "core.submit_s": submit_s,
        "core.next_request_calls": next_calls,
        "core.next_request_s": next_s,
        "queue.heapifies": sum(q.get("heapify_total", 0) for q in queue),
        "queue.compactions": sum(q.get("compaction_total", 0)
                                 for q in queue),
        "sim.response_ms_mean": layer.get("sim.response_ms_mean", 0.0),
        "serve.run_until_calls": until_calls,
        "serve.requests_per_run_until": (outcome.retired / until_calls
                                         if until_calls else 0.0),
        "serve.run_until_s": until_s,
        "serve.open_stream_calls": open_calls,
        "serve.open_stream_s": open_s,
        "serve.shed": layer.get("serve.shed", 0),
        "serve.expired": layer.get("serve.expired", 0),
        "cluster.decisions": decisions,
        "cluster.decide_s": decide_s,
        "cluster.decide_us": decide_s / decisions * 1e6 if decisions else 0.0,
        "cluster.migrations": layer.get("cluster.migrations", 0),
        "faults.injected": sum(s.faults_injected for s in servers),
        "faults.retries": sum(s.fault_retries for s in servers),
        "faults.failures": sum(s.fault_failures for s in servers),
        "obs.spans": layer.get("obs.spans", 0),
        "store.records": records,
        "store.record_s": record_s,
        "store.bytes": layer.get("store.bytes", 0),
    }
    own = recorder.layer_self()
    for name in LAYERS:
        metrics[f"{name}.self_s"] = own[name]
    metrics["ledger.unattributed_share"] = (
        (wall_s - sum(own.values())) / wall_s)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--mode", choices=("untraced", "traced", "plain"),
                        default="untraced")
    parser.add_argument("--probe-cells", action="store_true")
    parser.add_argument("--spans", help="span JSONL path (traced mode)")
    parser.add_argument("--tmp", help="directory for scratch files")
    parser.add_argument("--probe-engine", action="store_true")
    args = parser.parse_args(argv)
    if args.probe_engine:
        print(json.dumps({"engine": probe_engine()}))
        return 0

    workload = WORKLOADS[args.workload]
    recorder = None
    untraced_targets: list[str] = []
    if args.mode == "traced":
        recorder = SpanRecorder(
            f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}")
        span = recorder.open("import repro", "import")
    for module in workload.modules:
        importlib.import_module(module)
    if recorder is not None:
        recorder.close(span)
        untraced_targets = recorder.install()
    from repro.sfc.lut import LUT_STATS

    lut0 = (LUT_STATS.builds, LUT_STATS.disk_loads)
    cell_calls: list = []
    if args.probe_cells:
        probe_run_cells(cell_calls)

    tmp = tempfile.mkdtemp(dir=args.tmp)
    try:
        state = workload.setup(args.seed, args.size, mode=args.mode,
                               tmp=tmp)
        t_setup = time.perf_counter()
        CALIBRATION_S.append(calibrate())
        t_run = time.perf_counter()
        raw = workload.run(state)
        t_end = time.perf_counter()
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        CALIBRATION_S.append(calibrate())
        outcome = workload.evaluate(state, raw)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "mode": args.mode,
        "engine": os.environ.get("REPRO_SIM_ENGINE", ""),
        "setup_s": t_setup - T0,
        "run_s": t_end - t_run,
        "wall_s": (t_setup - T0) + (t_end - t_run),
        "calibration_s": CALIBRATION_S,
        # Process tree: this process plus each pool worker, counted at
        # the largest worker's peak (the kernel keeps only that one).
        "peak_rss_mb": (own_kb + state.get("pool_workers", 0) * child_kb)
        / 1024.0,
        "digest": outcome.digest,
        "checks": outcome.checks,
        "ok": outcome.ok,
        "attempted": outcome.attempted,
        "retired": outcome.retired,
        "simulated": outcome.simulated,
        "phases": outcome.phases,
    }
    if cell_calls:
        report["pool"] = pool_metrics(cell_calls)
    if recorder is not None:
        lut = (LUT_STATS.builds - lut0[0], LUT_STATS.disk_loads - lut0[1])
        report["layers"] = layer_metrics(recorder, report["wall_s"],
                                         outcome, lut)
        report["spans"] = len(recorder.spans)
        report["untraced_targets"] = untraced_targets
        if args.spans:
            recorder.write_jsonl(args.spans, T0)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
