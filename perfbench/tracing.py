"""In-memory spans around the public functions of each ``repro`` layer.

The benchmark's traced run wraps the entry points listed in
:data:`TARGETS` with spans that record name, layer, start, end and
parent.  All spans of one run share a run id, stay in memory, and are
written out once the run ends.  A span's *self time* is its duration
minus the time its child spans cover; summing self time by layer gives
the per-layer ledger, and whatever of the run's wall clock no span
covers is reported as unattributed.

Nothing inside ``src/repro`` is modified: functions are replaced in
every loaded ``repro`` module that holds a reference to them, and
methods are replaced on their class.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: (layer, module, qualified name) of every traced entry point.  The
#: layer is the ``repro`` package whose work the call stands for;
#: ``experiments`` covers the demo glue the CLI subcommands run.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("workloads", "repro.workloads.poisson", "PoissonWorkload.generate"),
    ("workloads", "repro.experiments.serve_demo", "ramp_events"),
    ("workloads", "repro.experiments.cluster_demo", "cluster_events"),
    ("disk", "repro.disk.disk", "make_xp32150_disk"),
    ("disk", "repro.sim.service", "DiskService.serve"),
    ("sfc", "repro.sfc.lut", "curve_lut"),
    ("core", "repro.core.batch", "characterize_batch"),
    ("core", "repro.core.scheduler", "CascadedSFCScheduler.submit"),
    ("core", "repro.core.scheduler", "CascadedSFCScheduler.submit_batch"),
    ("core", "repro.core.scheduler", "CascadedSFCScheduler.submit_many"),
    ("core", "repro.core.scheduler", "CascadedSFCScheduler.next_request"),
    ("sim", "repro.sim.server", "run_simulation"),
    ("serve", "repro.serve.adapter", "run_ramp_online"),
    ("serve", "repro.serve.server", "StreamingServer.run_until"),
    ("serve", "repro.serve.server", "StreamingServer.open_stream"),
    ("cluster", "repro.cluster.controller", "ClusterController.run"),
    ("cluster", "repro.cluster.report", "build_report"),
    ("parallel", "repro.parallel.runner", "run_cells"),
    ("parallel", "repro.parallel.cells", "run_cluster_cell"),
    ("store", "repro.store.sqlite", "SqliteRunStore.record"),
    ("experiments", "repro.experiments.serve_demo", "build_server"),
    ("experiments", "repro.experiments.serve_demo", "run"),
    ("experiments", "repro.experiments.cluster_demo", "run"),
    ("experiments", "repro.experiments.history", "record_serve"),
)

#: Every layer the ledger reports, in report order.  ``import`` is the
#: one-off cost of importing ``repro`` (timed by the benchmark itself).
LAYERS: tuple[str, ...] = (
    "import", "workloads", "disk", "sfc", "core", "sim", "serve",
    "cluster", "parallel", "store", "experiments",
)


def replace_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module's reference to ``original``
    (its definition and each ``from ... import``) at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = replacement


def span_name(module_name: str, qualname: str) -> str:
    """``core.batch:characterize_batch`` for ``repro.core.batch``."""
    return f"{module_name.removeprefix('repro.')}:{qualname}"


class SpanRecorder:
    """Collects spans of one run; a stack tracks the current parent.

    A span is the list ``[span_id, parent_id, name, layer, start, end,
    rows]`` (times from :func:`time.perf_counter`); ``rows`` is the
    batch size of calls that take a batch, else ``None``.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Objects whose traced methods ran, by type name (read back
        #: for the public counters of schedulers and servers).
        self.instances: dict[str, dict[int, object]] = {}

    def open(self, name: str, layer: str, rows: int | None = None) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1,
                name, layer, time.perf_counter(), None, rows]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, layer: str, *, method: bool):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if method:
                owner = args[0]
                recorder.instances.setdefault(
                    type(owner).__name__, {})[id(owner)] = owner
            rows = None
            if name.endswith(":characterize_batch") and len(args) > 1:
                rows = len(args[1])
            span = recorder.open(name, layer, rows)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(span)

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> list[str]:
        """Replace every target by its traced wrapper.

        Returns the targets the program no longer has (a later change
        may delete one); their time then shows as their callers'.
        """
        missing = []
        for layer, module_name, qualname in TARGETS:
            name = span_name(module_name, qualname)
            try:
                module = importlib.import_module(module_name)
                owner, _, attr = qualname.rpartition(".")
                cls = getattr(module, owner) if owner else module
                original = vars(cls)[attr]
            except (ImportError, AttributeError, KeyError):
                missing.append(name)
                continue
            if owner:
                setattr(cls, attr, self.wrap(original, name, layer,
                                             method=True))
            else:
                replace_everywhere(original, self.wrap(
                    original, name, layer, method=False))
        return missing

    # -- ledger -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span (duration minus child coverage).

        Calls are synchronous and single-threaded, so children never
        overlap: subtracting each child's duration from its parent is
        exact.
        """
        own = [span[5] - span[4] for span in self.spans]
        for span in self.spans:
            if span[1] >= 0:
                own[span[1]] -= span[5] - span[4]
        return own

    def by_name(self, name: str) -> tuple[int, float, int]:
        """(calls, total duration, total rows) of spans named ``name``."""
        calls, total, rows = 0, 0.0, 0
        for span in self.spans:
            if span[2] == name:
                calls += 1
                total += span[5] - span[4]
                rows += span[6] or 0
        return calls, total, rows

    def layer_self(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, own in zip(self.spans, self.self_times()):
            totals[span[3]] += own
        return totals

    def write_jsonl(self, path: str, origin: float) -> None:
        """One JSON object per span; times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for span_id, parent, name, layer, start, end, rows in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "layer": layer,
                    "start_s": start - origin, "end_s": end - origin,
                    "rows": rows,
                }, separators=(",", ":")) + "\n")
