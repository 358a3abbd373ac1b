"""The benchmark's four workloads: seeded inputs, one run, its checks.

Each workload is an offline batch driven by one caller through the
public entry points the CLI subcommands use: the caller replays a
seeded, pre-generated script in simulated time and waits for every
call.  ``setup`` builds the inputs and everything constructed before
the first run call, ``run`` makes the run calls, and ``evaluate``
checks the outputs and reduces them to the benchmark's simulated
metrics.  No workload passes ``engine=``: the engine is whatever
``$REPRO_SIM_ENGINE`` selects, set the way the CLI sets it.

``repro`` is imported lazily (inside the methods), so the benchmark can
time the import as part of set-up.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, replace

#: The seed the recorded output digests (``digests.json``) belong to.
DEFAULT_SEED = 2004

#: Sizes every workload understands: ``full`` is the benchmark,
#: ``smoke`` the smallest pass the benchmark's own tests make.
SIZES = ("full", "smoke")

#: Worker processes of ``fleet16``'s serving cells (never above nproc).
FLEET_JOBS = 2


@dataclass
class Outcome:
    """What one run produced, reduced to checks, digests and metrics."""

    #: SHA-256 over the run's canonical output (trace or fingerprint).
    digest: str
    #: (name, ok, detail) output checks.
    checks: list[tuple[str, bool, str]]
    #: Simulated requests issued.
    attempted: int
    #: Simulated requests retired: completed, missed, shed or expired.
    retired: int
    #: Simulated end-to-end metrics; ``None`` where the workload's
    #: public result does not expose the quantity.
    simulated: dict[str, float | None]
    #: Simulated per-layer quantities read from public results.
    layer: dict[str, float] = field(default_factory=dict)
    #: Host seconds of named run phases, timed by the workload itself.
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def server_conservation(stats, attempts: int) -> list[tuple[str, bool, str]]:
    """``ServerStats`` request and stream conservation.

    Every issued request has left the system, is queued, or is the one
    in service; everything that left was dispatched, shed or expired;
    every open attempt was admitted, downgraded or rejected.
    """
    issued = sum(stream.issued for stream in stats.streams)
    in_flight = issued - stats.completed - stats.queue_length
    return [
        ("requests conserved", in_flight in (0, 1),
         f"issued {issued} = completed {stats.completed} + queued "
         f"{stats.queue_length} + in service {in_flight}"),
        ("departures conserved",
         stats.completed == (stats.dispatched - in_flight
                             + stats.preempted + stats.expired),
         f"completed {stats.completed} = dispatched {stats.dispatched} "
         f"- {in_flight} + shed {stats.preempted} + expired "
         f"{stats.expired}"),
        ("streams conserved", stats.attempts == attempts,
         f"{stats.attempts} decisions for {attempts} open attempts"),
    ]


def serve_simulated(stats, served: int | None = None,
                    seek_ms: float | None = None) -> dict[str, float | None]:
    """End-to-end simulated metrics of a serving run.

    A request misses when it is delivered late, shed, expired or never
    served before the run ends; seek is charged per request the disk
    served, where the run exposes it.
    """
    issued = sum(stream.issued for stream in stats.streams)
    unserved = issued - stats.completed
    return {
        "miss_ratio": (stats.missed + unserved) / issued,
        "inversions_per_request": None,
        "seek_ms_per_request": None if seek_ms is None else seek_ms / served,
        "accepted_streams": stats.admitted,
    }


def serve_layer(stats) -> dict[str, float]:
    return {
        "disk.utilization": stats.measured_utilization,
        "disk.queue_len_mean": stats.mean_queue_length,
        "sim.response_ms_mean": stats.mean_response_ms,
        "serve.shed": stats.preempted,
        "serve.expired": stats.expired,
    }


class Workload:
    """Interface: ``setup`` -> state, ``run(state)``, ``evaluate``."""

    name = ""
    #: Modules imported during set-up (import time counts as set-up).
    modules: tuple[str, ...] = ("repro",)

    def setup(self, seed: int, size: str, *, mode: str, tmp: str) -> dict:
        raise NotImplementedError

    def run(self, state: dict):
        raise NotImplementedError

    def evaluate(self, state: dict, raw) -> Outcome:
        raise NotImplementedError


class SimOverload(Workload):
    """``run_simulation`` on one disk at an offered load of ~1.25."""

    name = "sim_overload"
    modules = ("repro", "repro.parallel")
    REQUESTS = {"full": 60_000, "smoke": 1_500}

    def setup(self, seed, size, *, mode, tmp):
        from repro import CascadedSFCConfig, CascadedSFCScheduler
        from repro.sim.service import constant_service
        from repro.workloads import PoissonWorkload

        requests = PoissonWorkload(
            count=self.REQUESTS[size],
            mean_interarrival_ms=1.6,
            priority_dims=3,
            priority_levels=16,
            deadline_range_ms=(200.0, 1200.0),
        ).generate(seed)
        scheduler = CascadedSFCScheduler(
            CascadedSFCConfig(priority_dims=3, priority_levels=16,
                              sfc1="diagonal"),
            cylinders=3832,
        )
        return {"requests": requests, "scheduler": scheduler,
                "service": constant_service(2.0)}

    def run(self, state):
        from repro.sim import run_simulation

        return run_simulation(state["requests"], state["scheduler"],
                              state["service"], priority_levels=16)

    def evaluate(self, state, result):
        from repro.parallel import metrics_fingerprint

        metrics = result.metrics
        issued = len(state["requests"])
        digest = sha256(repr((
            result.scheduler_name, result.submitted, result.unserved,
            metrics_fingerprint(metrics),
        )).encode())
        checks = [
            ("every request submitted", result.submitted == issued,
             f"{result.submitted} of {issued}"),
            ("requests conserved",
             metrics.completed + result.unserved == result.submitted,
             f"completed {metrics.completed} + unserved "
             f"{result.unserved} = submitted {result.submitted}"),
        ]
        busy = metrics.busy_ms
        return Outcome(
            digest=digest,
            checks=checks,
            attempted=issued,
            retired=metrics.completed,
            simulated={
                "miss_ratio": (metrics.missed + result.unserved) / issued,
                "inversions_per_request": (metrics.total_inversions
                                           / metrics.served),
                "seek_ms_per_request": None,
                "accepted_streams": None,
            },
            layer={
                "disk.utilization": (busy / metrics.makespan_ms
                                     if metrics.makespan_ms else 0.0),
                "disk.queue_len_mean": metrics.queue_length.mean,
                "sim.response_ms_mean": metrics.response_ms.mean,
            },
        )


class ServeDense(Workload):
    """The always-admit serve ramp: dense serving spans, bulk shedding."""

    name = "serve_dense"
    modules = ("repro", "repro.experiments.serve_demo",
               "repro.experiments.faults_scenario")
    USERS = {"full": 900, "smoke": 120}
    TAIL_MS = {"full": 10_000.0, "smoke": 3_000.0}

    def setup(self, seed, size, *, mode, tmp):
        from repro.experiments import serve_demo

        spec = replace(
            serve_demo.ServeSpec(), max_users=self.USERS[size],
            user_interval_ms=50.0, policy="always",
            tail_ms=self.TAIL_MS[size], seed=seed,
        )
        events = serve_demo.ramp_events(spec)
        server = serve_demo.build_server(spec, sink=lambda line: None)
        return {"spec": spec, "events": events, "server": server}

    def run(self, state):
        from repro.serve import run_ramp_online

        return run_ramp_online(state["server"], state["events"],
                               state["spec"].until_ms)

    def evaluate(self, state, decisions):
        from repro.experiments.faults_scenario import serialize_trace

        server = state["server"]
        stats = server.stats()
        metrics = server.metrics
        checks = server_conservation(stats, len(state["events"]))
        checks.append(("one decision per attempt",
                       len(decisions) == len(state["events"]),
                       f"{len(decisions)} decisions"))
        return Outcome(
            digest=sha256(serialize_trace(server)),
            checks=checks,
            attempted=sum(stream.issued for stream in stats.streams),
            retired=stats.completed,
            # Inversions are not reported: over ten seeds of this ramp
            # their quartile spread exceeds 25% of the median.
            simulated=serve_simulated(stats, metrics.served,
                                      seek_ms=metrics.seek_ms),
            layer=serve_layer(stats),
        )


class ServeRecorded(Workload):
    """Section 6's ramp, observed and recorded into a fresh run store.

    Mode ``plain`` runs the same spec without observer or store; the
    benchmark subtracts it to price observation.
    """

    name = "serve_recorded"
    modules = ("repro", "repro.experiments.serve_demo",
               "repro.experiments.history", "repro.obs", "repro.store")

    def setup(self, seed, size, *, mode, tmp):
        from repro.experiments import serve_demo
        from repro.obs import Observer
        from repro.store import open_store

        spec = replace(serve_demo.ServeSpec(), seed=seed)
        if size == "smoke":
            spec = spec.quick()
        if mode == "plain":
            return {"spec": spec, "observer": None, "store": None}
        path = os.path.join(tmp, "runs.sqlite")
        return {"spec": spec, "observer": Observer(),
                "store": open_store(path), "path": path}

    def run(self, state):
        from repro.experiments import history, serve_demo

        started = time.perf_counter()
        result = serve_demo.run(state["spec"], observer=state["observer"])
        served = time.perf_counter()
        state["phases"] = {"serve_s": served - started}
        if state["store"] is not None:
            with state["store"] as store:
                state["run_id"] = history.record_serve(
                    store, state["spec"], result,
                    argv=("serve", "--record"), elapsed=served - started,
                    observer=state["observer"])
            state["phases"]["record_s"] = time.perf_counter() - served
        return result

    def evaluate(self, state, result):
        from repro.experiments.serve_demo import PAPER_BAND

        stats = result.stats
        checks = server_conservation(stats, len(result.events))
        lo, hi = PAPER_BAND
        checks.append(("accepted users/disk in paper band",
                       lo <= result.accepted_users <= hi,
                       f"{result.accepted_users} vs [{lo}, {hi}]"))
        layer = serve_layer(stats)
        observer = state["observer"]
        simulated = serve_simulated(stats)
        if observer is not None:
            checks.extend(self._observed_checks(state, result))
            # The observed run publishes its MetricsCollector into the
            # registry; that is where its seek total shows.  Inversions
            # are not reported: they swing ~30% from seed to seed.
            registry = observer.registry
            registry.collect()
            simulated = serve_simulated(
                stats, registry.get("serve_served_total").value,
                seek_ms=registry.get("serve_seek_ms").value)
            layer["obs.spans"] = observer.spans.opened
            layer["store.bytes"] = sum(
                os.path.getsize(state["path"] + suffix)
                for suffix in ("", "-wal", "-journal")
                if os.path.exists(state["path"] + suffix))
        return Outcome(
            digest=sha256(result.trace),
            checks=checks,
            attempted=sum(stream.issued for stream in stats.streams),
            retired=stats.completed,
            simulated=simulated,
            layer=layer,
            phases=state["phases"],
        )

    @staticmethod
    def _observed_checks(state, result):
        from repro.obs import validate_spans
        from repro.store import open_store

        violations = validate_spans(state["observer"].spans.closed())
        stored = open_store(state["path"]).get(state["run_id"])
        return [
            ("span contract", not violations,
             f"{len(violations)} violations"),
            ("stored run verifies on read-back", stored.verify(),
             f"run {state['run_id']}"),
            ("stored trace is the run's trace", stored.trace == result.trace,
             f"{len(stored.trace)} bytes"),
        ]


class Fleet16(Workload):
    """``cluster_demo.run`` on the full 16-array ``ClusterSpec()``."""

    name = "fleet16"
    modules = ("repro", "repro.experiments.cluster_demo")

    def setup(self, seed, size, *, mode, tmp):
        from repro import normalize_jobs
        from repro.experiments import cluster_demo

        spec = replace(cluster_demo.ClusterSpec(), seed=seed)
        if size == "smoke":
            spec = replace(spec.quick(), selfcheck=False)
        # The traced run serves its cells inline so its spans stay in
        # this process; timed runs fan out like `cluster --jobs 2`.
        jobs = 1 if mode == "traced" else min(FLEET_JOBS,
                                              os.cpu_count() or 1)
        workers = normalize_jobs(jobs)
        return {"spec": replace(spec, jobs=jobs),
                "pool_workers": min(workers, spec.arrays) if workers > 1
                else 0}

    def run(self, state):
        from repro.experiments import cluster_demo

        return cluster_demo.run(state["spec"])

    def evaluate(self, state, result):
        report = result.report
        ledger = report.plan.ledger
        return Outcome(
            digest=report.fingerprint(),
            checks=list(result.checks),
            attempted=report.completed,
            retired=report.completed,
            simulated={
                "miss_ratio": report.miss_ratio,
                "inversions_per_request": None,
                "seek_ms_per_request": None,
                "accepted_streams": report.accepted,
            },
            layer={
                "disk.utilization": report.mean_measured_utilization,
                "serve.shed": sum(a.preempted for a in report.arrays),
                "serve.expired": sum(a.expired for a in report.arrays),
                "cluster.decisions": len(report.plan.decisions),
                "cluster.migrations": ledger.migrated if ledger else 0,
            },
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (SimOverload(), ServeDense(), Fleet16(),
                     ServeRecorded())
}
