"""Differential harness: the batched serving engine vs the legacy oracle.

The batched serving loop (:meth:`StreamingServer._serve`) exists
purely for speed; its correctness contract is one sentence:
*for every accepted input, ``engine="batched"`` reproduces
``engine="legacy"`` bit for bit* — the serialized trace (including
``repr`` float formatting), every :class:`ServerStats` field, and the
metrics fingerprint.  These tests pin that contract across the
serving-layer input space:

* admission policies: reservation / measurement / always;
* overload handling: lowest-priority shedding at small queue bounds
  and pure backpressure (``shed_policy="none"``);
* fault plans (outages, transient errors) with retry/backoff, plus
  graceful degradation in both ``shed`` and ``downgrade`` modes;
* periodic queue re-characterization;
* session lifecycle: bounded titles retiring mid-run, explicit closes,
  mixed rates/priorities/write flags;
* live observers: an observed batched run matches the unobserved one
  and records the legacy engine's span log (Section 6 ramp, and a
  faulted ramp in degrade mode);
* the golden serve ramp and golden cluster scenario replayed through
  the batched serving engine at ``--jobs`` 1 and 4.

A divergence here means the batched serving engine changed semantics —
fix the engine, never the test.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_report
from repro.disk.disk import make_xp32150_disk
from repro.experiments.cluster_demo import _cells
from repro.experiments.faults_scenario import serialize_trace
from repro.experiments.serve_demo import (
    ServeSpec,
    build_server,
    make_scheduler,
    ramp_events,
)
from repro.faults import (
    DiskFailure,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    TransientErrors,
)
from repro.obs import Observer
from repro.parallel import metrics_fingerprint, run_cells, run_cluster_cell
from repro.serve import (
    ServerConfig,
    SessionManager,
    StreamSpec,
    StreamingServer,
    VirtualClock,
    make_admission,
    run_ramp_online,
)
from repro.sim import ENGINES
from repro.sim.service import DiskService

LEVELS = 8


def fault_variants(seed: int) -> list[FaultPlan | None]:
    return [
        None,
        FaultPlan([DiskFailure(disk=0, start_ms=2_000.0, end_ms=3_500.0)],
                  seed=seed),
        FaultPlan([
            DiskFailure(disk=0, start_ms=1_000.0, end_ms=2_200.0),
            TransientErrors(disk=0, start_ms=0.0, end_ms=9_000.0,
                            probability=0.25),
        ], seed=seed),
    ]


def make_server(engine: str, *, seed: int = 5, policy: str = "always",
                scheduler: str = "cascaded-sfc",
                fault_plan: FaultPlan | None = None,
                config: ServerConfig | None = None,
                observer: Observer | None = None) -> StreamingServer:
    disk = make_xp32150_disk()
    disk.reset(0)
    kwargs = {"priority_levels": LEVELS} if policy == "reservation" else {}
    faults = None
    if fault_plan is not None:
        faults = FaultInjector(fault_plan, policy=RetryPolicy(
            max_attempts=3, abort_ms=2.0, backoff_ms=150.0))
    return StreamingServer(
        make_scheduler(scheduler),
        DiskService(disk),
        SessionManager(disk.geometry, seed=seed),
        make_admission(policy, disk, **kwargs),
        clock=VirtualClock(),
        config=config,
        faults=faults,
        observer=observer,
        engine=engine,
    )


def drive(server: StreamingServer, *, users: int, interval_ms: float,
          tail_ms: float = 8_000.0, close_every: int = 0) -> None:
    """A deterministic open/close script exercising every code path:
    mixed rates and priorities, bounded titles (mid-run retirement),
    write streams, and optional explicit closes."""
    open_ids: list[int] = []
    for user in range(users):
        server.run_until(user * interval_ms)
        rate = (1.5, 0.75, 0.375)[user % 3]
        blocks = (None, None, 12, None, 5)[user % 5]
        _result, session = server.open_stream(StreamSpec(
            rate_mbps=rate,
            priorities=((user * 3) % LEVELS,),
            start_block=(user * 977) % 30_000,
            blocks=blocks,
            is_write=user % 4 == 0,
            value=float(LEVELS - 1 - (user * 3) % LEVELS),
        ))
        if session is not None:
            open_ids.append(session.stream_id)
        if close_every and user % close_every == close_every - 1:
            while open_ids:
                sid = open_ids.pop(0)
                if sid in server.manager.sessions:
                    server.close_stream(sid)
                    break
    server.run_until(users * interval_ms + tail_ms)


def fingerprint(server: StreamingServer) -> tuple:
    return (serialize_trace(server), server.stats(),
            metrics_fingerprint(server.metrics))


def assert_engines_agree(**scenario) -> tuple:
    drive_kwargs = {
        k: scenario.pop(k)
        for k in ("users", "interval_ms", "tail_ms", "close_every")
        if k in scenario
    }
    prints = {}
    for engine in ENGINES:
        server = make_server(engine, **scenario)
        drive(server, **drive_kwargs)
        prints[engine] = fingerprint(server)
    assert prints["batched"] == prints["legacy"]
    return prints["legacy"]


# -- quick deterministic lane (always on, CI-sized) ------------------------

@pytest.mark.parametrize("policy",
                         ("reservation", "measurement", "always"))
def test_engines_identical_per_policy(policy):
    """Every admission policy agrees on the ramp demo's own path
    (decisions, trace, and stats) through ``ServeSpec.engine``."""
    spec = replace(ServeSpec(), max_users=40, user_interval_ms=120.0,
                   tail_ms=4_000.0, policy=policy)
    prints = {}
    for engine in ENGINES:
        server = build_server(replace(spec, engine=engine),
                              sink=lambda line: None)
        decisions = run_ramp_online(server, ramp_events(spec),
                                    spec.until_ms)
        prints[engine] = (decisions, fingerprint(server))
    assert prints["batched"] == prints["legacy"]


def test_engines_identical_under_overload_shedding():
    """A tight queue bound forces the bulk shed path every group."""
    prints = assert_engines_agree(
        users=60, interval_ms=40.0,
        config=ServerConfig(max_queue=8, priority_levels=LEVELS),
    )
    assert prints[1].preempted > 0  # the scenario actually sheds


def test_engines_identical_under_backpressure():
    """shed_policy="none" defers polls while the queue is full (the
    backpressure path of the same loop) — outcomes must still match."""
    assert_engines_agree(
        users=50, interval_ms=50.0,
        config=ServerConfig(max_queue=8, shed_policy="none",
                            priority_levels=LEVELS),
    )


@pytest.mark.parametrize("degrade_policy", ("shed", "downgrade"))
def test_engines_identical_under_faults_and_degrade(degrade_policy):
    prints = assert_engines_agree(
        users=40, interval_ms=60.0,
        fault_plan=fault_variants(11)[2],
        config=ServerConfig(max_queue=32, priority_levels=LEVELS,
                            degrade_after=3, degrade_window_ms=2_000.0,
                            degrade_policy=degrade_policy,
                            degrade_victims=2),
    )
    assert prints[1].degrade_entries > 0  # degraded mode really trips


def test_engines_identical_with_recharacterize():
    assert_engines_agree(
        users=40, interval_ms=80.0,
        config=ServerConfig(max_queue=32, priority_levels=LEVELS,
                            recharacterize_ms=500.0),
    )


def test_engines_identical_with_closes_and_bounded_titles():
    """Bounded titles retire mid-span; explicit closes interleave."""
    assert_engines_agree(users=45, interval_ms=70.0, close_every=6)


def test_engines_identical_on_baseline_scheduler():
    """A baseline scheduler without an SFC encapsulator."""
    assert_engines_agree(users=40, interval_ms=50.0, scheduler="edf",
                         config=ServerConfig(max_queue=16,
                                             priority_levels=LEVELS))


# -- observed runs step through the same loop -----------------------------

def sorted_span_log(observer: Observer) -> list[dict]:
    """The exported span JSONL, one parsed span per request id."""
    spans = [json.loads(line)
             for line in observer.spans.to_jsonl_text().splitlines()]
    return sorted(spans, key=lambda span: span["request_id"])


def section6_ramp(engine: str, observer: Observer | None) -> StreamingServer:
    spec = replace(ServeSpec(), engine=engine)
    server = build_server(spec, sink=lambda line: None, observer=observer)
    run_ramp_online(server, ramp_events(spec), spec.until_ms)
    return server


def faulted_degrade_ramp(engine: str,
                         observer: Observer | None) -> StreamingServer:
    server = make_server(
        engine, fault_plan=fault_variants(11)[2], observer=observer,
        config=ServerConfig(max_queue=32, priority_levels=LEVELS,
                            degrade_after=3, degrade_window_ms=2_000.0,
                            degrade_victims=2))
    drive(server, users=40, interval_ms=60.0)
    assert server.degrade_entries > 0  # degraded mode really trips
    return server


@pytest.mark.parametrize("scenario", (section6_ramp, faulted_degrade_ramp))
def test_observed_batched_run_matches_unobserved_and_legacy(scenario):
    """A live observer does not move the batched engine off its loop:
    the observed run traces, counts and fingerprints like the
    unobserved one, and records the legacy engine's span log."""
    plain = scenario("batched", None)
    observer = Observer()
    observed = scenario("batched", observer)
    assert fingerprint(observed) == fingerprint(plain)
    legacy_observer = Observer()
    scenario("legacy", legacy_observer)
    spans = sorted_span_log(observer)
    assert spans  # the run really closed spans
    assert spans == sorted_span_log(legacy_observer)


# -- hypothesis battery ----------------------------------------------------

@pytest.mark.slow
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    users=st.integers(10, 60),
    interval=st.sampled_from((25.0, 60.0, 140.0)),
    policy=st.sampled_from(("reservation", "measurement", "always")),
    scheduler=st.sampled_from(("cascaded-sfc", "edf", "scan-edf")),
    fault_variant=st.integers(0, 2),
    shed=st.sampled_from(("lowest-priority", "none")),
    degrade_policy=st.sampled_from(("shed", "downgrade")),
    max_queue=st.sampled_from((8, 24, 64)),
    recharacterize=st.sampled_from((None, 400.0)),
    close_every=st.sampled_from((0, 5)),
)
def test_serve_engine_battery(seed, users, interval, policy, scheduler,
                              fault_variant, shed, degrade_policy,
                              max_queue, recharacterize, close_every):
    assert_engines_agree(
        seed=seed,
        users=users,
        interval_ms=interval,
        policy=policy,
        scheduler=scheduler,
        fault_plan=fault_variants(seed)[fault_variant],
        close_every=close_every,
        config=ServerConfig(
            max_queue=max_queue,
            shed_policy=shed,
            priority_levels=LEVELS,
            degrade_after=4,
            degrade_window_ms=2_500.0,
            degrade_policy=degrade_policy,
            recharacterize_ms=recharacterize,
        ),
    )


# -- golden replays through the batched serving engine ---------------------

def test_golden_serve_trace_through_batched_engine():
    """The pinned golden serve trace replays byte-identically with the
    serving engine forced to batched."""
    from tests.test_determinism_golden import (
        GOLDEN_DIR,
        GOLDEN_SPEC,
        serve_trace,
    )

    golden = (GOLDEN_DIR / "serve_trace.txt").read_bytes()
    trace = serve_trace(replace(GOLDEN_SPEC, engine="batched"))
    assert trace == golden.rstrip(b"\n")


@pytest.mark.parametrize("jobs", (1, 4))
def test_golden_cluster_through_batched_engine(jobs):
    """The golden cluster scenario — decision log and per-array
    serving digests — is identical through batched serving at any
    ``--jobs N``."""
    from tests.test_cluster_golden import (
        GOLDEN_DIR,
        GOLDEN_SPEC,
        decision_plan,
    )

    plan = decision_plan(GOLDEN_SPEC)
    golden = (GOLDEN_DIR / "cluster_trace.txt").read_bytes()
    assert plan.serialize() == golden.rstrip(b"\n")
    legacy = build_report(plan, run_cells(
        run_cluster_cell,
        _cells(replace(GOLDEN_SPEC, engine="legacy"), plan), jobs=1))
    batched = build_report(plan, run_cells(
        run_cluster_cell,
        _cells(replace(GOLDEN_SPEC, engine="batched"), plan), jobs=jobs))
    assert batched.fingerprint() == legacy.fingerprint()
    assert batched.as_dict() == legacy.as_dict()
