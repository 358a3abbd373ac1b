"""Differential harness: the batched SoA engine vs the legacy oracle.

The batched engine (:mod:`repro.sim.batched`) exists purely for speed;
its correctness contract is one sentence: *for every accepted input,
``engine="batched"`` reproduces ``engine="legacy"`` bit for bit* --
every metric (including order-sensitive ``RunningStats`` float
accumulations), every timeline entry, and the unserved count.  These
tests pin that contract across the whole accepted input space:

* workloads: hypothesis-drawn Poisson streams, empty streams,
  simultaneous arrivals, negative arrival clamps;
* schedulers: every cascade preset (priorities-only, +deadline, full),
  the head-tracking ablation, all three dispatcher policies, and the
  EDF / SCAN-EDF baselines (which exercise the non-precomputed tier);
* knobs: ``drop_expired``, ``stop_at_ms`` truncation,
  ``recharacterize_every_ms`` refresh timers, live observers;
* the RAID-5 array path: fault plans (failure windows, transient
  errors, latency spikes, thermal ramps), static degraded mode,
  hot-spare rebuild.

A divergence here means the batched engine changed semantics -- fix
the engine, never the test.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    FULL_CASCADE,
    PRIORITY_DEADLINE,
    PRIORITY_ONLY,
    CascadedSFCConfig,
)
from repro.faults import (DiskFailure, FaultPlan, LatencySpike,
                          RetryPolicy, ThermalRamp, TransientErrors)
from repro.obs import Observer
from repro.parallel import baseline, cascaded, metrics_fingerprint
from repro.parallel.cells import ArrayWorkload, make_scheduler
from repro.sim import (
    ENGINES,
    resolve_engine,
    run_array_simulation,
    run_simulation,
)
from repro.sim.array import RebuildConfig
from repro.sim.service import constant_service, priority_scaled_service
from repro.workloads.poisson import PoissonWorkload


def workload(seed: int, count: int, dims: int = 3,
             mean_interarrival_ms: float = 3.0) -> list:
    return PoissonWorkload(
        count=count,
        mean_interarrival_ms=mean_interarrival_ms,
        priority_dims=dims,
        priority_levels=8,
        deadline_range_ms=(50.0, 400.0),
    ).generate(seed)


#: Scheduler references covering every submit/dispatch shape the
#: engine discriminates: the precomputed-key fast tier (plain
#: cascades), span characterization (head tracking), all dispatcher
#: policies, and plain baselines with no encapsulator at all.
SCHEDULER_REFS = {
    "full": cascaded(FULL_CASCADE.with_overrides(priority_levels=8)),
    "deadline": cascaded(
        PRIORITY_DEADLINE.with_overrides(priority_levels=8)),
    "priority-only": cascaded(
        PRIORITY_ONLY.with_overrides(priority_levels=8)),
    "track-head": cascaded(CascadedSFCConfig(
        priority_levels=8, seek_track_head=True)),
    "full-dispatcher": cascaded(CascadedSFCConfig(
        priority_levels=8, dispatcher="full")),
    "non-dispatcher": cascaded(CascadedSFCConfig(
        priority_levels=8, dispatcher="non")),
    "diagonal": cascaded(CascadedSFCConfig(
        priority_levels=8, sfc1="diagonal")),
    "edf": baseline("edf", priority_levels=8),
    "scan-edf": baseline("scan-edf", priority_levels=8),
}


def service_for(kind: str):
    if kind == "constant":
        return constant_service(2.5)
    if kind == "grid":
        # Every completion lands on the 2 ms arrival grid.
        return constant_service(2.0)
    if kind == "zero":
        return constant_service(0.0)
    if kind == "scaled":
        return priority_scaled_service(1.0, 0.8)
    from repro.disk.disk import make_xp32150_disk
    from repro.sim.service import DiskService
    disk = make_xp32150_disk()
    disk.reset(0)
    return DiskService(disk)


def fingerprint(result) -> tuple:
    timeline = None if result.timeline is None else tuple(result.timeline)
    return (result.scheduler_name, result.submitted, result.unserved,
            timeline, metrics_fingerprint(result.metrics))


def assert_engines_agree(requests, scheduler_key: str,
                         service_kind: str = "constant",
                         **kwargs) -> tuple:
    prints = {}
    for engine in ENGINES:
        scheduler = make_scheduler(SCHEDULER_REFS[scheduler_key])
        result = run_simulation(requests, scheduler,
                                service_for(service_kind),
                                priority_levels=8, record_timeline=True,
                                engine=engine, **kwargs)
        prints[engine] = fingerprint(result)
    assert prints["batched"] == prints["legacy"]
    return prints["legacy"]


# -- engine selection plumbing ---------------------------------------------

def test_resolve_engine_default_is_batched():
    assert resolve_engine(None) == "batched"
    assert resolve_engine("legacy") == "legacy"
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("vectorised")


# -- quick deterministic lane (always on, CI-sized) ------------------------

@pytest.mark.parametrize("scheduler_key", sorted(SCHEDULER_REFS))
def test_engines_identical_per_scheduler(scheduler_key):
    """Every scheduler shape agrees on a load heavy enough to queue."""
    requests = workload(17, 120, mean_interarrival_ms=1.5)
    assert_engines_agree(requests, scheduler_key)


def test_engines_identical_on_disk_service():
    """Real seek/rotation service: head state evolves identically."""
    requests = workload(23, 100, mean_interarrival_ms=2.0)
    assert_engines_agree(requests, "full", service_kind="disk")
    assert_engines_agree(requests, "track-head", service_kind="disk")


def test_engines_identical_with_drop_and_stop():
    requests = workload(5, 150, mean_interarrival_ms=1.0)
    assert_engines_agree(requests, "full", drop_expired=True)
    truncated = assert_engines_agree(requests, "full", stop_at_ms=120.0)
    # The stop must actually truncate, or the case proves nothing.
    assert truncated[2] > 0


def test_engines_identical_with_recharacterize():
    requests = workload(41, 140, mean_interarrival_ms=1.2)
    assert_engines_agree(requests, "full", recharacterize_every_ms=25.0)
    assert_engines_agree(requests, "track-head", service_kind="disk",
                         recharacterize_every_ms=40.0)


def test_engines_identical_edge_workloads():
    # Empty stream.
    assert_engines_agree([], "full")
    # One request.
    assert_engines_agree(workload(1, 1), "full")
    # Simultaneous arrivals (heap tie-order stress) and negative
    # arrival clamping.
    requests = workload(9, 80, mean_interarrival_ms=1.5)
    clumped = [r.__class__(**{**vars(r), "arrival_ms": -5.0 if i < 4
                              else float(int(r.arrival_ms // 10) * 10)})
               for i, r in enumerate(requests)]
    assert_engines_agree(clumped, "full")
    assert_engines_agree(clumped, "edf")


def test_engines_identical_with_observer():
    """A live observer forces the per-arrival path; hook order and the
    observed registry must match the legacy run exactly."""
    requests = workload(13, 90, mean_interarrival_ms=1.8)
    prints = {}
    exports = {}
    for engine in ENGINES:
        observer = Observer()
        scheduler = make_scheduler(SCHEDULER_REFS["full"])
        result = run_simulation(requests, scheduler, constant_service(2.5),
                                priority_levels=8, record_timeline=True,
                                observer=observer, engine=engine)
        prints[engine] = fingerprint(result)
        exports[engine] = observer.registry.to_prometheus()
    assert prints["batched"] == prints["legacy"]
    assert exports["batched"] == exports["legacy"]


# -- event-loop tie and boundary cases --------------------------------------

def on_grid(requests, step_ms: float = 2.0) -> list:
    """``requests`` with arrivals snapped down to a ``step_ms`` grid:
    several arrivals share an instant, and some instants have none."""
    return [r.__class__(**{**vars(r), "arrival_ms":
                           float(int(r.arrival_ms // step_ms)) * step_ms})
            for r in requests]


@pytest.mark.parametrize("scheduler_key", sorted(SCHEDULER_REFS))
@pytest.mark.parametrize("knobs", [
    {},
    {"drop_expired": True, "recharacterize_every_ms": 4.0},
], ids=["plain", "drop+refresh"])
def test_engines_identical_on_completion_instants(scheduler_key, knobs):
    """Arrivals exactly on completion (and refresh) instants: every
    tie between an arrival, the in-flight completion and the refresh
    timer must break as in the legacy heap."""
    requests = on_grid(workload(31, 160, mean_interarrival_ms=1.4))
    legacy = assert_engines_agree(requests, scheduler_key,
                                  service_kind="grid", **knobs)
    arrivals = {r.arrival_ms for r in requests}
    # The ties must actually occur, or the case proves nothing.
    assert any(entry.end_ms in arrivals and not entry.dropped
               for entry in legacy[3])


@pytest.mark.parametrize("scheduler_key", ["full", "track-head", "edf"])
@pytest.mark.parametrize("drop_expired", [False, True])
def test_engines_identical_on_zero_duration_service(scheduler_key,
                                                    drop_expired):
    """A completion at its own dispatch instant still queues behind the
    arrivals that share that instant."""
    requests = on_grid(workload(37, 120, mean_interarrival_ms=1.0))
    legacy = assert_engines_agree(requests, scheduler_key,
                                  service_kind="zero",
                                  drop_expired=drop_expired)
    assert all(entry.start_ms == entry.end_ms for entry in legacy[3])


@pytest.mark.parametrize("clamped", [False, True],
                         ids=["first-arrival-positive", "clamped-to-0"])
def test_engines_identical_on_stop_boundaries(clamped):
    """``stop_at_ms`` at 0, below 0 and exactly at the first arrival:
    an arrival at the stop instant fires, one after it never does."""
    requests = workload(43, 60, mean_interarrival_ms=2.0)
    if clamped:
        requests = [r.__class__(**{**vars(r), "arrival_ms": -3.0})
                    if i < 3 else r for i, r in enumerate(requests)]
    first = max(min(r.arrival_ms for r in requests), 0.0)
    assert (first == 0.0) == clamped
    for stop in (0.0, -1.0, first):
        for key in ("full", "track-head", "edf"):
            legacy = assert_engines_agree(requests, key, stop_at_ms=stop)
            fired = len(legacy[3]) + legacy[2]
            assert fired == (0 if stop < first else
                             sum(max(r.arrival_ms, 0.0) == first
                                 for r in requests))


@pytest.mark.parametrize("scheduler_key", ["full", "track-head",
                                           "full-dispatcher", "edf"])
def test_engines_identical_with_drop_stop_and_refresh(scheduler_key):
    # Deadlines of 5-35 ms under 2.8x overload, so drops start early.
    requests = [r.__class__(**{**vars(r), "deadline_ms":
                               r.arrival_ms + 5.0 + 5.0 * (i % 7)})
                for i, r in enumerate(
                    workload(47, 200, mean_interarrival_ms=0.9))]
    stop = max(r.arrival_ms for r in requests) * 0.6
    legacy = assert_engines_agree(requests, scheduler_key,
                                  drop_expired=True, stop_at_ms=stop,
                                  recharacterize_every_ms=7.0)
    assert legacy[2] > 0                                 # truncated
    assert any(entry.dropped for entry in legacy[3])     # drops fired


# -- hypothesis battery (single disk) --------------------------------------

@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    count=st.integers(10, 180),
    interarrival=st.sampled_from((0.8, 1.6, 3.0, 8.0)),
    scheduler_key=st.sampled_from(sorted(SCHEDULER_REFS)),
    service_kind=st.sampled_from(("constant", "scaled", "disk")),
    drop_expired=st.booleans(),
    recharacterize=st.sampled_from((None, 15.0, 60.0)),
    stop_fraction=st.sampled_from((None, 0.25, 0.75)),
)
def test_engine_differential_battery(seed, count, interarrival,
                                     scheduler_key, service_kind,
                                     drop_expired, recharacterize,
                                     stop_fraction):
    requests = workload(seed, count, mean_interarrival_ms=interarrival)
    stop_at = None
    if stop_fraction is not None and requests:
        last = max(r.arrival_ms for r in requests)
        stop_at = last * stop_fraction
    assert_engines_agree(requests, scheduler_key,
                         service_kind=service_kind,
                         drop_expired=drop_expired,
                         recharacterize_every_ms=recharacterize,
                         stop_at_ms=stop_at)


# -- RAID-5 array path ------------------------------------------------------

def fault_variants(seed: int) -> list[FaultPlan | None]:
    return [
        None,
        FaultPlan([DiskFailure(disk=1, start_ms=100.0, end_ms=350.0)],
                  seed=seed),
        FaultPlan([
            DiskFailure(disk=2, start_ms=200.0, end_ms=500.0),
            TransientErrors(disk=4, start_ms=50.0, end_ms=700.0,
                            probability=0.3),
            LatencySpike(disk=0, start_ms=0.0, end_ms=250.0,
                         extra_ms=6.0),
            ThermalRamp(disk=3, start_ms=100.0, end_ms=600.0,
                        peak_factor=1.8),
        ], seed=seed),
    ]


def array_fingerprint(result) -> tuple:
    return (
        metrics_fingerprint(result.logical_metrics),
        tuple(metrics_fingerprint(m) for m in result.disk_metrics),
        result.physical_ops, result.retries, result.failed_logical,
        result.rebuild_ops,
    )


def run_array_both(requests, **kwargs) -> tuple:
    prints = {}
    for engine in ENGINES:
        prints[engine] = array_fingerprint(run_array_simulation(
            requests,
            lambda: make_scheduler(baseline("scan", priority_levels=4)),
            priority_levels=4, engine=engine, **kwargs,
        ))
    assert prints["batched"] == prints["legacy"]
    return prints["legacy"]


def test_array_engines_identical_quick():
    requests = ArrayWorkload(count=120).generate(31)
    run_array_both(requests)
    run_array_both(requests, fault_plan=fault_variants(31)[2],
                   retry_policy=RetryPolicy())


def test_array_engines_identical_degraded_and_rebuild():
    requests = ArrayWorkload(count=100).generate(7)
    run_array_both(requests, failed_disk=2)
    run_array_both(requests,
                   fault_plan=fault_variants(7)[1],
                   retry_policy=RetryPolicy(),
                   rebuild=RebuildConfig(stripes=8, interval_ms=40.0),
                   recharacterize_every_ms=80.0)


@pytest.mark.slow
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    count=st.integers(60, 160),
    variant=st.integers(0, 2),
)
def test_array_engine_battery(seed, count, variant):
    """Array runs agree under every fault variant."""
    requests = ArrayWorkload(count=count).generate(seed)
    run_array_both(requests,
                   fault_plan=fault_variants(seed)[variant],
                   retry_policy=RetryPolicy())


def test_array_engines_identical_double_failure_and_rebuild():
    """Overlapping failure windows: RAID-5 abandons logical requests
    caught with two members down, mid-stripe ops retry, and the
    hot-spare rebuild competes through the member schedulers — the
    batched lane columns must reproduce every ledger bit-for-bit."""
    requests = ArrayWorkload(count=110).generate(19)
    plan = FaultPlan([
        DiskFailure(disk=1, start_ms=60.0, end_ms=400.0),
        DiskFailure(disk=3, start_ms=120.0, end_ms=350.0),
    ], seed=19)
    prints = run_array_both(requests, fault_plan=plan,
                            retry_policy=RetryPolicy(),
                            rebuild=RebuildConfig(stripes=12,
                                                  interval_ms=30.0))
    _, _, _, retries, failed_logical, rebuild_ops = prints
    # The case must actually exercise what it claims to pin.
    assert retries > 0
    assert failed_logical > 0
    assert rebuild_ops > 0


@pytest.mark.slow
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    count=st.integers(50, 140),
    double=st.booleans(),
    stripes=st.sampled_from((4, 8, 16)),
    interval=st.sampled_from((20.0, 45.0)),
    spare=st.booleans(),
    transients=st.booleans(),
)
def test_array_rebuild_battery(seed, count, double, stripes, interval,
                               spare, transients):
    """Hypothesis sweep of the batched array tier's fault surface:
    failure windows (single and overlapping double — the abandonment
    path), mid-stripe parity retries, transient errors, and hot-spare
    rebuild pacing, asserting ledger/metric bit-identity throughout."""
    faults = [DiskFailure(disk=1, start_ms=80.0, end_ms=420.0)]
    if double:
        faults.append(DiskFailure(disk=3, start_ms=150.0, end_ms=380.0))
    if transients:
        faults.append(TransientErrors(disk=2, start_ms=40.0, end_ms=500.0,
                                      probability=0.25))
    requests = ArrayWorkload(count=count).generate(seed)
    run_array_both(requests,
                   fault_plan=FaultPlan(faults, seed=seed),
                   retry_policy=RetryPolicy(),
                   rebuild=RebuildConfig(stripes=stripes,
                                         interval_ms=interval,
                                         spare=spare))
