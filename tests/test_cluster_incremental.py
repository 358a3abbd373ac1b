"""Incremental cluster decision tier vs the full-fleet scan oracle.

``GlobalAdmission.route`` answers in O(log arrays) from incremental
indexes (reserved-budget accumulators, a lazy max-headroom heap, the
sorted least-reserved index); ``route_scan`` is the original O(arrays)
full-fleet ranking kept as the differential oracle.  These tests pin
the promise in ``route_scan``'s docstring: the fast path is
byte-identical to the scan — per decision field, across mixed
open/close/rebuild scripts, through whole controller replays, and
against the committed golden cluster trace on both paths.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ArrayBudget,
    ClusterController,
    GlobalAdmission,
    RouteDecision,
    make_placement,
)
from repro.disk.disk import FILE_BLOCK_BYTES, make_xp32150_disk
from repro.experiments.cluster_demo import (
    ClusterSpec,
    cluster_events,
    fault_plans,
    make_config,
)
from repro.serve import StreamSpec
from repro.serve.admission import ReservationAdmission

from .test_cluster_golden import GOLDEN_DIR, GOLDEN_SPEC


def build_admission(disk, arrays, placement, *, incremental,
                    disks=None):
    """One GlobalAdmission over ``arrays`` fresh budgets.

    ``disks`` maps array id to a per-array disk model; the default
    shares one model fleet-wide (the uniform-pricing shape the
    controller builds).
    """
    budgets = {
        i: ArrayBudget(i, ReservationAdmission(
            (disks or {}).get(i, disk),
            target_utilization=0.85,
            downgrade_limit=0.85,
            priority_levels=8))
        for i in range(arrays)
    }
    policy = make_placement(placement, list(budgets), seed=7)
    return GlobalAdmission(policy, budgets, incremental=incremental)


def decision_fields(decision):
    """Everything both paths must agree on.

    ``preferred`` is deliberately omitted: the fast path returns the
    prefix of the preference order it actually consulted, the scan the
    full order — the decision log records neither beyond the reason.
    """
    return (decision.decision, decision.array_id, decision.share,
            decision.rank, decision.reason)


#: Block sizes for the mixed-block script: the fleet-uniform share
#: memo must key on the block size as well as the rate.
MIXED_BLOCKS = (FILE_BLOCK_BYTES // 2, FILE_BLOCK_BYTES,
                2 * FILE_BLOCK_BYTES)


@pytest.mark.parametrize("placement, blocks", [
    pytest.param("ring", None, id="ring"),
    pytest.param("least-reserved", None, id="least-reserved"),
    pytest.param("ring", MIXED_BLOCKS, id="ring-mixed-blocks"),
    pytest.param("least-reserved", MIXED_BLOCKS,
                 id="least-reserved-mixed-blocks"),
])
def test_mixed_script_decisions_identical(disk, placement, blocks):
    """route == route_scan over a mixed open/close/rebuild script.

    ``blocks=None`` opens every stream at the default block size; the
    mixed-block cases also draw the block size per open.
    """
    fast = build_admission(disk, 5, placement, incremental=True)
    scan = build_admission(disk, 5, placement, incremental=False)
    rng = Random(11)
    placed: dict[int, tuple[int, float]] = {}
    rebuilding: set[int] = set()
    kinds = set()
    for step in range(400):
        roll = rng.random()
        if roll < 0.55 or not placed:
            key = rng.randrange(100_000)
            rate = rng.choice((0.375, 1.5))
            block_bytes = (FILE_BLOCK_BYTES if blocks is None
                           else rng.choice(blocks))
            spec = StreamSpec(rate_mbps=rate, block_bytes=block_bytes,
                              priorities=(rng.randrange(4),))
            exclude = (frozenset({rng.randrange(5)})
                       if rng.random() < 0.1 else frozenset())
            got = fast.route(key, spec, frozenset(rebuilding),
                             exclude=exclude)
            want = scan.route(key, spec, frozenset(rebuilding),
                              exclude=exclude)
            assert decision_fields(got) == decision_fields(want), step
            kinds.add(got.decision)
            if got.admitted:
                placed[key] = (got.array_id, got.share)
        elif roll < 0.8:
            key = rng.choice(sorted(placed))
            array_id, share = placed.pop(key)
            fast.release(array_id, share)
            scan.release(array_id, share)
        else:
            array_id = rng.randrange(5)
            flag = array_id not in rebuilding
            (rebuilding.add if flag else rebuilding.discard)(array_id)
            for admission in (fast, scan):
                admission.set_rebuilding(array_id, flag)
                admission.budgets[array_id].capacity_factor = (
                    0.6 if flag else 1.0)
    # Least-reserved placement spills only when its first choice is
    # full but a worse-ranked array still fits -- a window this script
    # does not reliably hit; the ring script must cover all three.
    needed = ({RouteDecision.ADMIT, RouteDecision.SPILL,
               RouteDecision.REJECT} if placement == "ring"
              else {RouteDecision.ADMIT, RouteDecision.REJECT})
    assert needed <= kinds, f"script must hit {needed}"
    assert fast.counters == scan.counters
    for array_id in fast.budgets:
        assert fast.budgets[array_id].reserved \
            == scan.budgets[array_id].reserved


def test_non_uniform_pricing_falls_back_to_scan(disk):
    """A fleet without one shared disk model disables the shared-share
    fast path (pricing is no longer provably uniform) but never
    changes a decision."""
    other = make_xp32150_disk()
    other.reset(0)
    disks = {2: other}
    fast = build_admission(disk, 4, "ring", incremental=True,
                           disks=disks)
    scan = build_admission(disk, 4, "ring", incremental=False,
                           disks=disks)
    assert not fast._uniform_pricing
    for key in range(120):
        spec = StreamSpec(rate_mbps=1.5)
        assert decision_fields(fast.route(key, spec)) \
            == decision_fields(scan.route(key, spec))
    assert fast.counters == scan.counters


@settings(max_examples=12, deadline=None)
@given(
    arrays=st.integers(min_value=2, max_value=6),
    users=st.integers(min_value=20, max_value=70),
    placement=st.sampled_from(["ring", "least-reserved"]),
    fail_one=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_controller_replay_incremental_matches_scan(
        arrays, users, placement, fail_one, seed):
    """Whole-controller differential: decision log, counters, reserved
    and resident tables byte-identical with the fast path on and off,
    including the failure -> rebuild -> migration window."""
    spec = replace(
        ClusterSpec(),
        arrays=arrays,
        users=users,
        user_interval_ms=200.0,
        tail_ms=4_000.0,
        stream_rate_mbps=1.5,
        block_bytes=FILE_BLOCK_BYTES,
        target_utilization=0.15,
        placement=placement,
        seed=seed,
        failure_array=1 if fail_one else None,
        failure_start_ms=3_000.0,
        failure_end_ms=6_000.0,
    )
    events = cluster_events(spec)
    plans = fault_plans(spec)

    def plan_of(incremental):
        controller = ClusterController(make_config(spec), plans,
                                       incremental=incremental)
        return controller.run(events, spec.until_ms)

    incremental, scan = plan_of(True), plan_of(False)
    assert incremental.serialize() == scan.serialize()
    assert incremental.counters == scan.counters
    assert incremental.reserved == scan.reserved
    assert incremental.resident == scan.resident


@pytest.mark.parametrize("incremental", [True, False])
def test_both_paths_match_golden_trace(incremental):
    """The committed golden cluster trace replays byte for byte on the
    incremental path and on the scan oracle alike."""
    golden = (GOLDEN_DIR / "cluster_trace.txt").read_bytes()
    controller = ClusterController(make_config(GOLDEN_SPEC),
                                   fault_plans(GOLDEN_SPEC),
                                   incremental=incremental)
    plan = controller.run(cluster_events(GOLDEN_SPEC),
                          GOLDEN_SPEC.until_ms)
    assert plan.serialize() == golden.rstrip(b"\n")
