"""Unit tests for the serial cluster decision tier."""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterController,
    build_report,
)
from repro.faults import DiskFailure, FaultPlan
from repro.obs import Observer
from repro.serve import RampEvent, StreamSpec

MPEG = StreamSpec(rate_mbps=0.375)
#: ~10 MPEG streams fit one array at this ceiling.
TARGET = 0.12


def config(**overrides):
    base = dict(arrays=4, seed=7, target_utilization=TARGET,
                rebuild_capacity_factor=0.5, rebuild_extra_ms=2_000.0,
                migration_pause_ms=500.0)
    base.update(overrides)
    return ClusterConfig(**base)


def ramp(users, spacing_ms=100.0, spec=MPEG):
    return [RampEvent(i * spacing_ms, spec) for i in range(users)]


def failure_plans(array_id=1, start=3_000.0, end=5_000.0):
    return {array_id: FaultPlan(
        [DiskFailure(disk=0, start_ms=start, end_ms=end)], seed=7)}


class TestDecisionReplay:
    def test_decision_log_is_deterministic(self):
        def replay():
            controller = ClusterController(config(), failure_plans())
            return controller.run(ramp(60), 20_000.0).serialize()

        assert replay() == replay()

    def test_fleet_fills_then_rejects(self):
        controller = ClusterController(config())
        plan = controller.run(ramp(60), 20_000.0)
        per_array = int(TARGET / controller.budgets[0].share_for(MPEG))
        assert plan.accepted == 4 * per_array
        assert plan.counters["rejected"] == 60 - 4 * per_array
        assert sum(plan.resident.values()) == plan.accepted

    def test_timelines_are_sorted_and_balanced(self):
        controller = ClusterController(config(), failure_plans())
        plan = controller.run(ramp(60), 20_000.0)
        for entries in plan.timelines.values():
            times = [e.time_ms for e in entries]
            assert times == sorted(times)
            opened = {e.stream_key for e in entries
                      if e.action == "open"}
            closed = {e.stream_key for e in entries
                      if e.action == "close"}
            assert closed <= opened
            assert all(e.spec is not None for e in entries
                       if e.action == "open")


class TestFailureHandling:
    def run_with_failure(self):
        controller = ClusterController(config(), failure_plans())
        plan = controller.run(ramp(60), 20_000.0)
        return controller, plan

    def test_rebuild_degrades_then_restores_the_budget(self):
        controller, plan = self.run_with_failure()
        kinds = [d.kind for d in plan.decisions]
        assert "rebuild_start" in kinds and "rebuild_end" in kinds
        # rebuild ended inside the horizon: capacity restored.
        assert controller.budgets[1].capacity_factor == 1.0
        start = next(d for d in plan.decisions
                     if d.kind == "rebuild_start")
        end = next(d for d in plan.decisions if d.kind == "rebuild_end")
        # end = failure end + rebuild tail.
        assert end.time_ms == pytest.approx(5_000.0 + 2_000.0)
        assert start.time_ms == pytest.approx(3_000.0)

    def test_overhang_migrates_with_bounded_interruption(self):
        controller, plan = self.run_with_failure()
        assert plan.ledger.migrated >= 1
        assert plan.ledger.within_bound()
        assert plan.ledger.max_interruption_ms == pytest.approx(500.0)
        # The source array shrank to its degraded budget.
        migrations = [d for d in plan.decisions if d.kind == "migrate"]
        assert all(d.array_id == 1 for d in migrations)

    def test_migrated_streams_reopen_elsewhere_with_advanced_spec(self):
        controller, plan = self.run_with_failure()
        migrated = {d.stream_key for d in plan.decisions
                    if d.kind == "migrate"}
        assert migrated
        source_closes = {e.stream_key
                         for e in plan.timelines[1]
                         if e.action == "close"}
        assert migrated <= source_closes
        for key in migrated:
            reopened = [
                (array_id, e)
                for array_id, entries in plan.timelines.items()
                if array_id != 1
                for e in entries
                if e.action == "open" and e.stream_key == key
            ]
            assert len(reopened) == 1
            _, entry = reopened[0]
            assert entry.time_ms == pytest.approx(3_500.0)
            assert entry.spec.start_block >= MPEG.start_block

    def test_victims_are_lowest_priority_first(self):
        spec_hi = StreamSpec(rate_mbps=0.375, priorities=(0,))
        spec_lo = StreamSpec(rate_mbps=0.375, priorities=(7,))
        events = []
        for i in range(30):
            spec = spec_hi if i % 2 == 0 else spec_lo
            events.append(RampEvent(i * 100.0, spec))
        controller = ClusterController(config(), failure_plans())
        plan = controller.run(events, 20_000.0)
        moved = [d for d in plan.decisions
                 if d.kind in ("migrate", "migrate_drop")]
        assert moved
        victims = {d.stream_key for d in moved}
        # Every victim asked for the low QoS class.
        assert all(events[key].spec.priorities == (7,)
                   for key in victims)


class TestCrossReferences:
    """Fault plans and the failing array must name parts of the fleet."""

    def test_plan_for_missing_array_rejected(self):
        with pytest.raises(ValueError, match="array 4, but the fleet"):
            ClusterController(config(), failure_plans(array_id=4))

    def test_plan_for_negative_array_rejected(self):
        with pytest.raises(ValueError, match="array -1, but the fleet"):
            ClusterController(config(), failure_plans(array_id=-1))

    def test_disk_outside_stripe_rejected(self):
        plans = {0: FaultPlan(
            [DiskFailure(disk=5, start_ms=0.0, end_ms=1.0)], seed=7)}
        with pytest.raises(ValueError, match="disk 5, outside the 5-disk"):
            ClusterController(config(), plans)

    def test_spec_rejects_failure_array_outside_fleet(self):
        from repro.experiments.cluster_demo import ClusterSpec

        with pytest.raises(ValueError, match="failure_array 1 is not"):
            ClusterSpec(arrays=1)
        with pytest.raises(ValueError, match="failure_array 4 is not"):
            ClusterSpec(arrays=4, failure_array=4)
        assert ClusterSpec(arrays=1, failure_array=None).arrays == 1

    def test_spec_rejects_empty_fleet(self):
        from repro.experiments.cluster_demo import ClusterSpec

        with pytest.raises(ValueError, match="arrays must be >= 1"):
            ClusterSpec(arrays=0, failure_array=None)


class TestObservability:
    def test_snapshot_and_watch_cluster(self):
        controller = ClusterController(config(), failure_plans())
        observer = Observer()
        observer.watch_cluster(controller)
        controller.run(ramp(60), 20_000.0)
        observer.registry.collect()
        registry = observer.registry
        assert registry.counter(
            "cluster_streams_admitted_total").value > 0
        assert registry.counter("cluster_migrations_total").value >= 1
        assert registry.gauge("cluster_arrays").value == 4.0
        snapshot = controller.metrics_snapshot()
        assert snapshot["cluster_array1_advertised_limit"] == \
            pytest.approx(TARGET)

    def test_fleet_report_publish_and_json(self, tmp_path):
        controller = ClusterController(config(), failure_plans())
        plan = controller.run(ramp(60), 20_000.0)
        report = build_report(plan, [])  # zero rows: no serving ran
        registry = Observer().registry
        report.publish(registry)
        assert registry.counter(
            "cluster_fleet_accepted_total").value == plan.accepted
        path = report.write_json(str(tmp_path / "fleet.json"))
        import json
        data = json.loads(open(path).read())
        assert data["fleet"]["accepted"] == plan.accepted
        assert len(data["arrays"]) == 4
        assert data["fingerprint"] == report.fingerprint()
