"""Tests for the metrics collector: the paper's exact definitions."""

from __future__ import annotations

import pytest

from repro.schedulers.fcfs import FCFSScheduler
from repro.sim import run_simulation
from repro.sim.metrics import MetricsCollector, linear_weights
from repro.sim.service import constant_service
from tests.conftest import make_request


class TestLinearWeights:
    def test_ratio_11_to_1(self):
        weights = linear_weights(8)
        assert weights[0] == pytest.approx(11.0)
        assert weights[-1] == pytest.approx(1.0)

    def test_linear_spacing(self):
        weights = linear_weights(8)
        diffs = [a - b for a, b in zip(weights, weights[1:])]
        assert all(d == pytest.approx(diffs[0]) for d in diffs)

    def test_single_level(self):
        assert linear_weights(1) == (11.0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_weights(0)


class TestShapeValidation:
    @pytest.mark.parametrize("dims, levels", [(1, 0), (0, 0), (2, -3),
                                              (-1, 8)])
    def test_rejects_bad_shape(self, dims, levels):
        with pytest.raises(ValueError, match="must be >= "):
            MetricsCollector(dims, levels)

    @pytest.mark.parametrize("engine", ["legacy", "batched"])
    def test_run_simulation_fails_before_serving(self, engine):
        """``priority_levels=0`` is rejected up front, not mid-run."""
        scheduler = FCFSScheduler()
        requests = [make_request(i, arrival_ms=float(i), priorities=(1,))
                    for i in range(3)]
        with pytest.raises(ValueError, match="priority_levels"):
            run_simulation(requests, scheduler, constant_service(1.0),
                           priority_levels=0, engine=engine)
        assert len(scheduler) == 0


class TestInversionCounting:
    def test_paper_definition(self):
        """Serving T counts, per dimension, waiting requests that beat T."""
        metrics = MetricsCollector(priority_dims=2, priority_levels=8)
        served = make_request(priorities=(4, 4))
        waiting = [
            make_request(priorities=(0, 7)),  # beats in dim 0 only
            make_request(priorities=(7, 0)),  # beats in dim 1 only
            make_request(priorities=(0, 0)),  # beats in both
            make_request(priorities=(7, 7)),  # beats in neither
            make_request(priorities=(4, 4)),  # equal: no inversion
        ]
        metrics.on_dispatch(served, waiting)
        assert metrics.inversions_by_dim == [2, 2]
        assert metrics.total_inversions == 4

    def test_accumulates_over_dispatches(self):
        metrics = MetricsCollector(priority_dims=1, priority_levels=8)
        served = make_request(priorities=(5,))
        better = make_request(priorities=(0,))
        metrics.on_dispatch(served, [better])
        metrics.on_dispatch(served, [better])
        assert metrics.total_inversions == 2


class TestDeadlineAccounting:
    def test_on_time_completion(self):
        metrics = MetricsCollector(1, 8)
        request = make_request(priorities=(3,), arrival_ms=0.0,
                               deadline_ms=100.0)
        metrics.on_complete(request, completion_ms=50.0)
        assert metrics.missed == 0
        assert metrics.served == 1
        assert metrics.misses_by_level(0) == [0] * 8

    def test_late_completion_is_a_miss(self):
        metrics = MetricsCollector(1, 8)
        request = make_request(priorities=(3,), deadline_ms=100.0)
        metrics.on_complete(request, completion_ms=150.0)
        assert metrics.missed == 1
        assert metrics.misses_by_level(0)[3] == 1

    def test_drop_counts_as_miss(self):
        metrics = MetricsCollector(1, 8)
        request = make_request(priorities=(2,), deadline_ms=100.0)
        metrics.on_complete(request, completion_ms=100.0, dropped=True)
        assert metrics.dropped == 1
        assert metrics.served == 0
        assert metrics.missed == 1
        assert metrics.completed == 1

    def test_relaxed_deadline_never_missed(self):
        metrics = MetricsCollector(1, 8)
        metrics.on_complete(make_request(priorities=(0,)), 1e12)
        assert metrics.missed == 0

    def test_miss_ratio_by_level(self):
        metrics = MetricsCollector(1, 4)
        for level, late in ((0, False), (0, True), (3, True)):
            request = make_request(priorities=(level,), deadline_ms=10.0)
            metrics.on_complete(request, 20.0 if late else 5.0)
        ratios = metrics.miss_ratio_by_level(0)
        assert ratios[0] == pytest.approx(0.5)
        assert ratios[3] == pytest.approx(1.0)
        assert ratios[1] == 0.0  # no requests at that level

    def test_response_time_tracked_for_served_only(self):
        metrics = MetricsCollector(1, 8)
        request = make_request(priorities=(0,), arrival_ms=10.0,
                               deadline_ms=1e9)
        metrics.on_complete(request, completion_ms=30.0)
        metrics.on_complete(request, completion_ms=50.0, dropped=True)
        assert metrics.response_ms.count == 1
        assert metrics.response_ms.mean == 20.0


class TestWeightedLoss:
    def test_matches_formula(self):
        metrics = MetricsCollector(1, 2)
        # Level 0: 1 of 2 missed; level 1: 1 of 1 missed.
        metrics.on_complete(make_request(priorities=(0,), deadline_ms=10.0),
                            5.0)
        metrics.on_complete(make_request(priorities=(0,), deadline_ms=10.0),
                            20.0)
        metrics.on_complete(make_request(priorities=(1,), deadline_ms=10.0),
                            20.0)
        weights = (11.0, 1.0)
        assert metrics.weighted_loss(weights) == pytest.approx(
            11.0 * 0.5 + 1.0 * 1.0
        )

    def test_default_weights(self):
        metrics = MetricsCollector(1, 8)
        metrics.on_complete(make_request(priorities=(0,), deadline_ms=1.0),
                            5.0)
        assert metrics.weighted_loss() == pytest.approx(11.0)

    def test_wrong_weight_count(self):
        metrics = MetricsCollector(1, 8)
        with pytest.raises(ValueError):
            metrics.weighted_loss((1.0, 2.0))


class TestServiceAndFairness:
    def test_service_accumulation(self):
        metrics = MetricsCollector(0, 8)
        metrics.on_service(1.0, 2.0, 3.0)
        metrics.on_service(1.0, 2.0, 3.0)
        assert metrics.seek_ms == 2.0
        assert metrics.busy_ms == 12.0
        assert metrics.utilization == pytest.approx(0.5)

    def test_utilization_empty(self):
        assert MetricsCollector(0, 8).utilization == 0.0

    def test_inversion_stddev(self):
        metrics = MetricsCollector(2, 8)
        metrics.inversions_by_dim = [10, 10]
        assert metrics.inversion_stddev() == 0.0
        metrics.inversions_by_dim = [0, 20]
        assert metrics.inversion_stddev() == 10.0

    def test_favored_dimension(self):
        metrics = MetricsCollector(3, 8)
        metrics.inversions_by_dim = [5, 1, 9]
        assert metrics.favored_dimension() == 1

    def test_favored_dimension_empty(self):
        with pytest.raises(ValueError):
            MetricsCollector(0, 8).favored_dimension()

    def test_makespan(self):
        metrics = MetricsCollector(0, 8)
        metrics.on_complete(make_request(), 100.0)
        metrics.on_complete(make_request(), 50.0)
        assert metrics.makespan_ms == 100.0
