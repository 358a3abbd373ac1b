"""Satellite property: all four accounting pillars agree.

One seeded, saturating serve ramp is counted four independent ways --
per-stream QoS trackers, the global :class:`ServerStats` snapshot, the
engine :class:`MetricsCollector`, and the observer (span outcomes plus
registry counters).  Every served/missed/dropped tally must reconcile
exactly; observability is bookkeeping, not a second source of truth.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.serve_demo import ServeSpec, build_server, ramp_events
from repro.obs import Observer, validate_spans
from repro.obs.span import PHASE_COMPLETE, PHASE_DROP, PHASE_MISS
from repro.serve import run_ramp_online


def _observed_ramp(**overrides):
    params = dict(max_users=30, user_interval_ms=100.0,
                  tail_ms=3_000.0, seed=11, policy="always",
                  max_queue=24, stream_rate_mbps=6.0)
    params.update(overrides)
    spec = replace(ServeSpec(), **params)
    observer = Observer()
    server = build_server(spec, observer=observer)
    run_ramp_online(server, ramp_events(spec), spec.until_ms)
    return server, observer


class TestPillarsReconcile:
    @pytest.fixture(scope="class")
    def ramp(self):
        return _observed_ramp()

    def test_run_actually_saturates(self, ramp):
        """The scenario must exercise drops, or the test proves nothing."""
        server, _ = ramp
        stats = server.stats()
        assert stats.completed > 100
        assert stats.missed > 0
        assert stats.preempted > 0 and stats.expired > 0

    def test_spans_match_collector(self, ramp):
        server, observer = ramp
        outcomes = observer.spans.outcome_counts()
        metrics = server.metrics
        assert outcomes.get(PHASE_COMPLETE, 0) == metrics.served
        assert outcomes.get(PHASE_DROP, 0) == metrics.dropped
        # Served-past-deadline spans are PHASE_MISS; the serving layer
        # drops expired work instead of serving it late.
        assert outcomes.get(PHASE_MISS, 0) == 0

    def test_collector_matches_server_stats(self, ramp):
        server, _ = ramp
        stats = server.stats()
        metrics = server.metrics
        assert metrics.served == stats.completed - stats.missed
        assert metrics.missed == stats.missed
        assert (metrics.dropped
                == stats.preempted + stats.expired + stats.fault_failures)
        assert stats.miss_ratio == pytest.approx(
            stats.missed / stats.completed)

    def test_per_stream_qos_sums_to_global(self, ramp):
        server, _ = ramp
        stats = server.stats()
        assert sum(s.completed for s in stats.streams) == stats.completed
        assert sum(s.missed for s in stats.streams) == stats.missed

    def test_registry_counters_match_spans(self, ramp):
        server, observer = ramp
        observer.registry.collect()
        registry = observer.registry
        outcomes = observer.spans.outcome_counts()
        assert (registry.get("requests_complete_total").value
                == outcomes.get(PHASE_COMPLETE, 0))
        assert (registry.get("requests_drop_total").value
                == outcomes.get(PHASE_DROP, 0))
        # The pulled engine-collector counters agree too.
        assert (registry.get("serve_served_total").value
                == server.metrics.served)
        assert (registry.get("serve_dropped_total").value
                == server.metrics.dropped)
        # TraceLog sink mirror: one dispatch trace event per dispatch.
        assert (registry.get("trace_dispatch_total").value
                == server.stats().dispatched)

    def test_closed_spans_are_contract_valid(self, ramp):
        _, observer = ramp
        assert validate_spans(observer.spans.closed()) == []
        # Open spans are exactly the requests still in flight at cutoff.
        assert observer.spans.open_spans == (
            observer.spans.opened - observer.spans.closed_total)


class TestObserverDoesNotPerturb:
    def test_stats_identical_with_and_without_observer(self):
        spec = replace(ServeSpec(), max_users=12, user_interval_ms=250.0,
                       tail_ms=2_000.0, seed=23)
        baseline = build_server(spec)
        run_ramp_online(baseline, ramp_events(spec), spec.until_ms)
        observed, _ = _observed_ramp(
            max_users=12, user_interval_ms=250.0, tail_ms=2_000.0,
            seed=23, policy=spec.policy, max_queue=spec.max_queue,
            stream_rate_mbps=spec.stream_rate_mbps)
        a, b = baseline.stats(), observed.stats()
        assert (a.completed, a.missed, a.preempted, a.expired,
                a.dispatched, a.admitted, a.rejected) == (
            b.completed, b.missed, b.preempted, b.expired,
            b.dispatched, b.admitted, b.rejected)

    def test_default_ramp_has_no_promote_only_spans(self):
        """Shed victims stay in ``q'`` until dispatch discards them; an
        SP promotion of one must not reopen its closed span."""
        from repro.experiments import serve_demo

        observer = Observer()
        observed = serve_demo.run(ServeSpec(), observer=observer,
                                  sink=lambda line: None)
        plain = serve_demo.run(ServeSpec(), sink=lambda line: None)
        assert observed.trace == plain.trace
        open_phases = [{event.phase for event in span.events}
                       for span in observer.spans._open.values()]
        assert {"promote"} not in open_phases
        # Every open span is a request still in the system at cutoff.
        assert all("arrival" in phases for phases in open_phases)
