"""The :class:`Observer`: one object carrying all three pillars.

An ``Observer`` owns a :class:`~repro.obs.span.SpanLog` (request
lifecycle tracing), a :class:`~repro.obs.registry.Registry` (metrics),
and a :class:`~repro.obs.profile.Profiler` (hot-path timings).  It is
threaded through the engine, server, and array constructors; every
component records through the observer's hook methods and never talks
to the pillars directly, so a single ``Observer()`` argument lights up
the whole stack.

The default everywhere is :data:`NULL_OBSERVER`, whose hooks are
no-ops and whose ``enabled`` flag is False.  Components normalize with
:func:`live` at construction time::

    self._obs = live(observer)      # None unless actually recording

so the per-event cost of disabled observability is one ``is not None``
branch — the bench gate in ``repro.experiments.bench`` asserts the
end-to-end overhead stays under 2%.

Time plumbing: the dispatcher layer is deliberately clock-free, so
time-aware callers (the scheduler, the serving loop) stamp
:attr:`Observer.now_ms` before delegating; dispatcher-facing hooks
(:meth:`on_enqueue`, :meth:`on_promote`, ...) use that stamp.  The
dispatcher's annotations (promote, preempt-insert, window) attach to a
request's open span and never reopen a closed one.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .profile import Profiler, profiled
from .registry import Registry
from .span import (
    PHASE_ARRIVAL,
    PHASE_CHARACTERIZE,
    PHASE_COMPLETE,
    PHASE_DISPATCH,
    PHASE_DROP,
    PHASE_ENQUEUE,
    PHASE_MISS,
    PHASE_PREEMPT_INSERT,
    PHASE_PROMOTE,
    PHASE_REQUEUE,
    PHASE_SERVICE,
    PHASE_WINDOW,
    SpanLog,
)

#: Bound on retained queue-depth samples (oldest dropped beyond this).
_DEPTH_SAMPLES_CAP = 200_000


class Observer:
    """Records request lifecycles, metrics, and hot-path timings."""

    enabled = True

    def __init__(self, *, span_capacity: int | None = None) -> None:
        self.spans = SpanLog(capacity=span_capacity)
        self.registry = Registry()
        self.profiler = Profiler(self.registry)
        #: Last simulation instant stamped by a time-aware caller.
        self.now_ms = 0.0
        #: (time_ms, depth) samples for the queue-depth timeline.
        self.queue_depth_samples: list[tuple[float, float]] = []
        self._wait_ms = self.registry.histogram(
            "request_wait_ms", "enqueue -> dispatch wait per request")
        self._service_ms = self.registry.histogram(
            "request_service_ms", "dispatch -> completion per request")
        self._response_ms = self.registry.histogram(
            "request_response_ms", "arrival -> completion per request")
        self._outcomes = {
            phase: self.registry.counter(
                f"requests_{phase}_total",
                f"requests that terminated as {phase}")
            for phase in (PHASE_COMPLETE, PHASE_MISS, PHASE_DROP)
        }
        self._depth_gauge = self.registry.gauge(
            "queue_depth", "scheduler queue depth at last sample")

    # -- profiling ---------------------------------------------------------

    def profiled(self):
        """Context manager activating the hot-path timers."""
        return profiled(self.profiler)

    # -- lifecycle hooks (time-aware callers) ------------------------------

    def on_arrival(self, request, now: float) -> None:
        self.now_ms = now
        self.spans.record(request.request_id, now, PHASE_ARRIVAL,
                          stream_id=getattr(request, "stream_id", -1),
                          detail={"deadline_ms": request.deadline_ms})

    def on_characterize(self, request, now: float,
                        stages: Iterable[tuple[str, float]],
                        vc: float) -> None:
        """Stage-by-stage encapsulator output for one request."""
        self.now_ms = now
        detail: dict[str, object] = {name: scalar
                                     for name, scalar in stages}
        detail["vc"] = vc
        self.spans.record(request.request_id, now, PHASE_CHARACTERIZE,
                          stream_id=getattr(request, "stream_id", -1),
                          detail=detail)

    def on_dispatch(self, request, now: float) -> None:
        self.now_ms = now
        self.spans.record(request.request_id, now, PHASE_DISPATCH)

    def on_service(self, request, now: float, *, seek_ms: float,
                   latency_ms: float, transfer_ms: float) -> None:
        """The physical service-time split of one dispatch."""
        self.now_ms = now
        self.spans.record(request.request_id, now, PHASE_SERVICE,
                          detail={"seek_ms": seek_ms,
                                  "latency_ms": latency_ms,
                                  "transfer_ms": transfer_ms})

    def on_complete(self, request, now: float, *,
                    missed: bool = False) -> None:
        """Request served to completion (``missed`` = after deadline)."""
        phase = PHASE_MISS if missed else PHASE_COMPLETE
        detail = {"deadline_ms": request.deadline_ms} if missed else None
        self._finish(request, now, phase, detail)

    def on_drop(self, request, now: float, reason: str) -> None:
        """Request left the system unserved (shed/expired/fault/...)."""
        self._finish(request, now, PHASE_DROP, {"reason": reason})

    def on_requeue(self, request, now: float, *, attempt: int) -> None:
        """A failed request re-entered the queue (fault retry)."""
        self.now_ms = now
        self.spans.record(request.request_id, now, PHASE_REQUEUE,
                          detail={"attempt": attempt})

    def on_queue_depth(self, now: float, depth: int) -> None:
        self.now_ms = now
        self._depth_gauge.set(depth)
        samples = self.queue_depth_samples
        samples.append((now, float(depth)))
        if len(samples) > _DEPTH_SAMPLES_CAP:
            del samples[: len(samples) // 2]

    def _finish(self, request, now: float, phase: str,
                detail: Mapping[str, object] | None) -> None:
        self.now_ms = now
        span = self.spans.record(request.request_id, now, phase,
                                 detail=detail)
        self._outcomes[phase].inc()
        wait = span.duration_between(PHASE_ENQUEUE, PHASE_DISPATCH)
        if wait is not None:
            self._wait_ms.observe(wait)
        dispatch = span.first(PHASE_DISPATCH)
        if dispatch is not None:
            self._service_ms.observe(now - dispatch.time_ms)
        arrival = span.arrival_ms
        if arrival is not None:
            self._response_ms.observe(now - arrival)

    # -- lifecycle hooks (clock-free dispatcher layer) ---------------------

    def on_enqueue(self, request, queue: str) -> None:
        """Request landed in dispatcher queue ``queue`` (``q``/``q'``)."""
        self.spans.record(request.request_id, self.now_ms, PHASE_ENQUEUE,
                          stream_id=getattr(request, "stream_id", -1),
                          detail={"queue": queue})

    def ensure_enqueued(self, request, now: float) -> None:
        """Fallback enqueue for schedulers that don't trace placement.

        The cascaded dispatcher records :meth:`on_enqueue` itself (with
        the real q/q' placement); baselines don't, so the harness calls
        this after ``submit`` — a no-op when the span already has an
        enqueue event.
        """
        self.now_ms = now
        span = self.spans.span(request.request_id,
                               stream_id=getattr(request, "stream_id", -1))
        if span.first(PHASE_ENQUEUE) is None:
            span.add(now, PHASE_ENQUEUE, {"queue": "q"})

    def on_preempt_insert(self, request, window: float) -> None:
        """Arrival preempted the service round (beat ``v_c`` by > w)."""
        self.spans.annotate(request.request_id, self.now_ms,
                            PHASE_PREEMPT_INSERT,
                            detail={"window": window})

    def on_promote(self, request_id: int, vc: float) -> None:
        """SP policy lifted a request from ``q'`` into ``q``."""
        self.spans.annotate(request_id, self.now_ms, PHASE_PROMOTE,
                            detail={"vc": vc})

    def on_window(self, request_id: int, window: float,
                  action: str) -> None:
        """ER policy changed the blocking window (expand/reset)."""
        self.registry.gauge(
            "dispatcher_window", "current ER blocking window").set(window)
        self.registry.counter(
            f"dispatcher_window_{action}_total",
            f"ER window {action}s").inc()
        if request_id >= 0:
            self.spans.annotate(request_id, self.now_ms, PHASE_WINDOW,
                                detail={"window": window,
                                        "action": action})

    # -- TraceLog sink (serving-layer reconciliation) ----------------------

    def on_trace_event(self, event) -> None:
        """Mirror serving-layer decisions that spans don't otherwise see.

        Installed as the server's :class:`~repro.serve.trace.TraceLog`
        sink; per-kind counters land in the registry, and stream-level
        decisions (admit/reject/downgrade/close/degrade) become
        registry counters only — request-level kinds are already
        covered by the richer span hooks.
        """
        self.registry.counter(
            f"trace_{event.kind}_total",
            f"serving-layer {event.kind} trace events").inc()

    # -- run-store export --------------------------------------------------

    def publish_into(self, record) -> None:
        """Export both pillars into a run-store record in place.

        The store-side counterpart of the export files the ``obs``
        demo writes: ``record.spans_jsonl`` gets the schema-versioned
        span JSONL text and ``record.metrics`` the registry snapshot
        (with registered pull collectors flushed), so the store
        consumes the existing pillars rather than inventing new ones.
        """
        record.spans_jsonl = self.spans.to_jsonl_text()
        record.metrics = self.registry.to_json()

    # -- registry pull integration -----------------------------------------

    def watch_scheduler(self, scheduler, prefix: str = "dispatcher"
                        ) -> None:
        """Pull dispatcher/queue operation counters at export time.

        Works with any scheduler whose ``dispatcher`` exposes
        :meth:`~repro.core.dispatcher.Dispatcher.stats` (the cascaded
        scheduler); others contribute nothing.
        """
        dispatcher = getattr(scheduler, "dispatcher", None)
        stats = getattr(dispatcher, "stats", None)
        if stats is None:
            return

        def pull() -> None:
            for key, value in stats().items():
                name = f"{prefix}_{key}"
                if key.endswith("_total"):
                    self.registry.counter(name).set_total(float(value))
                else:
                    self.registry.gauge(name).set(float(value))

        self.registry.on_collect(pull)

    def watch_faults(self, injector) -> None:
        """Pull :class:`~repro.faults.FaultInjector` lifetime counters."""

        def pull() -> None:
            counters = injector.counters
            self.registry.counter(
                "faults_injected_total",
                "failed service attempts").set_total(counters.injected)
            self.registry.counter(
                "faults_retries_total",
                "re-submissions after failures").set_total(counters.retries)
            self.registry.counter(
                "faults_gave_up_total",
                "requests abandoned after retry budget").set_total(
                    counters.gave_up)
            self.registry.gauge(
                "faults_penalty_ms",
                "service ms added by spikes/ramps").set(counters.penalty_ms)

        self.registry.on_collect(pull)

    def watch_cluster(self, controller) -> None:
        """Pull fleet-tier metrics from a cluster controller.

        Works with anything exposing ``metrics_snapshot() -> dict``
        (:class:`repro.cluster.ClusterController`): ``*_total`` keys
        export as counters, everything else as gauges, so global
        admission, spillover, migration, and per-array budget state
        land on the same scrape as the per-array server gauges.
        """
        snapshot = getattr(controller, "metrics_snapshot", None)
        if snapshot is None:
            return

        def pull() -> None:
            for name, value in snapshot().items():
                if name.endswith("_total"):
                    self.registry.counter(name).set_total(float(value))
                else:
                    self.registry.gauge(name).set(float(value))

        self.registry.on_collect(pull)


class NullObserver(Observer):
    """Shared do-nothing observer: every hook is a no-op.

    ``enabled`` is False, so components drop it at construction via
    :func:`live` and the hot paths never call into it at all.  The
    class still carries empty pillar objects so duck-typed access
    (``observer.registry``) is safe.
    """

    enabled = False

    def _noop(self, *args, **kwargs) -> None:
        return None

    on_arrival = _noop
    on_characterize = _noop
    on_dispatch = _noop
    on_service = _noop
    on_complete = _noop
    on_drop = _noop
    on_requeue = _noop
    on_queue_depth = _noop
    ensure_enqueued = _noop
    on_enqueue = _noop
    on_preempt_insert = _noop
    on_promote = _noop
    on_window = _noop
    on_trace_event = _noop
    publish_into = _noop
    watch_scheduler = _noop
    watch_faults = _noop


#: The process-wide default observer: observability off.
NULL_OBSERVER = NullObserver()


def live(observer: Observer | None) -> Observer | None:
    """Normalize an observer argument for hot-path use.

    Returns ``observer`` when it is actually recording, ``None`` for
    ``None`` / :data:`NULL_OBSERVER` / any disabled observer — so hot
    loops guard with a single ``is not None`` check.
    """
    if observer is None or not observer.enabled:
        return None
    return observer
