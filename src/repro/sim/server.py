"""The disk server loop: arrivals -> scheduler -> service -> metrics.

``run_simulation`` replays a request stream against one scheduler and
one service model, producing a :class:`SimulationResult`.  It is the
single harness every experiment and baseline comparison runs through,
so all schedulers see byte-identical workloads and timing rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.request import DiskRequest
from repro.obs.observer import Observer, live
from repro.schedulers.base import Scheduler

from .engine import EventQueue
from .metrics import MetricsCollector
from .service import ServiceModel


@dataclass(frozen=True)
class TimelineEntry:
    """One dispatch in the service timeline (debug / visualization)."""

    request_id: int
    start_ms: float
    end_ms: float
    queue_length: int
    dropped: bool = False


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    scheduler_name: str
    metrics: MetricsCollector
    submitted: int
    #: Requests still queued when the run stopped (0 unless truncated).
    unserved: int
    #: Dispatch timeline, populated when run_simulation(record_timeline=True).
    timeline: list[TimelineEntry] | None = None

    @property
    def inversions(self) -> int:
        return self.metrics.total_inversions

    @property
    def misses(self) -> int:
        return self.metrics.missed

    @property
    def seek_ms(self) -> float:
        return self.metrics.seek_ms


#: ``"batched"`` is the default everywhere; ``"legacy"`` selects the
#: differential oracle.
ENGINES = ("legacy", "batched")


def resolve_engine(engine: str | None) -> str:
    """Validate the engine choice; None is the batched default."""
    if engine is None:
        return "batched"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


def run_simulation(requests: Sequence[DiskRequest],
                   scheduler: Scheduler,
                   service: ServiceModel,
                   *,
                   drop_expired: bool = False,
                   stop_at_ms: float | None = None,
                   priority_dims: int | None = None,
                   priority_levels: int = 16,
                   record_timeline: bool = False,
                   recharacterize_every_ms: float | None = None,
                   observer: Observer | None = None,
                   engine: str | None = None
                   ) -> SimulationResult:
    """Simulate serving ``requests`` (sorted by arrival) with ``scheduler``.

    Parameters
    ----------
    drop_expired:
        When True, a request whose deadline has already passed at
        dispatch time is dropped without consuming disk time (video
        frames are worthless after their display slot -- Section 6).
        When False, late requests are still served and merely counted
        as misses (Sections 5.2-5.3).
    stop_at_ms:
        Optional hard stop; requests still queued are reported in
        :attr:`SimulationResult.unserved`.
    priority_dims / priority_levels:
        Shape of the metrics tables; inferred from the first request
        when ``priority_dims`` is None.
    record_timeline:
        When True, the result carries one :class:`TimelineEntry` per
        dispatch (including drops) for debugging and visualization.
    recharacterize_every_ms:
        When set, the queue is periodically re-keyed to the *current*
        clock and head position via ``scheduler.recharacterize`` (a
        no-op for schedulers without one).  Off by default: the paper's
        baseline characterizes at insertion only, and the pinned golden
        traces assume that.
    observer:
        Optional :class:`repro.obs.Observer` recording request-lifecycle
        spans, registry metrics, and queue-depth samples for this run.
        Defaults to off (:data:`repro.obs.NULL_OBSERVER` semantics) with
        no behavioural or measurable timing impact.
    engine:
        ``"legacy"`` (the event-heap loop below) or ``"batched"`` (the
        structure-of-arrays engine in :mod:`repro.sim.batched`, which
        reproduces this loop's metrics, timeline, and QoS output
        bit-for-bit -- the differential tests pin it).  ``None`` runs
        batched.
    """
    if recharacterize_every_ms is not None and recharacterize_every_ms <= 0:
        raise ValueError("recharacterize_every_ms must be positive")
    engine = resolve_engine(engine)
    ordered = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
    if priority_dims is None:
        priority_dims = len(ordered[0].priorities) if ordered else 0
    for request in ordered:
        if len(request.priorities) != priority_dims:
            raise ValueError(
                f"request {request.request_id} has "
                f"{len(request.priorities)} priorities, expected "
                f"{priority_dims}"
            )
    metrics = MetricsCollector(priority_dims, priority_levels)

    obs = live(observer)
    if obs is not None:
        scheduler.bind_observer(obs)
        obs.watch_scheduler(scheduler)
        metrics.publish_into(obs.registry)

    if engine == "batched":
        from .batched import run_batched_simulation
        return run_batched_simulation(
            ordered, scheduler, service, metrics,
            drop_expired=drop_expired, stop_at_ms=stop_at_ms,
            record_timeline=record_timeline,
            recharacterize_every_ms=recharacterize_every_ms,
            observer=obs,
        )

    queue = EventQueue()
    state = _ServerState(scheduler, service, metrics, queue, drop_expired,
                         recharacterize_every_ms=recharacterize_every_ms,
                         observer=obs)
    if record_timeline:
        state.timeline = []

    for request in ordered:
        queue.schedule(max(request.arrival_ms, 0.0),
                       _Arrival(state, request))

    queue.run(until_ms=stop_at_ms)

    return SimulationResult(
        scheduler_name=scheduler.name,
        metrics=metrics,
        submitted=len(ordered),
        unserved=len(scheduler),
        timeline=state.timeline,
    )


class _ServerState:
    """Mutable simulation state shared by the event callbacks."""

    def __init__(self, scheduler: Scheduler, service: ServiceModel,
                 metrics: MetricsCollector, queue: EventQueue,
                 drop_expired: bool, *,
                 recharacterize_every_ms: float | None = None,
                 observer: Observer | None = None) -> None:
        self.scheduler = scheduler
        self.service = service
        self.metrics = metrics
        self.queue = queue
        self.drop_expired = drop_expired
        self.busy = False
        self.timeline: list[TimelineEntry] | None = None
        self.recharacterize_every_ms = recharacterize_every_ms
        self._refresh_armed = False
        self.obs = observer

    def arm_refresh(self) -> None:
        """Schedule the next periodic re-characterization (at most one
        outstanding, and only while the scheduler holds work -- so the
        event queue still drains)."""
        if (self.recharacterize_every_ms is None or self._refresh_armed
                or getattr(self.scheduler, "recharacterize", None) is None):
            return
        self._refresh_armed = True
        self.queue.schedule(
            self.queue.now + self.recharacterize_every_ms, _Refresh(self)
        )

    def try_dispatch(self) -> None:
        """Start serving the scheduler's next pick if the disk is free."""
        while not self.busy:
            now = self.queue.now
            head = self.service.head_cylinder
            request = self.scheduler.next_request(now, head)
            if request is None:
                return
            self.metrics.note_queue_length(len(self.scheduler) + 1)
            obs = self.obs
            if self.drop_expired and now >= request.deadline_ms:
                # The data is already useless; drop without disk time.
                self.metrics.on_complete(request, now, dropped=True)
                self.scheduler.on_served(request, now)
                if obs is not None:
                    obs.on_drop(request, now, "expired")
                if self.timeline is not None:
                    self.timeline.append(TimelineEntry(
                        request.request_id, now, now,
                        len(self.scheduler), dropped=True,
                    ))
                continue
            self.metrics.on_dispatch(request, self.scheduler.pending())
            record = self.service.serve(request, now)
            self.metrics.on_service(record.seek_ms, record.latency_ms,
                                    record.transfer_ms)
            if obs is not None:
                obs.on_dispatch(request, now)
                obs.on_service(request, now, seek_ms=record.seek_ms,
                               latency_ms=record.latency_ms,
                               transfer_ms=record.transfer_ms)
            completion = now + record.total_ms
            if self.timeline is not None:
                self.timeline.append(TimelineEntry(
                    request.request_id, now, completion,
                    len(self.scheduler),
                ))
            self.busy = True
            self.queue.schedule(completion, _Completion(self, request))
            return


class _Arrival:
    """Arrival event: hand the request to the scheduler."""

    def __init__(self, state: _ServerState, request: DiskRequest) -> None:
        self._state = state
        self._request = request

    def __call__(self) -> None:
        state = self._state
        now = state.queue.now
        if state.obs is not None:
            state.obs.on_arrival(self._request, now)
        state.scheduler.submit(self._request, now,
                               state.service.head_cylinder)
        if state.obs is not None:
            state.obs.ensure_enqueued(self._request, now)
            state.obs.on_queue_depth(now, len(state.scheduler))
        state.try_dispatch()
        if len(state.scheduler):
            state.arm_refresh()


class _Refresh:
    """Periodic re-characterization event (opt-in hot path)."""

    def __init__(self, state: _ServerState) -> None:
        self._state = state

    def __call__(self) -> None:
        state = self._state
        state._refresh_armed = False
        if len(state.scheduler):
            state.scheduler.recharacterize(  # type: ignore[attr-defined]
                state.queue.now, state.service.head_cylinder
            )
            state.try_dispatch()
            if len(state.scheduler):
                state.arm_refresh()


class _Completion:
    """Service-completion event: record outcome, dispatch the next one."""

    def __init__(self, state: _ServerState, request: DiskRequest) -> None:
        self._state = state
        self._request = request

    def __call__(self) -> None:
        state = self._state
        state.busy = False
        now = state.queue.now
        state.metrics.on_complete(self._request, now)
        state.scheduler.on_served(self._request, now)
        if state.obs is not None:
            state.obs.on_complete(self._request, now,
                                  missed=now > self._request.deadline_ms)
        state.try_dispatch()
