"""The online serving loop: sessions -> admission -> scheduler -> disk.

:class:`StreamingServer` is the serving-layer counterpart of the
offline :func:`repro.sim.run_simulation`: it wraps the same
:class:`~repro.schedulers.base.Scheduler` and
:class:`~repro.sim.service.ServiceModel` interfaces, but instead of
replaying a closed request list it is *clock-driven*: admitted
:class:`~repro.serve.session.StreamSession` feeds become due as time
advances, an :class:`~repro.serve.admission.AdmissionPolicy` gates new
streams, and overload is degraded gracefully — the request queue is
bounded, and when it overflows the server either sheds the
lowest-priority queued victims (``shed_policy="lowest-priority"``) or
exerts backpressure by deferring session polls
(``shed_policy="none"``).

Every decision lands in a :class:`~repro.serve.trace.TraceLog`, and
all timing/miss accounting reuses
:class:`~repro.sim.metrics.MetricsCollector`, so the online QoS
numbers reconcile exactly with the offline simulator's.

Two engines drive the loop.  The default ``"batched"`` engine is one
tight event loop (:meth:`StreamingServer._serve`) with O(levels)
inversion ledgers and a lazy shed-victim heap; a live observer,
faults, degrade mode, re-keying and backpressure are tests inside
it, never a different path.  ``"legacy"`` steps one event at a time
through :meth:`StreamingServer._process` with O(queue) scans and is
the differential oracle: both engines produce byte-identical traces.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass

from repro.core.request import DiskRequest
from repro.faults import FaultInjector
from repro.obs.observer import Observer, live
from repro.obs.profile import instrumented
from repro.schedulers.base import Scheduler
from repro.sim.metrics import MetricsCollector
from repro.sim.server import resolve_engine
from repro.sim.service import ServiceModel
from repro.sim.soa import ServeInversionLedger

from .admission import (
    AdmissionDecision,
    AdmissionPolicy,
    AdmissionResult,
    LoadSnapshot,
)
from .clock import Clock, VirtualClock
from .session import SessionManager, StreamSession, StreamSpec
from .stats import QoSReporter, ServerStats, StreamQoSTracker
from .trace import TraceLog

@dataclass(frozen=True)
class ServerConfig:
    """Tunables of the serving loop."""

    #: Bound on queued (not yet dispatched) requests.
    max_queue: int = 64
    #: ``"lowest-priority"`` sheds queued victims on overflow;
    #: ``"none"`` defers session polls instead (pure backpressure).
    shed_policy: str = "lowest-priority"
    #: Drop requests whose deadline already passed at dispatch time
    #: (a late video frame is worthless — Section 6).
    drop_expired: bool = True
    priority_dims: int = 1
    priority_levels: int = 8
    #: Retained trace events (None = unbounded).
    trace_capacity: int | None = None
    # -- graceful degradation under fault pressure (only active when
    # the server is constructed with a FaultInjector) ------------------
    #: Sliding window over which fault events count as "pressure".
    degrade_window_ms: float = 5_000.0
    #: Fault events inside the window that trip degraded mode.
    degrade_after: int = 8
    #: ``"shed"`` closes the lowest-SFC-priority stream on entry;
    #: ``"downgrade"`` demotes it to the lowest priority level instead.
    degrade_policy: str = "shed"
    #: Streams shed/downgraded per degraded-mode entry.
    degrade_victims: int = 1
    #: Period of queue re-characterization: every that many ms the
    #: scheduler re-keys queued requests to the current clock and head
    #: position (no-op for schedulers without ``recharacterize``).
    #: None (the default) keeps the paper's insert-time-only baseline
    #: and the pinned golden serve trace bit-identical.
    recharacterize_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.recharacterize_ms is not None and self.recharacterize_ms <= 0:
            raise ValueError("recharacterize_ms must be positive")
        if self.shed_policy not in ("lowest-priority", "none"):
            raise ValueError(
                "shed_policy must be 'lowest-priority' or 'none'"
            )
        if self.degrade_window_ms <= 0:
            raise ValueError("degrade_window_ms must be positive")
        if self.degrade_after < 1:
            raise ValueError("degrade_after must be >= 1")
        if self.degrade_policy not in ("shed", "downgrade"):
            raise ValueError(
                "degrade_policy must be 'shed' or 'downgrade'"
            )
        if self.degrade_victims < 1:
            raise ValueError("degrade_victims must be >= 1")


class StreamingServer:
    """Admission-controlled streaming disk server.

    Drive it by alternating :meth:`open_stream` / :meth:`close_stream`
    with :meth:`run_until` (advance the clock, serving everything due);
    :meth:`quiesce` finishes all outstanding work of bounded sessions.
    """

    def __init__(self, scheduler: Scheduler, service: ServiceModel,
                 manager: SessionManager, admission: AdmissionPolicy,
                 *, clock: Clock | None = None,
                 config: ServerConfig | None = None,
                 reporter: QoSReporter | None = None,
                 faults: FaultInjector | None = None,
                 observer: Observer | None = None,
                 engine: str | None = None) -> None:
        self.scheduler = scheduler
        self.service = service
        self.manager = manager
        self.admission = admission
        self.faults = faults
        self.clock = clock if clock is not None else VirtualClock()
        self.config = config or ServerConfig()
        #: Serving-loop engine: ``"batched"`` runs the fused event
        #: loop :meth:`_serve`; ``"legacy"`` steps through
        #: :meth:`_next_event_ms` and :meth:`_process` with O(queue)
        #: scans, and is the differential oracle (bit-identical
        #: traces).
        self.engine = resolve_engine(engine)
        self._batched = self.engine == "batched"
        #: Per-dimension level occupancy of the waiting set, replacing
        #: the O(queue) ``on_dispatch`` scan (batched engine only).
        self._ledger = (ServeInversionLedger(self.config.priority_dims)
                        if self._batched else None)
        #: Lazy max-heap over queued requests on the shed-victim key
        #: ``(priorities, deadline, request_id)`` (batched engine only).
        self._shed_heap: list[
            tuple[tuple[int, ...], float, int, DiskRequest]] = []
        #: Ids currently inside the scheduler queue (batched only).
        self._queued_ids: set[int] = set()
        self.reporter = reporter
        self.trace = TraceLog(capacity=self.config.trace_capacity)
        self.metrics = MetricsCollector(self.config.priority_dims,
                                        self.config.priority_levels)
        self.obs = live(observer)
        if self.obs is not None:
            # The trace log mirrors every serving-layer decision into
            # the registry; spans get the richer per-request hooks.
            self.trace.sink = self.obs.on_trace_event
            scheduler.bind_observer(self.obs)
            self.obs.watch_scheduler(scheduler)
            self.metrics.publish_into(self.obs.registry, prefix="serve")
            if faults is not None:
                self.obs.watch_faults(faults)
            self.obs.registry.on_collect(self._publish_server_gauges)
        self.started_ms = self.clock.now_ms()
        # Admission counters.
        self.admitted = 0
        self.downgraded = 0
        self.rejected = 0
        self.closed_streams = 0
        # Dispatch-path counters.
        self.dispatched = 0
        self.preempted = 0
        self.expired = 0
        #: In-flight request and its completion instant, if busy.
        self._busy: tuple[DiskRequest, float] | None = None
        #: True while the in-flight "service" is an aborting fault.
        self._busy_faulted = False
        #: Ids counted as shed but still inside the scheduler queue.
        self._shed_pending: set[int] = set()
        # Fault-injection state.
        #: Service attempts per request id (only under fault injection).
        self._attempts: dict[int, int] = {}
        #: (due_ms, request_id, request) heap of pending retries.
        self._retry_due: list[tuple[float, int, DiskRequest]] = []
        #: Fault instants inside the sliding pressure window.
        self._fault_times: list[float] = []
        self.fault_failures = 0
        self.degrade_entries = 0
        self.degraded_streams = 0
        self.degraded = False
        #: Per-admitted-stream reserved utilization shares.
        self._reservations: dict[int, float] = {}
        #: Cached running sum of the shares (None = dirty).  Admission
        #: checks read it per decision; keeping the fold incremental
        #: (append adds, removal invalidates) reproduces
        #: ``sum(dict.values())`` bit-for-bit.
        self._reserved_sum: float | None = 0
        self._qos: dict[int, StreamQoSTracker] = {}
        #: Next periodic re-characterization instant (None = disarmed).
        self._recharacterize_due: float | None = None
        self._can_recharacterize = (
            self.config.recharacterize_ms is not None
            and getattr(scheduler, "recharacterize", None) is not None
        )
        #: Queue re-characterization passes performed.
        self.recharacterizations = 0

    # -- stream lifecycle -------------------------------------------------

    @property
    def reserved_utilization(self) -> float:
        if self._reserved_sum is None:
            self._reserved_sum = sum(self._reservations.values())
        return self._reserved_sum

    def queue_length(self) -> int:
        """Queued requests still eligible for service."""
        return len(self.scheduler) - len(self._shed_pending)

    def measured_utilization(self, now_ms: float | None = None) -> float:
        elapsed = (self.clock.now_ms() if now_ms is None
                   else now_ms) - self.started_ms
        return self.metrics.busy_ms / elapsed if elapsed > 0 else 0.0

    def load_snapshot(self) -> LoadSnapshot:
        """Current load, as the admission controller sees it."""
        now = self.clock.now_ms()
        return LoadSnapshot(
            time_ms=now,
            active_streams=self.manager.active_streams,
            reserved_utilization=self.reserved_utilization,
            measured_utilization=self.measured_utilization(now),
            miss_ratio=self.metrics.miss_ratio,
            queue_length=self.queue_length(),
        )

    def open_stream(self, spec: StreamSpec
                    ) -> tuple[AdmissionResult, StreamSession | None]:
        """Ask admission control for a new stream at the current time.

        Rejected specs get no session and therefore can never enqueue a
        request; downgraded specs are admitted with the priority vector
        the controller granted.
        """
        if len(spec.priorities) != self.config.priority_dims:
            raise ValueError(
                f"spec has {len(spec.priorities)} priority dims, "
                f"server is configured for {self.config.priority_dims}"
            )
        now = self.clock.now_ms()
        result = self.admission.decide(spec, self.load_snapshot())
        if not result.admitted:
            self.rejected += 1
            self.trace.record(now, "reject", detail=result.reason)
            return result, None
        granted = spec
        if (result.priorities is not None
                and result.priorities != spec.priorities):
            granted = spec.with_priorities(result.priorities)
        session = self.manager.open(granted, now)
        self._reservations[session.stream_id] = result.utilization
        if self._reserved_sum is not None:
            # Same fold as sum(values) with an append-at-end dict.
            self._reserved_sum = self._reserved_sum + result.utilization
        self._qos[session.stream_id] = StreamQoSTracker(session.stream_id)
        if result.decision is AdmissionDecision.DOWNGRADE:
            self.downgraded += 1
            kind = "downgrade"
        else:
            self.admitted += 1
            kind = "admit"
        self.trace.record(now, kind, stream_id=session.stream_id,
                          detail=result.reason)
        return result, session

    def close_stream(self, stream_id: int) -> StreamSession:
        """End a stream; its queued requests still drain normally."""
        now = self.clock.now_ms()
        session = self.manager.close(stream_id, now)
        self._retire(session, now)
        return session

    def _retire(self, session: StreamSession, now: float) -> None:
        self._reservations.pop(session.stream_id, None)
        self._reserved_sum = None  # mid-dict removal: recompute lazily
        self.closed_streams += 1
        self.trace.record(now, "close", stream_id=session.stream_id,
                          detail=f"issued={session.issued}")

    # -- the clock-driven loop --------------------------------------------

    def run_until(self, until_ms: float) -> None:
        """Advance the clock to ``until_ms``, serving everything due."""
        if self._batched:
            return self._serve(until_ms)
        while True:
            t = self._next_event_ms(until_ms)
            if t is None:
                break
            self.clock.sleep_until(t)
            self._process(max(t, self.clock.now_ms()))
        self.clock.sleep_until(until_ms)

    def _serve(self, until_ms: float, *, drain: bool = False) -> None:
        """The batched engine: one event loop over local names.

        :meth:`_next_event_ms` and :meth:`_process` fused.  The next
        instant is the first minimum over the same candidates in the
        same order, taken by direct comparisons, and ``now = max(t,
        clock)``, so int and float instants keep their trace reprs.
        Each instant then runs the legacy steps in the legacy order;
        faults and retries, degrade mode, re-keying, the reporter, a
        live observer and ``shed_policy="none"`` are tests on locals
        that call the shared helpers.  Priority inversions come from
        the per-level ledger and shed victims from the lazy max-heap,
        so no step scans the queue.  ``drain`` is :meth:`quiesce`: stop
        once no work is left, leaving the clock at the last event.
        """
        config = self.config
        now_ms, sleep_until = self.clock.now_ms, self.clock.sleep_until
        manager = self.manager
        next_due_ms, poll = manager.next_due_ms, manager.poll
        retire_exhausted = manager.retire_exhausted
        scheduler = self.scheduler
        submit = scheduler.submit
        service = self.service
        qos_get = self._qos.get
        obs = self.obs
        reporter = self.reporter
        faults = self.faults
        retry_due = self._retry_due
        fault_times = self._fault_times
        window_ms = config.degrade_window_ms
        shed_pending = self._shed_pending
        max_queue = config.max_queue
        shed = config.shed_policy == "lowest-priority"
        rekey_ms = (config.recharacterize_ms
                    if self._can_recharacterize else None)
        note_queued = self._note_queued
        queued_ids = self._queued_ids
        shed_heap = self._shed_heap
        heappop = heapq.heappop
        never = math.inf
        while True:
            now = now_ms()
            busy = self._busy
            due = next_due_ms()
            queued = len(scheduler) - len(shed_pending)
            if drain and (busy is None and queued <= 0 and not retry_due
                          and due is None):
                return
            t = never if busy is None else busy[1]
            if reporter is not None and reporter.next_due_ms < t:
                t = reporter.next_due_ms
            if retry_due:
                c = retry_due[0][0]
                if now > c:
                    c = now
                if c < t:
                    t = c
            if self.degraded and fault_times:
                c = fault_times[0] + window_ms
                if c < t:
                    t = c
            c = self._recharacterize_due
            if c is not None and queued > 0:
                if now > c:
                    c = now
                if c < t:
                    t = c
            if due is not None:
                if due > now:
                    if due < t:
                        t = due
                elif (shed or queued < max_queue) and now < t:
                    t = now  # deferred (backpressured) work fits now
            if t > until_ms or t == never:
                break
            sleep_until(t)
            now = now_ms()
            if not now > t:
                now = t

            if busy is not None and busy[1] <= now:
                self._complete()
            if retry_due and retry_due[0][0] <= now:
                self._requeue_retries(now)
                queued = len(scheduler) - len(shed_pending)
            if faults is not None:
                self._update_degrade(now)
            if shed or queued < max_queue:
                if due is not None and due <= now:
                    head = service.head_cylinder
                    for request in poll(now, None if shed
                                        else max_queue - queued):
                        tracker = qos_get(request.stream_id)
                        if tracker is not None:
                            tracker.on_issue()
                        if obs is not None:
                            obs.on_arrival(request, now)
                        submit(request, now, head)
                        note_queued(request)
                        if obs is not None:
                            obs.ensure_enqueued(request, now)
                    queued = len(scheduler) - len(shed_pending)
                if obs is not None:
                    obs.on_queue_depth(now, queued)
                # Shed the excess off the lazy victim max-heap: entries
                # of popped or already-shed requests are stale and
                # skipped; the survivors surface in the order of the
                # legacy scan's (priorities, deadline, request_id) maxima.
                while shed and queued > max_queue and shed_heap:
                    victim = heappop(shed_heap)[3]
                    rid = victim.request_id
                    if rid in queued_ids and rid not in shed_pending:
                        self._shed_one(victim, now)
                        queued -= 1
            if rekey_ms is not None:
                self._recharacterize(now)
            if self._busy is None:
                self._dispatch(now)
            for session in retire_exhausted(now):
                self._retire(session, now)
            if rekey_ms is not None:
                # (Re-)arm only while work is queued: an idle server
                # generates no wake-ups.
                if len(scheduler) == len(shed_pending):
                    self._recharacterize_due = None
                elif self._recharacterize_due is None:
                    self._recharacterize_due = now + rekey_ms
            if reporter is not None and reporter.due(now):
                reporter.report(self.stats())
                self.trace.record(now, "report",
                                  detail=f"#{reporter.reports}")
        if not drain:
            sleep_until(until_ms)

    def _note_queued(self, request: DiskRequest) -> None:
        """Batched-engine bookkeeping for a request entering the queue."""
        self._ledger.add(request.priorities)  # type: ignore[union-attr]
        self._queued_ids.add(request.request_id)
        heapq.heappush(self._shed_heap, (
            tuple(map(operator.neg, request.priorities)),
            -request.deadline_ms, -request.request_id, request,
        ))

    def _note_popped(self, request: DiskRequest) -> None:
        """Batched-engine bookkeeping for a request leaving the queue."""
        self._ledger.remove(request.priorities)  # type: ignore[union-attr]
        self._queued_ids.discard(request.request_id)

    def run_for(self, delta_ms: float) -> None:
        self.run_until(self.clock.now_ms() + delta_ms)

    def quiesce(self) -> None:
        """Serve until no work remains (bounded sessions only).

        Runs completions, queued requests, and every remaining session
        block to exhaustion.  Calling this with an open-ended (live)
        session would never return; close those first.
        """
        for session in self.manager:
            if session.spec.blocks is None:
                raise RuntimeError(
                    f"stream {session.stream_id} is open-ended; "
                    "close it before quiescing"
                )
        if self._batched:
            return self._serve(math.inf, drain=True)
        while (self._busy is not None or self.queue_length() > 0
               or self._retry_due
               or self.manager.next_due_ms() is not None):
            t = self._next_event_ms(math.inf)
            if t is None:
                break
            self.clock.sleep_until(t)
            self._process(max(t, self.clock.now_ms()))

    def _next_event_ms(self, until_ms: float) -> float | None:
        """Earliest actionable instant at or before ``until_ms``."""
        now = self.clock.now_ms()
        candidates: list[float] = []
        if self._busy is not None:
            candidates.append(self._busy[1])
        if self.reporter is not None:
            candidates.append(self.reporter.next_due_ms)
        if self._retry_due:
            candidates.append(max(self._retry_due[0][0], now))
        if self.degraded and self._fault_times:
            # The instant the oldest fault ages out of the pressure
            # window (a possible degrade_exit).
            candidates.append(
                self._fault_times[0] + self.config.degrade_window_ms
            )
        if (self._recharacterize_due is not None
                and self.queue_length() > 0):
            candidates.append(max(self._recharacterize_due, now))
        due = self.manager.next_due_ms()
        if due is not None:
            if due > now:
                candidates.append(due)
            elif self._poll_limit() != 0:
                # Deferred (backpressured) work can be picked up now.
                candidates.append(now)
            # else: no room; the next completion will re-poll.
        eligible = [c for c in candidates if c <= until_ms]
        return min(eligible) if eligible else None

    def _poll_limit(self) -> int | None:
        """How many due requests may enter the queue right now."""
        if self.config.shed_policy == "lowest-priority":
            return None  # take everything; shedding restores the bound
        return max(self.config.max_queue - self.queue_length(), 0)

    def _process(self, now: float) -> None:
        """Handle everything actionable at instant ``now``."""
        if self._busy is not None and self._busy[1] <= now:
            self._complete()
        self._requeue_retries(now)
        self._update_degrade(now)
        self._admit_due(now)
        self._recharacterize(now)
        self._dispatch(now)
        for session in self.manager.retire_exhausted(now):
            self._retire(session, now)
        # (Re-)arm the periodic re-key only while there is queued work,
        # so an idle server generates no wake-ups.
        if not self._can_recharacterize or self.queue_length() == 0:
            self._recharacterize_due = None
        elif self._recharacterize_due is None:
            self._recharacterize_due = now + self.config.recharacterize_ms
        if self.reporter is not None and self.reporter.due(now):
            stats = self.stats()
            self.reporter.report(stats)
            self.trace.record(now, "report",
                              detail=f"#{self.reporter.reports}")

    def _admit_due(self, now: float) -> None:
        """Move due session blocks into the scheduler queue."""
        limit = self._poll_limit()
        if limit == 0:
            return
        obs = self.obs
        for request in self.manager.poll(now, limit):
            tracker = self._qos.get(request.stream_id)
            if tracker is not None:
                tracker.on_issue()
            if obs is not None:
                obs.on_arrival(request, now)
            self.scheduler.submit(request, now,
                                  self.service.head_cylinder)
            if obs is not None:
                obs.ensure_enqueued(request, now)
        if obs is not None:
            obs.on_queue_depth(now, self.queue_length())
        if self.config.shed_policy == "lowest-priority":
            self._shed_to_capacity(now)

    def _recharacterize(self, now: float) -> None:
        """Periodic re-key of the queue to the current clock and head."""
        if (self._recharacterize_due is None
                or now < self._recharacterize_due
                or self.queue_length() == 0):
            return
        self._recharacterize_due = None  # re-armed at end of _process
        self.scheduler.recharacterize(  # type: ignore[attr-defined]
            now, self.service.head_cylinder
        )
        self.recharacterizations += 1

    def _shed_to_capacity(self, now: float) -> None:
        """Evict lowest-priority queued victims until the bound holds.

        One sorted bulk scan: the ``excess`` largest eligible victims
        on the ``(priorities, deadline, request_id)`` key, taken in
        descending order, are exactly the successive maxima the old
        rescan-per-eviction loop picked (the key is a total order —
        request ids are unique — and evicting the running maximum
        never changes the remaining order).
        """
        excess = self.queue_length() - self.config.max_queue
        if excess <= 0:
            return
        victims = heapq.nlargest(
            excess,
            (r for r in self.scheduler.pending()
             if r.request_id not in self._shed_pending),
            key=lambda r: (r.priorities, r.deadline_ms, r.request_id),
        )
        for victim in victims:
            self._shed_one(victim, now)

    def _shed_one(self, victim: DiskRequest, now: float) -> None:
        """Count one queued request as shed (it drains as a zombie)."""
        self._shed_pending.add(victim.request_id)
        self.preempted += 1
        self.metrics.on_complete(victim, now, dropped=True)
        if self.obs is not None:
            self.obs.on_drop(victim, now, "shed")
        tracker = self._qos.get(victim.stream_id)
        if tracker is not None:
            tracker.on_complete(now, missed=True, served=False)
        self.trace.record(
            now, "preempt", stream_id=victim.stream_id,
            request_id=victim.request_id,
            detail=f"shed level={max(victim.priorities, default=0)}",
        )

    # -- fault injection & graceful degradation ---------------------------

    def _fault_attempt(self, request: DiskRequest, now: float) -> str:
        """Roll this dispatch against the fault plan.

        Returns ``"ok"`` (serve normally), ``"abort"`` (the attempt
        failed; the disk is busy aborting and the request will retry
        after backoff), or ``"gave_up"`` (retry budget exhausted; the
        request was dropped).
        """
        assert self.faults is not None
        attempt = self._attempts.get(request.request_id, 0) + 1
        self._attempts[request.request_id] = attempt
        if not self.faults.attempt_fails(0, request.request_id,
                                         attempt, now):
            return "ok"
        self._note_fault(now)
        cause = ("disk-failure" if self.faults.is_failed(0, now)
                 else "io-error")
        self.trace.record(now, "fault_inject",
                          stream_id=request.stream_id,
                          request_id=request.request_id,
                          detail=f"{cause} attempt={attempt}")
        if self.faults.exhausted(attempt):
            self.faults.note_gave_up()
            self.fault_failures += 1
            self._attempts.pop(request.request_id, None)
            self.metrics.on_complete(request, now, dropped=True)
            self.scheduler.on_served(request, now)
            tracker = self._qos.get(request.stream_id)
            if tracker is not None:
                tracker.on_complete(now, missed=True, served=False)
            self.trace.record(now, "miss",
                              stream_id=request.stream_id,
                              request_id=request.request_id,
                              detail="fault")
            if self.obs is not None:
                self.obs.on_drop(request, now, "fault")
            return "gave_up"
        # The aborted command still occupies the disk briefly; the
        # request itself re-enters the queue after its backoff.
        self._busy = (request, now + self.faults.policy.abort_ms)
        self._busy_faulted = True
        return "abort"

    def _requeue_retries(self, now: float) -> None:
        """Re-submit requests whose retry backoff has elapsed."""
        while self._retry_due and self._retry_due[0][0] <= now:
            _due, _rid, request = heapq.heappop(self._retry_due)
            assert self.faults is not None
            self.faults.note_retry()
            attempts = self._attempts.get(request.request_id, 0)
            if self.obs is not None:
                self.obs.on_requeue(request, now, attempt=attempts + 1)
            self.scheduler.submit(request, now,
                                  self.service.head_cylinder)
            if self._batched:
                self._note_queued(request)
            self.trace.record(now, "retry",
                              stream_id=request.stream_id,
                              request_id=request.request_id,
                              detail=f"attempt={attempts + 1}")

    def _note_fault(self, now: float) -> None:
        self._fault_times.append(now)
        self._update_degrade(now)

    def _update_degrade(self, now: float) -> None:
        """Maintain the sliding fault-pressure window and mode flips."""
        if self.faults is None:
            return
        config = self.config
        times = self._fault_times
        # Same arithmetic as the _next_event_ms wake-up candidate
        # (times[0] + window), so the scheduled exit instant is
        # guaranteed to actually age the fault out.
        while times and times[0] + config.degrade_window_ms <= now:
            times.pop(0)
        if not self.degraded and len(times) >= config.degrade_after:
            self.degraded = True
            self.degrade_entries += 1
            self.trace.record(
                now, "degrade_enter",
                detail=(f"faults={len(times)}"
                        f"/{config.degrade_window_ms:.0f}ms"),
            )
            self._degrade_relief(now)
        elif self.degraded and not times:
            self.degraded = False
            self.trace.record(now, "degrade_exit")

    def _degrade_relief(self, now: float) -> None:
        """Shed or downgrade the lowest-SFC-priority active streams.

        One pass over the population: the ``degrade_victims`` largest
        sessions on the ``(priorities, stream_id)`` key, descending,
        match the old rescan-per-victim loop — shedding removes the
        chosen victim from the population and downgrading makes it
        ineligible, and neither changes any other session's key.
        """
        config = self.config
        lowest_of = lambda spec: tuple(  # noqa: E731
            config.priority_levels - 1 for _ in spec.priorities
        )
        eligible = [
            s for s in self.manager
            if (config.degrade_policy == "shed"
                or s.spec.priorities != lowest_of(s.spec))
        ]
        victims = heapq.nlargest(
            config.degrade_victims, eligible,
            key=lambda s: (s.spec.priorities, s.stream_id),
        )
        for victim in victims:
            if config.degrade_policy == "shed":
                self.close_stream(victim.stream_id)
            else:
                victim.spec = victim.spec.with_priorities(
                    lowest_of(victim.spec)
                )
                self.trace.record(now, "downgrade",
                                  stream_id=victim.stream_id,
                                  detail="degrade-mode")
            self.degraded_streams += 1

    @instrumented("dispatch_loop")
    def _dispatch(self, now: float) -> None:
        """Start serving the scheduler's next pick if the disk is free."""
        while self._busy is None:
            request = self.scheduler.next_request(
                now, self.service.head_cylinder
            )
            if request is None:
                return
            if self._batched:
                self._note_popped(request)
            if request.request_id in self._shed_pending:
                # Already counted as shed; let the scheduler forget it.
                self._shed_pending.discard(request.request_id)
                self.scheduler.on_served(request, now)
                continue
            self.metrics.note_queue_length(self.queue_length() + 1)
            if self.config.drop_expired and now >= request.deadline_ms:
                self.expired += 1
                self.metrics.on_complete(request, now, dropped=True)
                self.scheduler.on_served(request, now)
                tracker = self._qos.get(request.stream_id)
                if tracker is not None:
                    tracker.on_complete(now, missed=True, served=False)
                self.trace.record(now, "miss",
                                  stream_id=request.stream_id,
                                  request_id=request.request_id,
                                  detail="expired")
                if self.obs is not None:
                    self.obs.on_drop(request, now, "expired")
                continue
            if self.faults is not None:
                outcome = self._fault_attempt(request, now)
                if outcome == "gave_up":
                    continue
                if outcome == "abort":
                    return
            if self._batched:
                # Same tallies as scanning pending(): the ledger holds
                # exactly the still-queued requests (shed zombies
                # included, as in the legacy scan).
                self.metrics.add_inversions(
                    self._ledger.inversions_of(  # type: ignore[union-attr]
                        request.priorities))
            else:
                self.metrics.on_dispatch(request, self.scheduler.pending())
            record = self.service.serve(request, now)
            total_ms = record.total_ms
            if self.faults is not None:
                self._attempts.pop(request.request_id, None)
                total_ms += self.faults.service_penalty_ms(
                    0, now, record.total_ms
                )
            self.metrics.on_service(record.seek_ms, record.latency_ms,
                                    total_ms - record.total_ms
                                    + record.transfer_ms)
            self.dispatched += 1
            self._busy = (request, now + total_ms)
            self.trace.record(now, "dispatch",
                              stream_id=request.stream_id,
                              request_id=request.request_id)
            if self.obs is not None:
                self.obs.on_dispatch(request, now)
                self.obs.on_service(
                    request, now, seek_ms=record.seek_ms,
                    latency_ms=record.latency_ms,
                    transfer_ms=total_ms - record.seek_ms
                    - record.latency_ms,
                )
            return

    def _complete(self) -> None:
        assert self._busy is not None
        request, completion = self._busy
        self._busy = None
        if self._busy_faulted:
            # A failed attempt finished aborting: pay the backoff,
            # then the request re-enters the scheduler queue.
            self._busy_faulted = False
            assert self.faults is not None
            self.scheduler.on_served(request, completion)
            attempt = self._attempts[request.request_id]
            due = completion + self.faults.policy.backoff_for(attempt)
            heapq.heappush(self._retry_due,
                           (due, request.request_id, request))
            return
        self.metrics.on_complete(request, completion)
        self.scheduler.on_served(request, completion)
        missed = completion > request.deadline_ms
        tracker = self._qos.get(request.stream_id)
        if tracker is not None:
            tracker.on_complete(completion, missed)
        if self.obs is not None:
            self.obs.on_complete(request, completion, missed=missed)
        self.trace.record(completion, "complete",
                          stream_id=request.stream_id,
                          request_id=request.request_id)
        if missed:
            self.trace.record(completion, "miss",
                              stream_id=request.stream_id,
                              request_id=request.request_id,
                              detail="late")

    # -- observability ----------------------------------------------------

    def _publish_server_gauges(self) -> None:
        """Registry pull: admission and dispatch-path counters.

        Mirrors the :class:`ServerStats` tallies so Prometheus exports
        reconcile with :meth:`stats` snapshots (a property test pins
        this against the span-log outcomes too).
        """
        assert self.obs is not None
        registry = self.obs.registry
        for name, value, help_text in (
            ("streams_admitted_total", self.admitted, "streams admitted"),
            ("streams_downgraded_total", self.downgraded,
             "streams admitted at degraded priority"),
            ("streams_rejected_total", self.rejected, "streams refused"),
            ("streams_closed_total", self.closed_streams, "streams ended"),
            ("requests_dispatched_total", self.dispatched,
             "requests that started disk service"),
            ("requests_preempted_total", self.preempted,
             "queued requests shed under overload"),
            ("requests_expired_total", self.expired,
             "requests dropped already-expired at dispatch"),
            ("fault_failures_total", self.fault_failures,
             "requests abandoned after exhausting retries"),
            ("degrade_entries_total", self.degrade_entries,
             "degraded-mode entries"),
        ):
            registry.counter(name, help_text).set_total(float(value))
        registry.gauge("active_streams",
                       "currently open streams").set(
                           self.manager.active_streams)
        registry.gauge("server_queue_length",
                       "queued requests eligible for service").set(
                           self.queue_length())
        registry.gauge("reserved_utilization",
                       "sum of admitted utilization shares").set(
                           self.reserved_utilization)
        registry.gauge("degraded",
                       "1 while in degraded mode").set(
                           1.0 if self.degraded else 0.0)

    def stats(self) -> ServerStats:
        """Snapshot the current QoS state."""
        now = self.clock.now_ms()
        return ServerStats(
            time_ms=now,
            active_streams=self.manager.active_streams,
            admitted=self.admitted,
            downgraded=self.downgraded,
            rejected=self.rejected,
            closed=self.closed_streams,
            dispatched=self.dispatched,
            completed=self.metrics.completed,
            missed=self.metrics.missed,
            preempted=self.preempted,
            expired=self.expired,
            queue_length=self.queue_length(),
            mean_queue_length=self.metrics.queue_length.mean,
            reserved_utilization=self.reserved_utilization,
            measured_utilization=self.measured_utilization(now),
            miss_ratio=self.metrics.miss_ratio,
            mean_response_ms=self.metrics.response_ms.mean,
            streams=tuple(
                self._qos[sid].snapshot() for sid in sorted(self._qos)
            ),
            faults_injected=(self.faults.counters.injected
                             if self.faults else 0),
            fault_retries=(self.faults.counters.retries
                           if self.faults else 0),
            fault_failures=self.fault_failures,
            degrade_entries=self.degrade_entries,
            degraded_streams=self.degraded_streams,
            degraded=self.degraded,
        )
