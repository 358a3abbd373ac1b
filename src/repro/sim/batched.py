"""Batched structure-of-arrays disk-server engine.

``run_batched_simulation`` replays the same workload contract as the
legacy event loop in :mod:`repro.sim.server`, but plans the run over
numpy columns (:class:`repro.sim.soa.RequestColumns`) instead of one
heap event per request, in one tight loop (:func:`_event_loop`):

* **Event barriers, not a heap.**  At any instant the engine has at
  most two dynamic events outstanding -- the in-flight completion and
  the optional re-characterization timer -- so the next event is a
  three-way minimum over (time, sequence) keys taken with direct
  comparisons, with the pre-assigned arrival sequences 0..n-1
  reproducing the legacy heap's tie order exactly (arrivals always
  beat dynamic events scheduled later).
* **Vectorized arrival epochs.**  While the disk is busy, every
  arrival up to the current barrier is a pure scheduler submit; the
  span boundary is one bisection of the arrival list and the span is
  characterized in one :func:`repro.core.batch.characterize_batch`
  call with a per-request ``now`` column.  When the scheduler's v_c
  depends only on (request, arrival clock) -- the paper configuration:
  cascaded stages with the fixed sweep origin -- the whole run's SFC
  keys are precomputed in a single batch call before the loop starts.
* **Ledger inversions.**  Priority inversions are charged from
  per-level occupancy tables (:class:`repro.sim.soa.InversionLedger`)
  in O(levels) per dispatch instead of the legacy O(queue x dims)
  Python scan; integer arithmetic, so tallies are identical.

Arrival, completion, refresh and dispatch handling, the observer and
timeline hooks, the hard stop and expired drops all live in that one
loop on local names; metric arithmetic stays in
:class:`~repro.sim.metrics.MetricsCollector` and the ledger.

The legacy engine remains the differential oracle: the batched path
must reproduce its metrics, timeline, and QoS output bit-for-bit
(``tests/test_engine_differential.py`` and the golden traces pin
this).  With a live observer the engine degrades to per-arrival
submits so hook order is preserved exactly.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.core.request import DiskRequest
from repro.obs.observer import Observer
from repro.schedulers.base import Scheduler

from .metrics import MetricsCollector
from .server import SimulationResult, TimelineEntry
from .service import ServiceModel
from .soa import InversionLedger, RequestColumns


def precompute_sfc_keys(scheduler: Scheduler, columns: RequestColumns,
                        observer: Observer | None) -> np.ndarray | None:
    """Whole-run v_c column when submit is a pure (request, clock) map.

    Applies to the stock :class:`repro.core.CascadedSFCScheduler` with
    fast-path stages and the paper's fixed sweep origin
    (``seek_track_head=False``): v_c then never reads the head
    position, so every request's insertion key is known at t=0 and one
    ``characterize_batch`` call with the arrival column as per-request
    clocks replaces n scalar characterizations.  Returns None when the
    precondition fails (custom stages, head-tracking stage 3, live
    observer) -- the engine then characterizes span by span.
    """
    if observer is not None:
        return None
    from repro.core.batch import _fast_path_applies, characterize_batch
    from repro.core.encapsulator import EncodeContext
    from repro.core.scheduler import CascadedSFCScheduler
    if type(scheduler) is not CascadedSFCScheduler:
        return None
    encapsulator = scheduler.encapsulator
    if not _fast_path_applies(encapsulator):
        return None
    stage3 = encapsulator.stage3
    if stage3 is not None and getattr(stage3, "track_head", False):
        return None
    ctx = EncodeContext(now_ms=0.0, head_cylinder=0)
    return characterize_batch(encapsulator, columns.requests, ctx,
                              nows=columns.arrival_ms)


def run_batched_simulation(ordered: list[DiskRequest],
                           scheduler: Scheduler,
                           service: ServiceModel,
                           metrics: MetricsCollector,
                           *,
                           drop_expired: bool,
                           stop_at_ms: float | None,
                           record_timeline: bool,
                           recharacterize_every_ms: float | None,
                           observer: Observer | None) -> SimulationResult:
    """Run the SoA engine over ``ordered`` (already arrival-sorted)."""
    columns = RequestColumns.from_requests(ordered,
                                           metrics.priority_dims)
    columns.sfc_key = precompute_sfc_keys(scheduler, columns, observer)
    timeline = _event_loop(
        columns, scheduler, service, metrics,
        drop_expired=drop_expired, stop_at_ms=stop_at_ms,
        record_timeline=record_timeline,
        recharacterize_every_ms=recharacterize_every_ms,
        observer=observer)
    return SimulationResult(
        scheduler_name=scheduler.name,
        metrics=metrics,
        submitted=len(ordered),
        unserved=len(scheduler),
        timeline=timeline,
    )


def _event_loop(columns: RequestColumns, scheduler: Scheduler,
                service: ServiceModel, metrics: MetricsCollector, *,
                drop_expired: bool, stop_at_ms: float | None,
                record_timeline: bool,
                recharacterize_every_ms: float | None,
                observer: Observer | None) -> list[TimelineEntry] | None:
    """Replay the legacy event order over ``columns``; return the timeline.

    Dynamic events replicate the legacy heap's sequence counter:
    arrivals hold 0..n-1, completions and refreshes draw n, n+1, ...
    in scheduling order, so (time, sequence) ties break the same way.
    """
    requests = columns.requests
    arrivals = columns.arrival_ms.tolist()
    keys = None if columns.sfc_key is None else columns.sfc_key.tolist()
    n = len(arrivals)
    index_of = {id(request): i for i, request in enumerate(requests)}
    ledger = InversionLedger(columns.priorities)
    add, remove = ledger.add, ledger.remove
    inversions_of = ledger.inversions_of
    insert = None if keys is None else scheduler.dispatcher.insert
    next_request, on_served = scheduler.next_request, scheduler.on_served
    on_complete, on_service = metrics.on_complete, metrics.on_service
    note_queue_length = metrics.note_queue_length
    add_inversions = metrics.add_inversions
    serve = service.serve
    obs = observer
    stop = stop_at_ms
    timeline: list[TimelineEntry] | None = [] if record_timeline else None
    every = (recharacterize_every_ms
             if getattr(scheduler, "recharacterize", None) is not None
             else None)

    seq = n              # next dynamic-event sequence number
    i = 0                # next arrival
    in_flight = None     # request on the disk, done at (done_at, done_seq)
    done_at = 0.0
    done_seq = 0
    refresh_at = None    # armed refresh timer, at (refresh_at, refresh_seq)
    refresh_seq = 0
    while True:
        kind = "arrival" if i < n else None
        if kind is not None:
            at = arrivals[i]
        if in_flight is not None and (kind is None or done_at < at):
            kind, at = "completion", done_at
        if refresh_at is not None and (
                kind is None or refresh_at < at
                or (refresh_at == at and kind == "completion"
                    and refresh_seq < done_seq)):
            kind, at = "refresh", refresh_at
        if kind is None or (stop is not None and at > stop):
            break
        now = at

        if kind == "arrival":
            if in_flight is not None and obs is None and (
                    every is None or refresh_at is not None):
                # Busy, unobserved, refresh timer settled: every arrival
                # up to the next dynamic event (inclusive -- arrivals
                # win ties) is a pure submit, since dispatch no-ops
                # while busy.  Arrivals past the hard stop never fire;
                # one exactly at the stop instant still does.
                barrier = done_at
                if refresh_at is not None and refresh_at < barrier:
                    barrier = refresh_at
                if stop is not None and stop < barrier:
                    barrier = stop
                end = bisect_right(arrivals, barrier, i + 1)
                if keys is None:
                    scheduler.submit_many(requests[i:end],
                                          columns.arrival_ms[i:end],
                                          service.head_cylinder)
                    for j in range(i, end):
                        add(j)
                else:
                    for j in range(i, end):
                        insert(requests[j], keys[j])
                        add(j)
                i = end
                continue
            # Idle (each arrival may dispatch at once), observed (hook
            # order) or arming the refresh timer at this arrival's
            # clock: the legacy arrival handler, one request.
            request = requests[i]
            if obs is not None:
                obs.on_arrival(request, now)
            if keys is None:
                scheduler.submit(request, now, service.head_cylinder)
            else:
                insert(request, keys[i])
            add(i)
            i += 1
            if obs is not None:
                obs.ensure_enqueued(request, now)
                obs.on_queue_depth(now, len(scheduler))
        elif kind == "completion":
            request, in_flight = in_flight, None
            on_complete(request, now)
            on_served(request, now)
            if obs is not None:
                obs.on_complete(request, now,
                                missed=now > request.deadline_ms)
        else:
            refresh_at = None
            if not len(scheduler):
                continue
            scheduler.recharacterize(  # type: ignore[attr-defined]
                now, service.head_cylinder)

        # Dispatch while the disk is free.
        while in_flight is None:
            request = next_request(now, service.head_cylinder)
            if request is None:
                break
            index = index_of[id(request)]
            remove(index)
            note_queue_length(len(scheduler) + 1)
            if drop_expired and now >= request.deadline_ms:
                on_complete(request, now, dropped=True)
                on_served(request, now)
                if obs is not None:
                    obs.on_drop(request, now, "expired")
                if timeline is not None:
                    timeline.append(TimelineEntry(
                        request.request_id, now, now,
                        len(scheduler), dropped=True,
                    ))
                continue
            add_inversions(inversions_of(index))
            record = serve(request, now)
            on_service(record.seek_ms, record.latency_ms,
                       record.transfer_ms)
            if obs is not None:
                obs.on_dispatch(request, now)
                obs.on_service(request, now, seek_ms=record.seek_ms,
                               latency_ms=record.latency_ms,
                               transfer_ms=record.transfer_ms)
            done_at = now + record.total_ms
            if timeline is not None:
                timeline.append(TimelineEntry(
                    request.request_id, now, done_at, len(scheduler),
                ))
            in_flight, done_seq = request, seq
            seq += 1

        # Arrivals and refreshes (not completions) arm the next refresh
        # while work is queued; at most one timer is outstanding.
        if (kind != "completion" and every is not None
                and refresh_at is None and len(scheduler)):
            refresh_at, refresh_seq = now + every, seq
            seq += 1
    return timeline
