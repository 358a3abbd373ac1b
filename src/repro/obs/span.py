"""Request-lifecycle tracing: spans, phases, and the bounded span log.

One :class:`Span` follows one disk request through its whole life:

    arrival -> characterize -> enqueue/wait -> dispatch -> service
            -> complete | miss | drop

Each transition is a :class:`SpanEvent` carrying the phase name, its
instant, and a small ``detail`` mapping (per-SFC-stage scalars at
characterization, the queue a request landed in, the service-time
split, ...).  The phases between arrival and the terminal outcome are
open-ended — subsystems may add their own (SP promotions, ER window
changes, RAID retries) — but the *terminal* contract is strict: every
request reaches exactly one of ``complete``, ``miss`` or ``drop``,
exactly once (:func:`validate_spans` checks it, and the ``obs``
experiment gates on it).

:class:`SpanLog` bounds retention the same way
:class:`~repro.serve.trace.TraceLog` does: closed spans are kept in a
deque with a capacity, evicted oldest-first, while per-outcome counters
keep counting across evictions.  Export formats:

* :meth:`SpanLog.to_jsonl` — one JSON object per closed span
  (schema-versioned; see ``SPAN_SCHEMA_VERSION``), the stable format
  the lifecycle report and external tooling consume;
* :meth:`SpanLog.to_chrome_trace` — the Chrome ``trace_event`` JSON
  array form; load it at ``ui.perfetto.dev`` (or ``chrome://tracing``)
  to see wait and service slices per stream lane.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

#: Version stamp written into every exported span (bump on schema change).
SPAN_SCHEMA_VERSION = 1

#: Canonical lifecycle phases, in order of first possible occurrence.
PHASE_ARRIVAL = "arrival"
PHASE_CHARACTERIZE = "characterize"
PHASE_ENQUEUE = "enqueue"
PHASE_PREEMPT_INSERT = "preempt_insert"
PHASE_PROMOTE = "promote"
PHASE_WINDOW = "window"
PHASE_REQUEUE = "requeue"
PHASE_DISPATCH = "dispatch"
PHASE_SERVICE = "service"
PHASE_COMPLETE = "complete"
PHASE_MISS = "miss"
PHASE_DROP = "drop"

#: The mutually exclusive ways a request leaves the system.
TERMINAL_PHASES = (PHASE_COMPLETE, PHASE_MISS, PHASE_DROP)


@dataclass(frozen=True)
class SpanEvent:
    """One lifecycle transition inside a span."""

    time_ms: float
    phase: str
    detail: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {"time_ms": self.time_ms,
                                  "phase": self.phase}
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


@dataclass
class Span:
    """The full recorded lifecycle of one request."""

    request_id: int
    stream_id: int = -1
    events: list[SpanEvent] = field(default_factory=list)

    def add(self, time_ms: float, phase: str,
            detail: Mapping[str, object] | None = None) -> SpanEvent:
        event = SpanEvent(time_ms, phase, detail or {})
        self.events.append(event)
        return event

    @property
    def arrival_ms(self) -> float | None:
        for event in self.events:
            if event.phase == PHASE_ARRIVAL:
                return event.time_ms
        return None

    @property
    def terminal(self) -> SpanEvent | None:
        """The terminal event, or None while the span is open."""
        for event in reversed(self.events):
            if event.phase in TERMINAL_PHASES:
                return event
        return None

    def first(self, phase: str) -> SpanEvent | None:
        for event in self.events:
            if event.phase == phase:
                return event
        return None

    def duration_between(self, start_phase: str,
                         end_phase: str) -> float | None:
        """Elapsed ms from the first ``start_phase`` to the first
        ``end_phase`` event, or None when either is missing."""
        start = self.first(start_phase)
        end = self.first(end_phase)
        if start is None or end is None:
            return None
        return end.time_ms - start.time_ms

    def as_dict(self) -> dict[str, object]:
        terminal = self.terminal
        return {
            "schema_version": SPAN_SCHEMA_VERSION,
            "request_id": self.request_id,
            "stream_id": self.stream_id,
            "outcome": terminal.phase if terminal is not None else None,
            "events": [event.as_dict() for event in self.events],
        }


class SpanLog:
    """Bounded store of request spans with eviction-proof counters.

    Open spans (no terminal event yet) live in a dict keyed by request
    id; closing a span moves it into the bounded retention deque.  The
    per-outcome counters survive eviction, so aggregate accounting
    stays exact on long-lived servers.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 (or None)")
        self.capacity = capacity
        self._open: dict[int, Span] = {}
        self._closed: deque[Span] = deque(maxlen=capacity)
        self._outcomes: Counter = Counter()
        #: Lifetime spans opened (>= closed + open; eviction-proof).
        self.opened = 0

    # -- recording ---------------------------------------------------------

    def span(self, request_id: int, *, stream_id: int = -1) -> Span:
        """The open span of ``request_id``, created on first use."""
        span = self._open.get(request_id)
        if span is None:
            span = Span(request_id, stream_id)
            self._open[request_id] = span
            self.opened += 1
        elif stream_id >= 0 and span.stream_id < 0:
            span.stream_id = stream_id
        return span

    def record(self, request_id: int, time_ms: float, phase: str, *,
               stream_id: int = -1,
               detail: Mapping[str, object] | None = None) -> Span:
        """Append one event; a terminal phase closes the span."""
        span = self.span(request_id, stream_id=stream_id)
        span.add(time_ms, phase, detail)
        if phase in TERMINAL_PHASES:
            self._close(span)
        return span

    def annotate(self, request_id: int, time_ms: float, phase: str, *,
                 detail: Mapping[str, object] | None = None) -> None:
        """Append a non-terminal event to an *open* span only.

        A request whose span already closed has left the system (a
        shed victim can still sit in ``q'`` until dispatch discards
        it), so late annotations must not reopen a span for it.
        """
        span = self._open.get(request_id)
        if span is not None:
            span.add(time_ms, phase, detail)

    def _close(self, span: Span) -> None:
        self._open.pop(span.request_id, None)
        self._closed.append(span)
        terminal = span.terminal
        if terminal is not None:
            self._outcomes[terminal.phase] += 1

    # -- inspection --------------------------------------------------------

    @property
    def open_spans(self) -> int:
        return len(self._open)

    def closed(self) -> list[Span]:
        """Retained closed spans, oldest first."""
        return list(self._closed)

    def outcome_counts(self) -> dict[str, int]:
        """Lifetime terminal-outcome tallies (eviction-proof)."""
        return dict(self._outcomes)

    @property
    def closed_total(self) -> int:
        """Lifetime closed spans (>= retained when bounded)."""
        return sum(self._outcomes.values())

    def __iter__(self) -> Iterator[Span]:
        return iter(self._closed)

    def __len__(self) -> int:
        """Retained closed spans (<= lifetime total when bounded)."""
        return len(self._closed)

    # -- export ------------------------------------------------------------

    def to_jsonl_text(self) -> str:
        """Retained closed spans as JSON-lines text (one span per line).

        The same schema-versioned records :meth:`to_jsonl` writes; the
        run store persists this text directly.
        """
        return "".join(json.dumps(span.as_dict(), sort_keys=True) + "\n"
                       for span in self._closed)

    def to_jsonl(self, path: str) -> str:
        """Write retained closed spans as JSON lines; returns ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl_text())
        return path

    def chrome_trace_events(self) -> list[dict[str, object]]:
        """Chrome ``trace_event`` records for the retained spans.

        Wait (enqueue -> dispatch) and service (dispatch -> terminal)
        become complete ("X") slices on one lane per stream;
        everything else becomes instant ("i") markers.  Timestamps are
        microseconds, as the format requires.
        """
        records: list[dict[str, object]] = []
        slice_phases = {PHASE_ENQUEUE: PHASE_DISPATCH,
                        PHASE_DISPATCH: None}
        for span in self._closed:
            tid = span.stream_id if span.stream_id >= 0 else 0
            terminal = span.terminal
            enqueue = span.first(PHASE_ENQUEUE)
            dispatch = span.first(PHASE_DISPATCH)
            if enqueue is not None and dispatch is not None:
                records.append(_slice(f"wait r{span.request_id}", tid,
                                      enqueue.time_ms,
                                      dispatch.time_ms,
                                      dict(enqueue.detail)))
            if dispatch is not None and terminal is not None:
                records.append(_slice(f"service r{span.request_id}", tid,
                                      dispatch.time_ms,
                                      terminal.time_ms,
                                      {"outcome": terminal.phase}))
            for event in span.events:
                if event.phase in (PHASE_ENQUEUE, PHASE_DISPATCH):
                    continue
                if event.phase in slice_phases:
                    continue
                records.append({
                    "name": event.phase,
                    "ph": "i",
                    "ts": event.time_ms * 1000.0,
                    "pid": 1,
                    "tid": tid,
                    "s": "t",
                    "args": {"request_id": span.request_id,
                             **dict(event.detail)},
                })
        return records

    def to_chrome_trace(self, path: str) -> str:
        """Write the Perfetto-loadable trace JSON; returns ``path``."""
        payload = {
            "traceEvents": self.chrome_trace_events(),
            "displayTimeUnit": "ms",
            "metadata": {"schema_version": SPAN_SCHEMA_VERSION},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
        return path


def _slice(name: str, tid: int, start_ms: float, end_ms: float,
           args: dict[str, object]) -> dict[str, object]:
    return {
        "name": name,
        "ph": "X",
        "ts": start_ms * 1000.0,
        "dur": max(end_ms - start_ms, 0.0) * 1000.0,
        "pid": 1,
        "tid": tid,
        "args": args,
    }


def validate_spans(spans: Iterable[Span]) -> list[str]:
    """Schema check: every span terminates exactly once, in order.

    Returns a list of human-readable violations (empty = valid):

    * no terminal event, or more than one;
    * events out of chronological order;
    * a dispatch without an enqueue, or a terminal before arrival.
    """
    problems: list[str] = []
    for span in spans:
        rid = span.request_id
        terminals = [e for e in span.events if e.phase in TERMINAL_PHASES]
        if len(terminals) != 1:
            problems.append(
                f"request {rid}: {len(terminals)} terminal events "
                f"({[e.phase for e in terminals]})"
            )
        times = [e.time_ms for e in span.events]
        if any(b < a for a, b in zip(times, times[1:])):
            problems.append(f"request {rid}: events out of time order")
        if (span.first(PHASE_DISPATCH) is not None
                and span.first(PHASE_ENQUEUE) is None):
            problems.append(f"request {rid}: dispatched but never enqueued")
        if not span.events:
            problems.append(f"request {rid}: empty span")
    return problems


def validate_jsonl(path: str) -> list[str]:
    """Validate an exported spans file (the CI ``obs-smoke`` gate).

    Checks that every line parses, carries the current schema version,
    and has exactly one terminal event matching its ``outcome`` field.
    """
    problems: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: invalid JSON ({exc})")
                continue
            if obj.get("schema_version") != SPAN_SCHEMA_VERSION:
                problems.append(
                    f"line {lineno}: schema_version "
                    f"{obj.get('schema_version')!r} != {SPAN_SCHEMA_VERSION}"
                )
            events = obj.get("events", [])
            terminals = [e for e in events
                         if e.get("phase") in TERMINAL_PHASES]
            if len(terminals) != 1:
                problems.append(
                    f"line {lineno}: request {obj.get('request_id')} has "
                    f"{len(terminals)} terminal events"
                )
            elif terminals[0].get("phase") != obj.get("outcome"):
                problems.append(
                    f"line {lineno}: outcome field "
                    f"{obj.get('outcome')!r} does not match terminal "
                    f"event {terminals[0].get('phase')!r}"
                )
    return problems
