"""Live stream sessions: per-user request feeds for the online server.

The offline workloads (:mod:`repro.workloads.multimedia`) pre-generate
a closed request list; the serving layer instead models each admitted
user as an open-ended :class:`StreamSession` that *becomes due* once
per period and is polled by the server loop.  A :class:`SessionManager`
owns the admitted sessions, hands out globally increasing request ids,
and can also *materialize* the identical request sequence up-front so
the same population can be replayed through the offline simulator
(:func:`repro.sim.run_simulation`) for deterministic tests — see
:mod:`repro.serve.adapter`.

Determinism contract: a session draws its per-request deadlines from a
private RNG stream keyed by ``(seed, stream_id)`` in issue order, so
polling a session live and materializing it offline produce identical
requests.  Sessions issue one request at a time, on demand; each keeps
its next due instant as a plain attribute, which the manager's lazy
``(due, stream_id)`` heap compares against to spot stale entries.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from random import Random
from typing import Iterator

from repro.core.request import DiskRequest
from repro.disk.disk import FILE_BLOCK_BYTES
from repro.disk.geometry import DiskGeometry
from repro.sim.rng import derive
from repro.workloads.multimedia import stream_period_ms


@dataclass(frozen=True)
class StreamSpec:
    """What a user asks for when opening a stream.

    Parameters
    ----------
    rate_mbps:
        Consumption rate *as seen by this disk* (divide the stream rate
        by the RAID data-disk count when modelling a striped server).
    block_bytes:
        Transfer unit; one request per period retrieves one block.
    priorities:
        Requested QoS vector (level 0 = highest); the admission
        controller may downgrade it.
    deadline_range_ms:
        Per-block relative deadline, drawn uniformly from this range
        (Section 6 uses U(750, 1500)).
    start_block:
        First file block; consecutive requests read consecutive blocks.
    blocks:
        Number of blocks in the title, or None for an open-ended live
        stream (the session then wraps around the disk).
    is_write:
        True for a real-time ingest stream.
    """

    rate_mbps: float
    block_bytes: int = FILE_BLOCK_BYTES
    priorities: tuple[int, ...] = (0,)
    deadline_range_ms: tuple[float, float] = (750.0, 1500.0)
    start_block: int = 0
    blocks: int | None = None
    is_write: bool = False
    #: Request value for value-based schedulers (larger = more valuable).
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_mbps <= 0:
            raise ValueError("rate_mbps must be positive")
        if self.block_bytes < 1:
            raise ValueError("block_bytes must be >= 1")
        if self.blocks is not None and self.blocks < 1:
            raise ValueError("blocks must be >= 1 (or None)")
        lo, hi = self.deadline_range_ms
        if lo < 0 or hi < lo:
            raise ValueError("deadline_range_ms must satisfy 0 <= lo <= hi")
        if any(p < 0 for p in self.priorities):
            raise ValueError("priority levels must be non-negative")

    @property
    def period_ms(self) -> float:
        """Time one block lasts at the consumption rate."""
        return stream_period_ms(self.rate_mbps, self.block_bytes)

    def with_priorities(self, priorities: tuple[int, ...]) -> "StreamSpec":
        return replace(self, priorities=priorities)

    def advanced(self, blocks: int) -> "StreamSpec":
        """The spec of this stream resumed ``blocks`` into its title.

        Used by cluster migration (:mod:`repro.cluster.migration`): a
        stream re-admitted on another array continues from where the
        drained copy stopped.  Bounded titles shrink their remaining
        ``blocks`` accordingly; a fully-consumed bounded title keeps
        one block so the resumed session stays constructible (it
        retires on its first poll).
        """
        if blocks < 0:
            raise ValueError("blocks must be >= 0")
        if blocks == 0:
            return self
        remaining = self.blocks
        if remaining is not None:
            blocks = min(blocks, remaining - 1)
            remaining = remaining - blocks
        return replace(self, start_block=self.start_block + blocks,
                       blocks=remaining)


class StreamSession:
    """One admitted user's periodic block feed.

    The session is a pure generator of due requests: the server polls
    it through the :class:`SessionManager`; it never touches the clock
    itself.
    """

    def __init__(self, stream_id: int, spec: StreamSpec, opened_ms: float,
                 geometry: DiskGeometry, rng: Random) -> None:
        self.stream_id = stream_id
        self.spec = spec
        self.opened_ms = opened_ms
        self.closed_ms: float | None = None
        self._geometry = geometry
        self._rng = rng
        self._max_block = geometry.capacity_bytes // spec.block_bytes - 1
        #: Cached block period; the spec fields it derives from
        #: (rate, block size) never change over a session's life
        #: (priority downgrades replace only the QoS vector).
        self.period_ms = spec.period_ms
        #: Requests issued so far (monotone; equals polled count), which
        #: is also the index of the next block.
        self.issued = 0
        #: Arrival instant of the next block, or None once exhausted.
        #: Stored rather than derived per read: the manager's due heap
        #: checks it on every peek.  Block 0 uses the same expression as
        #: every later block, so an int open instant still yields a float.
        self.next_due_ms: float | None = opened_ms + 0 * self.period_ms

    @property
    def exhausted(self) -> bool:
        """True once the title has been fully issued or the session closed."""
        return self.next_due_ms is None

    def close(self, now_ms: float) -> None:
        self.closed_ms = now_ms
        self.next_due_ms = None

    def issue(self, request_id: int) -> DiskRequest:
        """Build the next due request (advances the session)."""
        due = self.next_due_ms
        if due is None:
            raise RuntimeError(f"stream {self.stream_id} is exhausted")
        spec = self.spec
        block = spec.start_block + self.issued
        if spec.blocks is None:
            block %= self._max_block + 1  # live stream: wrap the disk
        else:
            block = min(block, self._max_block)
        lo, hi = spec.deadline_range_ms
        request = DiskRequest(
            request_id=request_id,
            arrival_ms=due,
            cylinder=self._geometry.block_cylinder(block, spec.block_bytes),
            nbytes=spec.block_bytes,
            deadline_ms=due + self._rng.uniform(lo, hi),
            priorities=spec.priorities,
            value=spec.value,
            stream_id=self.stream_id,
            is_write=spec.is_write,
        )
        self.issued = index = self.issued + 1
        self.next_due_ms = (
            None if spec.blocks is not None and index >= spec.blocks
            else self.opened_ms + index * self.period_ms)
        return request


class SessionManager:
    """Owns the live sessions and turns them into a single request feed.

    The manager is shared by the online server and the offline adapter:
    the server calls :meth:`poll` as simulated (or wall) time advances,
    while :meth:`materialize` plays every session forward to a horizon
    and returns the identical requests as one sorted batch.
    """

    def __init__(self, geometry: DiskGeometry, *, seed: int = 0) -> None:
        self._geometry = geometry
        self._seed = seed
        self._next_stream_id = 0
        self._next_request_id = 0
        self.sessions: dict[int, StreamSession] = {}
        #: Sessions that ended (kept for QoS reporting).
        self.closed: dict[int, StreamSession] = {}
        #: Lazy (due_ms, stream_id) min-heap over the active sessions'
        #: next block instants.  Every live session has exactly one
        #: *current* entry (pushed at open and after each issue);
        #: entries of closed/retired/advanced sessions go stale and are
        #: discarded when they surface.  This turns the per-request
        #: "scan every session" of the server loop into O(log n) — the
        #: popped (due, stream_id) minimum is the same key the scan
        #: minimized, so the issue order is bit-identical.
        self._due_heap: list[tuple[float, int]] = []
        #: Sessions whose final block just issued, awaiting
        #: :meth:`retire_exhausted`.  Only bounded titles ever land
        #: here (live streams never exhaust), so retirement is O(newly
        #: finished) instead of a scan of the whole population.
        self._retire_pending: list[StreamSession] = []

    @property
    def geometry(self) -> DiskGeometry:
        return self._geometry

    @property
    def active_streams(self) -> int:
        return len(self.sessions)

    @property
    def issued_requests(self) -> int:
        return self._next_request_id

    def open(self, spec: StreamSpec, now_ms: float) -> StreamSession:
        """Create a session (admission already granted)."""
        stream_id = self._next_stream_id
        self._next_stream_id += 1
        rng = derive(self._seed, "serve", stream_id)
        session = StreamSession(stream_id, spec, now_ms, self._geometry, rng)
        self.sessions[stream_id] = session
        due = session.next_due_ms
        if due is not None:
            heapq.heappush(self._due_heap, (due, stream_id))
        return session

    def close(self, stream_id: int, now_ms: float) -> StreamSession:
        """End a session; it stops issuing immediately."""
        session = self.sessions.pop(stream_id)
        session.close(now_ms)
        self.closed[stream_id] = session
        return session

    def retire(self, session: StreamSession, now_ms: float) -> None:
        """Move one finished session into ``closed``."""
        self.sessions.pop(session.stream_id, None)
        session.close(now_ms)
        self.closed[session.stream_id] = session

    def retire_exhausted(self, now_ms: float) -> list[StreamSession]:
        """Move sessions whose titles finished into ``closed``.

        :meth:`poll` marks a session the moment its last block issues,
        so this drains that pending list — O(newly finished), where it
        used to scan every live session per server tick.  The stream-id
        sort reproduces the scan's dict order (insertion order == open
        order == ascending stream id).
        """
        if not self._retire_pending:
            return []
        done = []
        for session in sorted(self._retire_pending,
                              key=lambda s: s.stream_id):
            if self.sessions.get(session.stream_id) is not session:
                continue  # closed explicitly since its last issue
            self.retire(session, now_ms)
            done.append(session)
        self._retire_pending.clear()
        return done

    def next_due_ms(self) -> float | None:
        """Earliest pending block instant across all sessions.

        Discards stale heap entries on the way: an entry is current
        only while it matches its live session's stored due.
        """
        heap = self._due_heap
        sessions = self.sessions
        while heap:
            due, stream_id = heap[0]
            session = sessions.get(stream_id)
            if session is not None and session.next_due_ms == due:
                return due
            heapq.heappop(heap)  # closed, retired, or already issued
        return None

    def poll(self, now_ms: float, limit: int | None = None
             ) -> list[DiskRequest]:
        """Pop every request due at or before ``now_ms``.

        Requests come out in global ``(due instant, stream id)`` order —
        one at a time, so a session that fell several periods behind
        still interleaves correctly — which makes request ids a pure
        function of the session population, not of poll timing.
        ``limit`` caps how many are taken (backpressure); the rest stay
        due and will be returned by a later poll.
        """
        out: list[DiskRequest] = []
        heap = self._due_heap
        sessions = self.sessions
        while heap and (limit is None or len(out) < limit):
            # The heap top bounds every current entry, stale or not.
            due, stream_id = heap[0]
            if due > now_ms:
                break
            heapq.heappop(heap)
            session = sessions.get(stream_id)
            if session is None or session.next_due_ms != due:
                continue  # closed, retired, or already issued
            out.append(session.issue(self._next_request_id))
            self._next_request_id += 1
            due = session.next_due_ms
            if due is not None:
                heapq.heappush(heap, (due, session.stream_id))
            else:
                self._retire_pending.append(session)
        return out

    def materialize(self, until_ms: float) -> list[DiskRequest]:
        """Issue every request due in ``[now, until_ms]`` as one batch.

        Equivalent to polling at every due instant up to ``until_ms``;
        used by the offline adapter to hand the identical workload to
        :func:`repro.sim.run_simulation`.
        """
        return self.poll(until_ms)

    def __iter__(self) -> Iterator[StreamSession]:
        return iter(self.sessions.values())

    def __len__(self) -> int:
        return len(self.sessions)
