"""Structure-of-arrays request columns for the batched engine.

The legacy engine walks one Python object per request; the batched
engine (:mod:`repro.sim.batched`) keeps the columns its event loop
reads as numpy arrays -- arrival, per-dimension priorities and the
precomputed SFC key when the scheduler admits one.  The loop reads the
arrival and key columns as Python lists (one ``tolist()`` each) and
ranks the priority matrix for its inversion ledger.

The columns never replace the :class:`~repro.core.request.DiskRequest`
objects (schedulers and metrics still receive the originals, so every
observable side effect is bit-identical to the legacy path); they are
the index the engine plans epochs and counts inversions from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.request import DiskRequest

@dataclass
class RequestColumns:
    """The workload as parallel numpy columns, in arrival order."""

    requests: tuple[DiskRequest, ...]
    #: Arrival clamped to >= 0 -- the instant the legacy engine fires
    #: the arrival event (``max(arrival_ms, 0.0)``), non-decreasing.
    arrival_ms: np.ndarray
    #: ``(n, dims)`` int64 matrix of the priority vectors.
    priorities: np.ndarray
    #: Precomputed whole-run v_c (float64), or None when the scheduler
    #: does not admit arrival-time precomputation.
    sfc_key: np.ndarray | None = None

    @classmethod
    def from_requests(cls, ordered: Sequence[DiskRequest],
                      dims: int) -> "RequestColumns":
        n = len(ordered)
        return cls(
            requests=tuple(ordered),
            arrival_ms=np.fromiter(
                (max(r.arrival_ms, 0.0) for r in ordered), np.float64, n),
            priorities=np.array([r.priorities for r in ordered],
                                dtype=np.int64).reshape(n, dims),
        )

    def __len__(self) -> int:
        return len(self.requests)


@dataclass
class MemberColumns:
    """Per-member lane state of the batched RAID-5 array engine.

    The legacy array loop keeps each member's in-flight completion as
    one closure on the event heap; the batched engine
    (:class:`repro.sim.array._BatchedArrayState`) keeps the lanes as
    parallel numpy columns instead and finds the next completion with
    one vectorized ``(busy-until, sequence)`` minimum.  The sequence
    column carries the event-queue sequence number the legacy engine
    would have given the completion event (reserved at dispatch), so
    the lexicographic minimum reproduces the heap's tie order exactly.

    The remaining columns are per-member ledgers — dispatch, failure
    (retry-triggering), rebuild-op counts and the highest rebuilt
    stripe epoch — maintained as SoA tallies alongside the shared
    :class:`repro.sim.array._FaultTallies` totals.
    """

    #: Completion instant of the in-flight op; ``inf`` when idle.
    busy_until_ms: np.ndarray
    #: Event-queue sequence of the in-flight completion; ``-1`` idle.
    busy_seq: np.ndarray
    #: Physical operations dispatched per member.
    ops_dispatched: np.ndarray
    #: Physical operations failed per member (dispatch- or in-flight).
    ops_failed: np.ndarray
    #: Rebuild operations submitted per member.
    rebuild_ops: np.ndarray
    #: Highest rebuilt stripe index + 1 observed per member.
    stripe_epoch: np.ndarray

    @classmethod
    def for_members(cls, count: int) -> "MemberColumns":
        return cls(
            busy_until_ms=np.full(count, np.inf, dtype=np.float64),
            busy_seq=np.full(count, -1, dtype=np.int64),
            ops_dispatched=np.zeros(count, dtype=np.int64),
            ops_failed=np.zeros(count, dtype=np.int64),
            rebuild_ops=np.zeros(count, dtype=np.int64),
            stripe_epoch=np.zeros(count, dtype=np.int64),
        )

    def all_busy(self) -> bool:
        """True when every lane has an in-flight operation."""
        return bool(np.isfinite(self.busy_until_ms).all())

    def min_key(self) -> tuple[float, int, int] | None:
        """``(time, sequence, lane)`` of the earliest completion.

        Lexicographic over ``(busy_until_ms, busy_seq)`` — the same key
        the legacy heap orders completion events by — or None when all
        lanes are idle.
        """
        busy_until = self.busy_until_ms
        time = busy_until.min()
        if not np.isfinite(time):
            return None
        seqs = np.where(busy_until == time, self.busy_seq,
                        np.iinfo(np.int64).max)
        lane = int(seqs.argmin())
        return float(time), int(self.busy_seq[lane]), lane


class InversionLedger:
    """Exact priority-inversion counting without iterating the queue.

    The legacy engine charges, at every dispatch, one inversion per
    waiting request per dimension where the waiting request's priority
    is *strictly* higher (a lower level).  That is an O(queue x dims)
    Python loop -- the dominant cost under load.  Priorities are small
    integers, so the same count falls out of per-level occupancy
    tables: rank every request's priority against the distinct levels
    present in the workload, keep one waiting-count per level, and the
    inversions charged to a dispatch are the occupancy strictly below
    the dispatched request's rank.  Integer arithmetic throughout, so
    the tallies are identical to the legacy loop's, not approximations.
    """

    def __init__(self, priorities: np.ndarray) -> None:
        #: One ``(waiting count per level, rank per request)`` pair per
        #: dimension, both plain lists so a dispatch indexes no numpy
        #: scalars.
        self._tables: list[tuple[list[int], list[int]]] = []
        for k in range(priorities.shape[1]):
            levels, ranks = np.unique(priorities[:, k],
                                      return_inverse=True)
            self._tables.append(([0] * len(levels), ranks.tolist()))

    def add(self, index: int) -> None:
        """Request ``index`` joined the waiting set."""
        for counts, ranks in self._tables:
            counts[ranks[index]] += 1

    def remove(self, index: int) -> None:
        """Request ``index`` left the waiting set (popped by dispatch)."""
        for counts, ranks in self._tables:
            counts[ranks[index]] -= 1

    def inversions_of(self, index: int) -> list[int]:
        """Waiting requests strictly above ``index``'s priority, per dim.

        Call after :meth:`remove`, mirroring the legacy engine where
        the dispatched request is already out of ``pending()``.
        """
        return [sum(counts[:ranks[index]])
                for counts, ranks in self._tables]


class ServeInversionLedger:
    """:class:`InversionLedger` for an open-ended request population.

    The offline ledger ranks a closed workload's priority levels up
    front; the serving tier admits requests open-endedly, so this
    variant keys occupancy by the raw priority level and grows the
    per-dimension tables on demand.  Same integer tallies as the
    legacy ``MetricsCollector.on_dispatch`` scan over ``pending()``.
    """

    def __init__(self, dims: int) -> None:
        self._counts: list[list[int]] = [[] for _ in range(dims)]

    def add(self, priorities: Sequence[int]) -> None:
        """A request with ``priorities`` joined the waiting set."""
        for k, level in enumerate(priorities):
            counts = self._counts[k]
            if level >= len(counts):
                counts.extend([0] * (level + 1 - len(counts)))
            counts[level] += 1

    def remove(self, priorities: Sequence[int]) -> None:
        """A request with ``priorities`` left the waiting set."""
        for k, level in enumerate(priorities):
            self._counts[k][level] -= 1

    def inversions_of(self, priorities: Sequence[int]) -> list[int]:
        """Waiting requests strictly above ``priorities``, per dim.

        Call after :meth:`remove`, mirroring the legacy engine where
        the dispatched request is already out of ``pending()``.
        """
        return [sum(self._counts[k][:level])
                for k, level in enumerate(priorities)]
