"""Global admission: aggregate per-array Table-1 budgets cluster-wide.

One disk admits "68 to 91 users" (paper, Section 6); a fleet of N
arrays admits ~N times that *only if* the controller can route around
full or degraded members.  :class:`GlobalAdmission` composes a
:class:`~repro.cluster.placement.PlacementPolicy` with one
:class:`ArrayBudget` per array:

* the placement policy proposes a preference order for the stream,
* the first array whose advertised budget fits the stream's reserved
  share admits it (``admit`` when it is the first choice, ``spill``
  when a later choice caught it — the spillover that keeps fleet-wide
  acceptance at N x the per-array band while individual arrays run
  hot or rebuild),
* a stream no budget fits is rejected cluster-wide.

Budgets reuse the per-array reservation math
(:meth:`repro.serve.admission.ReservationAdmission.reservation_for`
prices a stream's share from the Table 1 disk model), so the cluster
admits exactly the populations the single-array analysis predicts.
The advertised ceiling is ``target_utilization x capacity_factor``;
the controller degrades ``capacity_factor`` while a hot-spare rebuild
eats a member's bandwidth and restores it afterwards.
"""

from __future__ import annotations

import bisect
import enum
import heapq
from dataclasses import dataclass
from typing import Callable

from repro.serve.admission import ReservationAdmission
from repro.serve.session import StreamSpec

from .placement import (
    ArrayLoad,
    ConsistentHashPlacement,
    LeastReservedPlacement,
    PlacementPolicy,
)

#: Conservative float slack for the O(log N) reject short-circuit: the
#: fast path refuses without walking only when the stream's share
#: exceeds the best headroom by more than this, so any array within
#: rounding distance of fitting still gets the scan path's exact
#: ``reserved + share <= advertised_limit`` test.
_HEADROOM_SLACK = 1e-9


class RouteDecision(enum.Enum):
    """Outcome class of one cluster-wide stream-open attempt."""

    #: Admitted on the placement policy's first choice.
    ADMIT = "admit"
    #: Admitted, but only after spilling past full/degraded arrays.
    SPILL = "spill"
    #: No array budget fits the stream.
    REJECT = "reject"


@dataclass(frozen=True)
class ClusterDecision:
    """Decision plus the routing that produced it."""

    decision: RouteDecision
    #: Array granted the stream (-1 when rejected).
    array_id: int
    #: Reserved utilization share on the granted array (0 on reject).
    share: float
    #: Preference rank the stream landed at (0 = first choice).
    rank: int
    #: The placement preference order consulted, for the decision log.
    preferred: tuple[int, ...]
    reason: str

    @property
    def admitted(self) -> bool:
        return self.decision is not RouteDecision.REJECT


class ArrayBudget:
    """One array's advertised admission budget and its reservations.

    Wraps the single-array :class:`ReservationAdmission` share pricing
    with a mutable ``capacity_factor``: 1.0 while healthy, degraded
    (e.g. 0.6) while the hot-spare rebuild competes for bandwidth.
    """

    def __init__(self, array_id: int, policy: ReservationAdmission,
                 *, capacity_factor: float = 1.0) -> None:
        if not 0.0 < capacity_factor <= 1.0:
            raise ValueError("capacity_factor must be in (0, 1]")
        self.array_id = array_id
        self.policy = policy
        self._capacity_factor = capacity_factor
        self._reserved = 0.0
        #: Streams currently reserved here (count only; the controller
        #: owns the stream table).
        self.streams = 0
        #: Change listeners (the incremental admission index): fired on
        #: every ``reserved``/``capacity_factor`` write, including
        #: direct attribute assignment, so no mutation path can leave
        #: a cached view stale.
        self._listeners: list[Callable[["ArrayBudget"], None]] = []

    def subscribe(self, listener: Callable[["ArrayBudget"], None]
                  ) -> None:
        """Observe every budget mutation (for incremental indexes)."""
        self._listeners.append(listener)

    def _notify(self) -> None:
        for listener in self._listeners:
            listener(self)

    @property
    def reserved(self) -> float:
        """Sum of the placed streams' reserved utilization shares."""
        return self._reserved

    @reserved.setter
    def reserved(self, value: float) -> None:
        self._reserved = value
        self._notify()

    @property
    def capacity_factor(self) -> float:
        """1.0 while healthy, degraded during hot-spare rebuild."""
        return self._capacity_factor

    @capacity_factor.setter
    def capacity_factor(self, value: float) -> None:
        if not 0.0 < value <= 1.0:
            raise ValueError("capacity_factor must be in (0, 1]")
        self._capacity_factor = value
        self._notify()

    @property
    def advertised_limit(self) -> float:
        """Budget ceiling after capacity degradation."""
        return self.policy.target_utilization * self._capacity_factor

    @property
    def headroom(self) -> float:
        return self.advertised_limit - self._reserved

    def share_for(self, spec: StreamSpec) -> float:
        """Reserved utilization share ``spec`` would cost here."""
        return self.policy.reservation_for(spec)

    def fits(self, spec: StreamSpec) -> bool:
        return self._reserved + self.share_for(spec) \
            <= self.advertised_limit

    def reserve(self, share: float) -> None:
        self._reserved += share
        self.streams += 1
        self._notify()

    def release(self, share: float) -> None:
        self._reserved = max(self._reserved - share, 0.0)
        self.streams -= 1
        self._notify()

    def load(self, *, rebuilding: bool = False) -> ArrayLoad:
        """Snapshot for the placement policy."""
        return ArrayLoad(
            array_id=self.array_id,
            reserved_utilization=self.reserved,
            advertised_limit=self.advertised_limit,
            rebuilding=rebuilding,
        )


@dataclass
class AdmissionCounters:
    """Lifetime tallies of what the global controller decided."""

    admitted: int = 0
    spillovers: int = 0
    rejected: int = 0

    @property
    def attempts(self) -> int:
        return self.admitted + self.spillovers + self.rejected

    @property
    def accepted(self) -> int:
        """Streams granted service anywhere in the fleet."""
        return self.admitted + self.spillovers

    def as_dict(self) -> dict[str, int]:
        return {
            "admitted": self.admitted,
            "spillovers": self.spillovers,
            "rejected": self.rejected,
        }


class GlobalAdmission:
    """Route-or-reject: the fleet-wide admission decision procedure.

    Pure given its inputs: a decision depends only on the placement
    policy, the budgets' reserved shares, and the per-array rebuild
    flags — never on wall clock or iteration order — which is what
    lets the serial controller replay and the parallel serving phase
    agree byte for byte.

    Two implementations produce the identical decision sequence:

    * :meth:`route_scan` — the original per-event full-fleet scan
      (build every :class:`~repro.cluster.placement.ArrayLoad`, rank
      the whole fleet, walk the order).  O(arrays) per decision; kept
      as the differential oracle.
    * the incremental fast path (default) — event-indexed structures
      updated on budget deltas: a lazy max-headroom heap short-circuits
      fleet-wide rejects in O(log arrays), the hash ring is walked
      lazily and stops at the first budget that fits, and
      least-reserved placement keeps a sorted ``(rebuilding, reserved,
      array)`` index so only the equal-load group actually visited is
      tie-hashed.  Budget mutations flow through
      :meth:`ArrayBudget.subscribe` listeners, so the indexes are
      always exact — including under direct attribute writes.

    The fast path falls back to :meth:`route_scan` whenever its
    preconditions fail (non-uniform per-array pricing, an unknown
    placement policy, or a ``rebuilding`` set that differs from the
    flags announced via :meth:`set_rebuilding`), so it is never wrong,
    only sometimes slower.
    """

    def __init__(self, placement: PlacementPolicy,
                 budgets: dict[int, ArrayBudget],
                 *, incremental: bool = True) -> None:
        self.placement = placement
        self.budgets = budgets
        self.counters = AdmissionCounters()
        self.incremental = incremental
        #: Rebuild flags announced by the controller (the fast path
        #: requires the per-call ``rebuilding`` set to match).
        self._rebuilding: set[int] = set()
        #: True when every array prices streams identically, so one
        #: ``share_for`` call per decision covers the whole fleet
        #: (checked once here — pricing never varies per spec).
        self._uniform_pricing = self._pricing_is_uniform()
        #: Fleet-uniform share per ``(rate_mbps, block_bytes)``: the
        #: only spec fields the reservation price reads (block size and
        #: period).  Filled on the fast path only; ``route_scan`` keeps
        #: pricing every budget afresh.
        self._share_memo: dict[tuple[float, int], float] = {}
        #: Lazy max-headroom heap: (-headroom, array_id, token).
        self._headroom_heap: list[tuple[float, int, int]] = []
        self._tokens: dict[int, int] = {}
        #: Sorted (rebuilding, round(reserved, 12), array_id) index for
        #: least-reserved placement; maintained only when needed.
        self._lr_index: list[tuple[bool, float, int]] = []
        self._lr_key: dict[int, tuple[bool, float, int]] = {}
        self._track_lr = isinstance(placement, LeastReservedPlacement)
        for budget in budgets.values():
            budget.subscribe(self._budget_changed)
            self._budget_changed(budget)

    # -- incremental index maintenance ------------------------------------

    def _budget_changed(self, budget: ArrayBudget) -> None:
        """Refresh the indexed views of one array's budget."""
        array_id = budget.array_id
        token = self._tokens.get(array_id, 0) + 1
        self._tokens[array_id] = token
        heapq.heappush(self._headroom_heap,
                       (-budget.headroom, array_id, token))
        if self._track_lr:
            self._lr_update(array_id, budget)

    def _lr_update(self, array_id: int, budget: ArrayBudget) -> None:
        old = self._lr_key.get(array_id)
        new = (array_id in self._rebuilding,
               round(budget.reserved, 12), array_id)
        if old == new:
            return
        if old is not None:
            index = bisect.bisect_left(self._lr_index, old)
            del self._lr_index[index]
        bisect.insort(self._lr_index, new)
        self._lr_key[array_id] = new

    def set_rebuilding(self, array_id: int, flag: bool) -> None:
        """Announce an array's rebuild flag to the incremental index.

        The controller calls this alongside its own rebuild-window
        bookkeeping; the fast path only engages when the per-call
        ``rebuilding`` set equals the announced flags.
        """
        if flag:
            self._rebuilding.add(array_id)
        else:
            self._rebuilding.discard(array_id)
        budget = self.budgets.get(array_id)
        if budget is not None and self._track_lr:
            self._lr_update(array_id, budget)

    def _max_headroom(self) -> float | None:
        """Current best headroom fleet-wide (lazy-heap peek)."""
        heap = self._headroom_heap
        while heap:
            neg_headroom, array_id, token = heap[0]
            if self._tokens.get(array_id) == token \
                    and array_id in self.budgets:
                return -neg_headroom
            heapq.heappop(heap)
        return None

    def _pricing_is_uniform(self) -> bool:
        """True when every budget prices any spec identically.

        Requires exactly :class:`ReservationAdmission` (a subclass may
        override ``reservation_for``) with equal pricing inputs and
        one shared disk model — which is how the controller builds its
        fleet.  A heterogeneous fleet keeps the O(arrays) scan path.
        """
        policies = [b.policy for b in self.budgets.values()]
        if not policies:
            return True
        first = policies[0]
        if type(first) is not ReservationAdmission:
            return False
        return all(
            type(p) is ReservationAdmission
            and p._disk is first._disk
            and p.seek_budget_ms == first.seek_budget_ms
            and p.transfer_cylinder == first.transfer_cylinder
            for p in policies[1:]
        )

    def _shared_share(self, spec: StreamSpec) -> float | None:
        """The fleet-uniform share of ``spec``, or None if non-uniform."""
        if not self._uniform_pricing:
            return None
        key = (spec.rate_mbps, spec.block_bytes)
        share = self._share_memo.get(key)
        if share is None:
            share = next(iter(self.budgets.values())).share_for(spec)
            self._share_memo[key] = share
        return share

    # -- the decision procedure -------------------------------------------

    def loads(self, rebuilding: frozenset[int] = frozenset()
              ) -> list[ArrayLoad]:
        """Per-array load snapshots in array-id order."""
        return [
            budget.load(rebuilding=array_id in rebuilding)
            for array_id, budget in sorted(self.budgets.items())
        ]

    def route(self, stream_key: int, spec: StreamSpec,
              rebuilding: frozenset[int] = frozenset(),
              *, exclude: frozenset[int] = frozenset(),
              count: bool = True) -> ClusterDecision:
        """Place ``spec`` on the best array whose budget fits it.

        ``exclude`` removes arrays from consideration entirely (the
        migration path excludes the draining source); ``count=False``
        skips the lifetime counters (used for re-admission probes).

        On the incremental fast path the returned ``preferred`` tuple
        is the *prefix* of the preference order actually consulted
        (empty for a short-circuited reject); the scan path still
        returns the full order.
        """
        if self.incremental:
            decision = self._route_fast(stream_key, spec, rebuilding,
                                        exclude)
            if decision is not None:
                self._count(decision, count)
                return decision
        return self.route_scan(stream_key, spec, rebuilding,
                               exclude=exclude, count=count)

    def _count(self, decision: ClusterDecision, count: bool) -> None:
        if not count:
            return
        if decision.decision is RouteDecision.ADMIT:
            self.counters.admitted += 1
        elif decision.decision is RouteDecision.SPILL:
            self.counters.spillovers += 1
        else:
            self.counters.rejected += 1

    def _route_fast(self, stream_key: int, spec: StreamSpec,
                    rebuilding: frozenset[int],
                    exclude: frozenset[int]) -> ClusterDecision | None:
        """O(log arrays) decision, or None when a precondition fails."""
        share = self._shared_share(spec)
        if share is None:
            return None
        if isinstance(self.placement, ConsistentHashPlacement):
            candidates = self._ring_candidates(stream_key, exclude)
        elif self._track_lr:
            if rebuilding != self._rebuilding:
                return None
            candidates = self._lr_candidates(stream_key, exclude)
        else:
            return None
        if not exclude:
            best = self._max_headroom()
            if best is not None and share > best + _HEADROOM_SLACK:
                # No budget can fit: reject without walking the fleet.
                tried = len(self.budgets)
                return ClusterDecision(
                    decision=RouteDecision.REJECT, array_id=-1,
                    share=0.0, rank=tried, preferred=(),
                    reason="no array budget fits "
                           f"(tried {tried} arrays)",
                )
        visited: list[int] = []
        for array_id in candidates:
            visited.append(array_id)
            budget = self.budgets[array_id]
            if budget.reserved + share <= budget.advertised_limit:
                budget.reserve(share)
                rank = len(visited) - 1
                decision = (RouteDecision.ADMIT if rank == 0
                            else RouteDecision.SPILL)
                return ClusterDecision(
                    decision=decision,
                    array_id=array_id,
                    share=share,
                    rank=rank,
                    preferred=tuple(visited),
                    reason=(f"array {array_id} reserved "
                            f"{budget.reserved:.3f}"
                            f"/{budget.advertised_limit:.3f}"
                            + (f" after {rank} spills" if rank else "")),
                )
        return ClusterDecision(
            decision=RouteDecision.REJECT,
            array_id=-1,
            share=0.0,
            rank=len(visited),
            preferred=tuple(visited),
            reason="no array budget fits "
                   f"(tried {len(visited)} arrays)",
        )

    def _ring_candidates(self, stream_key: int,
                         exclude: frozenset[int]):
        """Eligible arrays in ring-preference order, lazily.

        Identical order to
        :meth:`~repro.cluster.placement.ConsistentHashPlacement.prefer`
        over the non-excluded budgets: the clockwise walk first, then
        any budgets absent from the ring, sorted by id.
        """
        placement = self.placement
        on_ring: set[int] = set()
        for owner in placement.successors(stream_key):
            on_ring.add(owner)
            if owner in self.budgets and owner not in exclude:
                yield owner
        for array_id in sorted(self.budgets):
            if array_id not in on_ring and array_id not in exclude:
                yield array_id

    def _lr_candidates(self, stream_key: int,
                       exclude: frozenset[int]):
        """Eligible arrays in least-reserved order, group by group.

        Walks the sorted ``(rebuilding, reserved, array)`` index and
        tie-hashes only inside each equal-load group, matching
        :meth:`~repro.cluster.placement.LeastReservedPlacement.prefer`
        without hashing the whole fleet.
        """
        placement = self.placement
        index = self._lr_index
        i = 0
        n = len(index)
        while i < n:
            j = i
            group_key = index[i][:2]
            while j < n and index[j][:2] == group_key:
                j += 1
            group = [index[k][2] for k in range(i, j)]
            if len(group) > 1:
                group.sort(key=lambda array_id:
                           placement.tie_key(stream_key, array_id))
            for array_id in group:
                if array_id not in exclude:
                    yield array_id
            i = j

    def route_scan(self, stream_key: int, spec: StreamSpec,
                   rebuilding: frozenset[int] = frozenset(),
                   *, exclude: frozenset[int] = frozenset(),
                   count: bool = True) -> ClusterDecision:
        """The original full-fleet scan (differential oracle).

        Builds every load snapshot and ranks the whole fleet per
        decision — O(arrays).  The incremental fast path must produce
        byte-identical decisions; ``tests/test_cluster_incremental.py``
        pins the equivalence.
        """
        loads = [load for load in self.loads(rebuilding)
                 if load.array_id not in exclude]
        preferred = self.placement.prefer(stream_key, loads)
        for rank, array_id in enumerate(preferred):
            budget = self.budgets[array_id]
            share = budget.share_for(spec)
            if budget.reserved + share <= budget.advertised_limit:
                budget.reserve(share)
                decision = (RouteDecision.ADMIT if rank == 0
                            else RouteDecision.SPILL)
                if count:
                    if decision is RouteDecision.ADMIT:
                        self.counters.admitted += 1
                    else:
                        self.counters.spillovers += 1
                return ClusterDecision(
                    decision=decision,
                    array_id=array_id,
                    share=share,
                    rank=rank,
                    preferred=preferred,
                    reason=(f"array {array_id} reserved "
                            f"{budget.reserved:.3f}"
                            f"/{budget.advertised_limit:.3f}"
                            + (f" after {rank} spills" if rank else "")),
                )
        if count:
            self.counters.rejected += 1
        return ClusterDecision(
            decision=RouteDecision.REJECT,
            array_id=-1,
            share=0.0,
            rank=len(preferred),
            preferred=preferred,
            reason="no array budget fits "
                   f"(tried {len(preferred)} arrays)",
        )

    def release(self, array_id: int, share: float) -> None:
        """Return a departed stream's share to its array budget."""
        self.budgets[array_id].release(share)

    @property
    def fleet_reserved(self) -> float:
        """Summed reserved utilization across the fleet."""
        return sum(b.reserved for b in self.budgets.values())

    @property
    def fleet_advertised(self) -> float:
        """Summed advertised budget across the fleet."""
        return sum(b.advertised_limit for b in self.budgets.values())
