"""Part 1 of the Cascaded-SFC scheduler: the encapsulator.

The encapsulator converts a multi-dimensional disk request into its
one-dimensional *characterization value* ``v_c`` through up to three
cascaded stages (Figure 2 of the paper):

* **Stage 1** (:class:`PrioritySFCStage`) -- a D-dimensional SFC over
  the D priority-like parameters, minimizing priority inversion.
* **Stage 2** -- combines the stage-1 output with the deadline.  The
  paper's evaluation uses the weighted-sum family
  ``v = priority + f * deadline`` (:class:`WeightedDeadlineStage`);
  a true 2-D curve (:class:`SFC2DStage`) is also provided.
* **Stage 3** -- combines the stage-2 output with the cylinder
  position.  The paper's instantiation is the R-partitioned glued sweep
  (:class:`PartitionedSeekStage`); the generic :class:`SFC2DStage`
  works here too.

Any stage may be ``None``, reproducing the flexibility of Section 4.1
(skip SFC2 when deadlines are relaxed, skip SFC3 when seek time does
not matter, skip SFC1 with a single priority type).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.sfc.base import SpaceFillingCurve
from repro.sfc.registry import get_curve
from repro.sfc.vectorized import batch_index

from .quantize import (
    CylinderDistanceQuantizer,
    DeadlineQuantizer,
    PriorityQuantizer,
)
from .request import DiskRequest


@dataclass(frozen=True)
class EncodeContext:
    """Dynamic state the encapsulator needs at insertion time."""

    now_ms: float
    head_cylinder: int


class PriorityStage(Protocol):
    """Stage 1 protocol: priorities -> scalar."""

    @property
    def output_cells(self) -> int: ...

    def encode(self, priorities: Sequence[int]) -> int: ...


class DeadlineStage(Protocol):
    """Stage 2 protocol: (stage-1 scalar, deadline, now) -> scalar."""

    @property
    def output_cells(self) -> int: ...

    def encode(self, priority_scalar: int, priority_cells: int,
               deadline_ms: float, now_ms: float) -> int: ...


class SeekStage(Protocol):
    """Stage 3 protocol: (stage-2 scalar, cylinder, head) -> scalar."""

    @property
    def output_cells(self) -> int: ...

    def encode(self, upstream_scalar: int, upstream_cells: int,
               cylinder: int, head_cylinder: int) -> int: ...


def _rescale(value: float, in_cells: int, out_cells: int) -> int:
    """Proportionally map a (possibly fractional) cell index between grids."""
    if in_cells <= 1:
        return 0
    scaled = int(value * out_cells / in_cells)
    return min(max(scaled, 0), out_cells - 1)


class PrioritySFCStage:
    """Stage 1: a D-dimensional space-filling curve over priority levels.

    The stage-1 scalar depends *only* on the (immutable) priority
    vector, so it is memoized per distinct vector: re-characterizing a
    queue when the clock or head moves recomputes stages 2-3 but hits
    this memo for stage 1, and repeat arrivals from the same stream
    never pay the curve walk twice.  The memo is bounded by the curve
    size (there are at most ``len(curve)`` distinct quantized points;
    raw vectors beyond the cap simply stop being cached).
    """

    #: Upper bound on memoized priority vectors per stage.
    MEMO_CAP = 1 << 16

    def __init__(self, curve: SpaceFillingCurve) -> None:
        self._curve = curve
        self._quantizer = PriorityQuantizer(curve.side)
        self._memo: dict[tuple[int, ...], int] = {}
        self._memo_cap = min(len(curve), self.MEMO_CAP)

    @classmethod
    def from_name(cls, curve_name: str, dims: int,
                  levels: int) -> "PrioritySFCStage":
        return cls(get_curve(curve_name, dims, levels))

    @property
    def curve(self) -> SpaceFillingCurve:
        return self._curve

    @property
    def output_cells(self) -> int:
        return len(self._curve)

    @property
    def memo_size(self) -> int:
        """Number of memoized priority vectors (observability)."""
        return len(self._memo)

    def encode(self, priorities: Sequence[int]) -> int:
        if len(priorities) != self._curve.dims:
            raise ValueError(
                f"request has {len(priorities)} priorities, stage expects "
                f"{self._curve.dims}"
            )
        key = (priorities if type(priorities) is tuple
               else tuple(priorities))
        value = self._memo.get(key)
        if value is None:
            point = tuple(self._quantizer(p) for p in key)
            value = self._curve.index(point)
            if len(self._memo) < self._memo_cap:
                self._memo[key] = value
        return value

    def encode_many(self,
                    vectors: Sequence[Sequence[int]]) -> np.ndarray:
        """Stage-1 scalars of many priority vectors at once.

        Memo hits are dictionary lookups; each *distinct* miss is
        computed once, all of them in one vectorized
        :func:`~repro.sfc.vectorized.batch_index` call (analytic or LUT
        path), scattered back to every row that holds it and
        back-filled into the memo in first-seen order while the memo
        is under its cap.  Identical to per-vector :meth:`encode`.
        """
        out = np.empty(len(vectors), dtype=np.float64)
        memo = self._memo
        missing: list[int] = []
        # Distinct missing vector -> its row in the points computed below.
        slots: dict[tuple[int, ...], int] = {}
        slot_of: list[int] = []
        for i, vector in enumerate(vectors):
            key = (vector if type(vector) is tuple else tuple(vector))
            value = memo.get(key)
            if value is None:
                missing.append(i)
                slot_of.append(slots.setdefault(key, len(slots)))
            else:
                out[i] = value
        if missing:
            side = self._curve.side
            points = np.array(
                [[min(max(int(level), 0), side - 1) for level in key]
                 for key in slots],
                dtype=np.int64,
            ).reshape(len(slots), self._curve.dims)
            values = [int(v) for v in batch_index(self._curve, points)]
            out[missing] = np.array(values, dtype=np.float64)[slot_of]
            room = self._memo_cap - len(memo)
            for key, value in zip(slots, values[:max(room, 0)]):
                memo[key] = value
        return out


class WeightedDeadlineStage:
    """Stage 2, paper instantiation: ``v = priority + f * deadline``.

    The priority scalar is rescaled onto a ``grid``-cell axis; the
    deadline axis is the *absolute* deadline in units of
    ``horizon_ms / grid`` so that one priority grid equals one deadline
    horizon.  Using the absolute deadline (as the paper's "one
    dimension represents the request deadline") makes waiting requests
    age naturally: with any ``f > 0`` an old request eventually
    outranks newer high-priority arrivals, and ``f -> inf`` recovers
    exact EDF order.

    Tie-breaking follows Section 5.2: for ``f < 1`` ties favour the
    earlier deadline, for ``f > 1`` the higher priority, and at
    ``f == 1`` insertion order decides (the dispatcher's FIFO
    tie-break).  Relaxed (infinite) deadlines are treated as falling
    ``relaxed_horizons`` horizons past the current time.
    """

    def __init__(self, f: float, horizon_ms: float, grid: int = 64, *,
                 relaxed_horizons: float = 4.0) -> None:
        if f < 0:
            raise ValueError("f must be non-negative")
        if horizon_ms <= 0:
            raise ValueError("horizon_ms must be positive")
        if grid < 2:
            raise ValueError("grid must be >= 2")
        self._f = f
        self._grid = grid
        self._horizon_ms = horizon_ms
        self._relaxed_horizons = relaxed_horizons

    @property
    def f(self) -> float:
        return self._f

    @property
    def grid(self) -> int:
        return self._grid

    @property
    def horizon_ms(self) -> float:
        return self._horizon_ms

    @property
    def relaxed_horizons(self) -> float:
        return self._relaxed_horizons

    @property
    def output_cells(self) -> int:
        """Nominal span of one (priority x horizon) tile of the v space.

        v itself grows with absolute time; this span is what blocking
        windows are expressed against, so a window fraction keeps the
        same meaning it has for the finite stages.
        """
        return int((1.0 + self._f) * self._grid)

    def _deadline_units(self, deadline_ms: float, now_ms: float) -> float:
        if math.isinf(deadline_ms):
            deadline_ms = now_ms + self._relaxed_horizons * self._horizon_ms
        return deadline_ms / self._horizon_ms * self._grid

    def encode(self, priority_scalar: int, priority_cells: int,
               deadline_ms: float, now_ms: float) -> float:
        p = _rescale(priority_scalar, priority_cells, self._grid)
        d = self._deadline_units(deadline_ms, now_ms)
        primary = p + self._f * d
        if self._f < 1.0:
            secondary = d
        elif self._f > 1.0:
            secondary = float(p)
        else:
            secondary = 0.0
        return primary + secondary * 1e-9

    def floor_value(self, now_ms: float) -> float:
        """Minimum possible v of any request encoded at ``now_ms``.

        The paper's SFC3 formula defines ``X_v`` as the difference
        between a request's priority-deadline value and "the minimum
        possible priority-deadline value of any disk request"; that
        minimum is a top-priority request whose deadline is now.
        """
        return self._f * (now_ms / self._horizon_ms) * self._grid

    def relative(self, value: float, now_ms: float) -> float:
        """``value`` expressed relative to the current floor (the X_v)."""
        return max(value - self.floor_value(now_ms), 0.0)


class SFC2DStage:
    """Generic two-dimensional SFC stage (usable as stage 2 or 3).

    Maps (upstream scalar, companion coordinate) through a 2-D curve.
    As stage 2 the companion is the quantized deadline; as stage 3 it is
    the quantized cylinder distance.
    """

    def __init__(self, curve: SpaceFillingCurve, *,
                 horizon_ms: float | None = None,
                 cylinders: int | None = None,
                 directional: bool = True) -> None:
        if curve.dims != 2:
            raise ValueError("SFC2DStage needs a 2-dimensional curve")
        self._curve = curve
        self._deadline_q = (
            DeadlineQuantizer(horizon_ms, curve.side)
            if horizon_ms is not None else None
        )
        self._cylinder_q = (
            CylinderDistanceQuantizer(cylinders, curve.side, directional)
            if cylinders is not None else None
        )

    @classmethod
    def for_deadline(cls, curve_name: str, grid: int,
                     horizon_ms: float) -> "SFC2DStage":
        return cls(get_curve(curve_name, 2, grid), horizon_ms=horizon_ms)

    @classmethod
    def for_seek(cls, curve_name: str, grid: int, cylinders: int,
                 directional: bool = True) -> "SFC2DStage":
        return cls(get_curve(curve_name, 2, grid), cylinders=cylinders,
                   directional=directional)

    @property
    def curve(self) -> SpaceFillingCurve:
        return self._curve

    @property
    def output_cells(self) -> int:
        return len(self._curve)

    def encode(self, upstream_scalar: int, upstream_cells: int,
               second_raw: float, second_ref: float) -> int:
        """Encode with a pre-quantized or quantizable second coordinate."""
        x = _rescale(upstream_scalar, upstream_cells, self._curve.side)
        if self._deadline_q is not None:
            y = self._deadline_q(second_raw, second_ref)
        elif self._cylinder_q is not None:
            y = self._cylinder_q(int(second_raw), int(second_ref))
        else:
            y = min(max(int(second_raw), 0), self._curve.side - 1)
        return self._curve.index((x, y))


class PartitionedSeekStage:
    """Stage 3, paper instantiation: R glued sweep partitions.

    ``X_v`` is the priority-deadline scalar rescaled onto ``x_cells``;
    ``Y_v`` is the cylinder distance from the head.  The X axis is split
    into ``R`` vertical partitions; within a partition requests are
    ordered by ``Y_v`` (one disk scan), then by ``X_v``:

        v_c = P_n * (Max_y * P_s)  +  Y_v * P_s  +  (X_v - P_n * P_s)

    which matches the paper's closed form up to the sign of the final
    in-partition offset (the published ``+ P_s P_n`` term makes
    partitions overlap and contradicts the stated R = 1 special case,
    so we use the non-overlapping form; R = 1 reduces to
    ``v_c = Y_v * Max_x + X_v`` exactly as in the paper).

    ``R = 1`` sorts on seek only; large ``R`` approaches pure
    priority-deadline order.

    ``Y_v`` is measured against a *fixed sweep origin* (cylinder 0)
    rather than the instantaneously moving head: the paper's "all disk
    requests in q can be served in only one disk scan" requires every
    request in a batch to share the same reference, and the dispatcher's
    queue rounds then each play out as one ascending sweep.  Pass
    ``track_head=True`` to use the head position at insertion instead
    (an ablation: the sweep decoheres as the head moves).
    """

    def __init__(self, r_partitions: int, cylinders: int,
                 x_cells: int = 64, *, directional: bool = True,
                 track_head: bool = False) -> None:
        if r_partitions < 1:
            raise ValueError("R must be >= 1")
        if x_cells < r_partitions:
            raise ValueError("x_cells must be >= R")
        self._r = r_partitions
        self._x_cells = x_cells
        self._cylinder_q = CylinderDistanceQuantizer(
            cylinders, cylinders, directional
        )
        self._y_cells = cylinders
        self._track_head = track_head
        # Partition width; the last partition absorbs the remainder.
        self._p_s = x_cells // r_partitions

    @property
    def r_partitions(self) -> int:
        return self._r

    @property
    def x_cells(self) -> int:
        return self._x_cells

    @property
    def y_cells(self) -> int:
        return self._y_cells

    @property
    def partition_width(self) -> int:
        """The paper's P_s."""
        return self._p_s

    @property
    def track_head(self) -> bool:
        return self._track_head

    @property
    def cylinder_quantizer(self) -> CylinderDistanceQuantizer:
        return self._cylinder_q

    @property
    def output_cells(self) -> int:
        return self._x_cells * self._y_cells

    def encode(self, upstream_scalar: int, upstream_cells: int,
               cylinder: int, head_cylinder: int) -> int:
        x_v = _rescale(upstream_scalar, upstream_cells, self._x_cells)
        reference = head_cylinder if self._track_head else 0
        y_v = self._cylinder_q(cylinder, reference)
        p_n = min(x_v // self._p_s, self._r - 1)
        offset = x_v - p_n * self._p_s
        partition_base = p_n * (self._y_cells * self._p_s)
        return partition_base + y_v * self._p_s + offset


class Encapsulator:
    """Chains the three stages into the full v_c computation.

    Any stage may be ``None`` to skip it (Section 4.1 flexibility); with
    all three disabled, ``v_c`` falls back to arrival order (FCFS).
    """

    def __init__(self,
                 stage1: PrioritySFCStage | None,
                 stage2: WeightedDeadlineStage | SFC2DStage | None,
                 stage3: PartitionedSeekStage | SFC2DStage | None) -> None:
        self._stage1 = stage1
        self._stage2 = stage2
        self._stage3 = stage3

    @property
    def stage1(self) -> PrioritySFCStage | None:
        return self._stage1

    @property
    def stage2(self) -> WeightedDeadlineStage | SFC2DStage | None:
        return self._stage2

    @property
    def stage3(self) -> PartitionedSeekStage | SFC2DStage | None:
        return self._stage3

    @property
    def output_cells(self) -> int:
        """Size of the v_c space (used to express window sizes as %)."""
        for stage in (self._stage3, self._stage2, self._stage1):
            if stage is not None:
                return stage.output_cells
        return 1

    def characterize(self, request: DiskRequest,
                     ctx: EncodeContext) -> float:
        """Compute the characterization value ``v_c`` of ``request``."""
        value: int = 0
        cells: int = 1
        if self._stage1 is not None:
            value = self._stage1.encode(request.priorities)
            cells = self._stage1.output_cells
        if self._stage2 is not None:
            value = self._stage2.encode(
                value, cells, request.deadline_ms, ctx.now_ms
            )
            cells = self._stage2.output_cells
        if self._stage3 is not None:
            if isinstance(self._stage2, WeightedDeadlineStage):
                # X_v must be measured from the current minimum possible
                # priority-deadline value (the paper's definition), since
                # absolute-deadline values grow with time.
                value = self._stage2.relative(value, ctx.now_ms)
            value = self._stage3.encode(
                value, cells, request.cylinder, ctx.head_cylinder
            )
            cells = self._stage3.output_cells
        if (self._stage1 is None and self._stage2 is None
                and self._stage3 is None):
            return request.arrival_ms
        return value

    def characterize_detailed(
            self, request: DiskRequest, ctx: EncodeContext
    ) -> tuple[float, tuple[tuple[str, float], ...]]:
        """Like :meth:`characterize`, also returning per-stage scalars.

        The observability slow path: ``(v_c, ((stage, scalar), ...))``
        with one entry per enabled stage, so a request's span records
        *which* cascade stage produced which intermediate value.  The
        final value is always identical to :meth:`characterize` (the
        differential tests pin this); the hot path never calls this.
        """
        stages: list[tuple[str, float]] = []
        value: float = 0
        cells: int = 1
        if self._stage1 is not None:
            value = self._stage1.encode(request.priorities)
            cells = self._stage1.output_cells
            stages.append(("stage1_priority", float(value)))
        if self._stage2 is not None:
            value = self._stage2.encode(
                value, cells, request.deadline_ms, ctx.now_ms
            )
            cells = self._stage2.output_cells
            stages.append(("stage2_deadline", float(value)))
        if self._stage3 is not None:
            if isinstance(self._stage2, WeightedDeadlineStage):
                value = self._stage2.relative(value, ctx.now_ms)
            value = self._stage3.encode(
                value, cells, request.cylinder, ctx.head_cylinder
            )
            stages.append(("stage3_seek", float(value)))
        if not stages:
            return request.arrival_ms, ()
        return value, tuple(stages)
