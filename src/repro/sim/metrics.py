"""Metrics: exactly the quantities the paper's evaluation reports.

* **Priority inversion** (Section 5.1): when request ``T_i`` is
  dispatched, add -- for every priority dimension ``k`` -- the number
  of waiting requests with strictly higher priority (lower level) in
  ``k``.  The experiments report it as a percentage of FIFO's count.
* **Deadline misses** (Sections 5.2, 6): a request whose service
  completes after its deadline (or that is dropped) is lost; misses are
  tallied per priority level per dimension for the selectivity study.
* **Disk utilization** (Section 5.3): cumulative seek / latency /
  transfer time.
* **Weighted loss cost** (Section 6): ``f = sum_i w_i * m_i / r_i``
  over priority levels, with weights decreasing linearly so the top
  level costs 11x the bottom one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.request import DiskRequest
from repro.util.stats import RunningStats


def linear_weights(levels: int, top_to_bottom_ratio: float = 11.0
                   ) -> tuple[float, ...]:
    """Per-level cost weights decreasing linearly with priority level.

    Level 0 (highest priority) weighs ``top_to_bottom_ratio`` times the
    last level, matching the paper's Section 6 cost function.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if levels == 1:
        return (top_to_bottom_ratio,)
    step = (top_to_bottom_ratio - 1.0) / (levels - 1)
    return tuple(top_to_bottom_ratio - step * i for i in range(levels))


@dataclass
class MetricsCollector:
    """Accumulates every evaluation metric during one simulation run."""

    priority_dims: int
    priority_levels: int

    inversions_by_dim: list[int] = field(init=False)
    requests_by_dim_level: list[list[int]] = field(init=False)
    misses_by_dim_level: list[list[int]] = field(init=False)

    served: int = 0
    dropped: int = 0
    missed: int = 0
    seek_ms: float = 0.0
    latency_ms: float = 0.0
    transfer_ms: float = 0.0
    makespan_ms: float = 0.0

    response_ms: RunningStats = field(default_factory=RunningStats)
    queue_length: RunningStats = field(default_factory=RunningStats)

    #: Per-stream (user) accounting: stream_id -> [requests, misses].
    stream_counts: dict = field(init=False)

    def __post_init__(self) -> None:
        dims, levels = self.priority_dims, self.priority_levels
        if levels < 1:
            raise ValueError(f"priority_levels must be >= 1, got {levels}")
        if dims < 0:
            raise ValueError(f"priority_dims must be >= 0, got {dims}")
        self.inversions_by_dim = [0] * dims
        self.requests_by_dim_level = [[0] * levels for _ in range(dims)]
        self.misses_by_dim_level = [[0] * levels for _ in range(dims)]
        self.stream_counts = {}

    # -- event hooks -----------------------------------------------------

    def on_dispatch(self, request: DiskRequest,
                    waiting: Iterable[DiskRequest]) -> None:
        """Count priority inversions of serving ``request`` now."""
        for other in waiting:
            for k in range(self.priority_dims):
                if other.priorities[k] < request.priorities[k]:
                    self.inversions_by_dim[k] += 1

    def add_inversions(self, counts: Sequence[int]) -> None:
        """Credit pre-counted inversions, one count per dimension.

        Used by the batched engine, whose inversion ledger counts the
        same strictly-higher-priority waiting requests as
        :meth:`on_dispatch` without iterating the queue (see
        :class:`repro.sim.soa.InversionLedger`).
        """
        by_dim = self.inversions_by_dim
        for k, count in enumerate(counts):
            by_dim[k] += count

    def note_queue_length(self, length: int) -> None:
        self.queue_length.add(length)

    def on_complete(self, request: DiskRequest, completion_ms: float,
                    *, dropped: bool = False) -> None:
        """Record the outcome of ``request`` finishing (or being dropped)."""
        self.served += 0 if dropped else 1
        self.dropped += 1 if dropped else 0
        self.makespan_ms = max(self.makespan_ms, completion_ms)
        if not dropped:
            self.response_ms.add(completion_ms - request.arrival_ms)
        missed = dropped or completion_ms > request.deadline_ms
        if missed:
            self.missed += 1
        for k in range(self.priority_dims):
            level = min(request.priorities[k], self.priority_levels - 1)
            self.requests_by_dim_level[k][level] += 1
            if missed:
                self.misses_by_dim_level[k][level] += 1
        if request.stream_id >= 0:
            counts = self.stream_counts.setdefault(request.stream_id,
                                                   [0, 0])
            counts[0] += 1
            if missed:
                counts[1] += 1

    def on_service(self, seek_ms: float, latency_ms: float,
                   transfer_ms: float) -> None:
        self.seek_ms += seek_ms
        self.latency_ms += latency_ms
        self.transfer_ms += transfer_ms

    # -- derived quantities ------------------------------------------------

    @property
    def total_inversions(self) -> int:
        return sum(self.inversions_by_dim)

    @property
    def completed(self) -> int:
        """Requests that left the system (served or dropped)."""
        return self.served + self.dropped

    @property
    def miss_ratio(self) -> float:
        total = self.completed
        return self.missed / total if total else 0.0

    @property
    def busy_ms(self) -> float:
        return self.seek_ms + self.latency_ms + self.transfer_ms

    @property
    def utilization(self) -> float:
        """Fraction of busy time spent transferring data."""
        busy = self.busy_ms
        return self.transfer_ms / busy if busy else 0.0

    def misses_by_level(self, dim: int) -> list[int]:
        """Deadline misses per priority level in dimension ``dim``."""
        return list(self.misses_by_dim_level[dim])

    def miss_ratio_by_level(self, dim: int) -> list[float]:
        out = []
        for level in range(self.priority_levels):
            requests = self.requests_by_dim_level[dim][level]
            misses = self.misses_by_dim_level[dim][level]
            out.append(misses / requests if requests else 0.0)
        return out

    def weighted_loss(self, weights: Sequence[float] | None = None,
                      dim: int = 0) -> float:
        """Section 6 cost: weighted sum of per-level miss ratios."""
        if weights is None:
            weights = linear_weights(self.priority_levels)
        if len(weights) != self.priority_levels:
            raise ValueError("one weight per priority level required")
        ratios = self.miss_ratio_by_level(dim)
        return sum(w * r for w, r in zip(weights, ratios))

    def inversion_stddev(self) -> float:
        """Fairness measure: std-dev of inversions across dimensions."""
        dims = self.priority_dims
        if dims == 0:
            return 0.0
        mu = self.total_inversions / dims
        var = sum((c - mu) ** 2 for c in self.inversions_by_dim) / dims
        return var ** 0.5

    def favored_dimension(self) -> int:
        """The dimension with the fewest inversions."""
        if not self.inversions_by_dim:
            raise ValueError("no priority dimensions")
        return min(range(self.priority_dims),
                   key=lambda k: self.inversions_by_dim[k])

    # -- observability ----------------------------------------------------

    def publish_into(self, registry, prefix: str = "sim") -> None:
        """Mirror the collected tallies into a metrics registry.

        Registered as a pull callback so export-time snapshots always
        reflect the latest counts; ``registry`` is a
        :class:`repro.obs.Registry`.  Counter names carry ``prefix`` so
        per-disk collectors in an array can coexist.
        """

        def pull() -> None:
            registry.counter(
                f"{prefix}_served_total",
                "requests served to completion").set_total(self.served)
            registry.counter(
                f"{prefix}_dropped_total",
                "requests dropped unserved").set_total(self.dropped)
            registry.counter(
                f"{prefix}_missed_total",
                "requests that missed their deadline").set_total(self.missed)
            registry.counter(
                f"{prefix}_inversions_total",
                "priority inversions at dispatch").set_total(
                    self.total_inversions)
            registry.gauge(
                f"{prefix}_seek_ms", "cumulative seek time").set(self.seek_ms)
            registry.gauge(
                f"{prefix}_latency_ms",
                "cumulative rotational latency").set(self.latency_ms)
            registry.gauge(
                f"{prefix}_transfer_ms",
                "cumulative transfer time").set(self.transfer_ms)
            registry.gauge(
                f"{prefix}_makespan_ms",
                "last completion instant").set(self.makespan_ms)

        registry.on_collect(pull)

    # -- per-stream (per-user) accounting ---------------------------------

    def stream_miss_ratios(self) -> dict[int, float]:
        """Glitch rate per stream: missed / issued, by stream id."""
        return {
            stream: misses / total if total else 0.0
            for stream, (total, misses) in self.stream_counts.items()
        }

    def glitching_streams(self, threshold: float = 0.0) -> list[int]:
        """Streams whose miss ratio exceeds ``threshold``.

        A video operator cares less about the aggregate miss count
        than about *how many users* see glitches; threshold 0 lists
        every affected stream.
        """
        return sorted(
            stream for stream, ratio in self.stream_miss_ratios().items()
            if ratio > threshold
        )

    def worst_stream(self) -> tuple[int, float] | None:
        """The stream with the highest miss ratio (None if no streams)."""
        ratios = self.stream_miss_ratios()
        if not ratios:
            return None
        stream = max(ratios, key=lambda s: ratios[s])
        return stream, ratios[stream]
