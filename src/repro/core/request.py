"""The multimedia disk request model.

A request is a point in the (D+2)-dimensional QoS space of the paper:
``D`` priority-like parameters, one real-time deadline, and the disk
cylinder holding the data.

Priority convention (used consistently across the library): **lower
numeric level = higher priority**, so level 0 is the most important.
This lines up priorities with characterization values, where a lower
``v_c`` is served first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence


@dataclass(frozen=True)
class DiskRequest:
    """One disk I/O request with QoS annotations.

    Parameters
    ----------
    request_id:
        Unique id; schedulers use it as the queue key.
    arrival_ms:
        Absolute arrival time, milliseconds.
    cylinder:
        Target cylinder of the transfer.
    nbytes:
        Transfer size in bytes.
    deadline_ms:
        Absolute real-time deadline (``math.inf`` when relaxed).
    priorities:
        Tuple of priority levels, one per priority-like QoS dimension;
        level 0 is the highest priority.
    value:
        Optional request value (used by value-based baselines like
        BUCKET and SSEDV; by convention larger is more valuable).
    stream_id:
        Owning media stream / user, ``-1`` for standalone requests.
    is_write:
        Write (True) or read (False); non-linear editing issues both.
    """

    request_id: int
    arrival_ms: float
    cylinder: int
    nbytes: int
    deadline_ms: float = math.inf
    priorities: tuple[int, ...] = ()
    value: float = 0.0
    stream_id: int = -1
    is_write: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival_ms):
            # Arrival instants order every queue and event loop; a NaN
            # compares false both ways, so engines would disagree.
            raise ValueError(
                f"arrival_ms must be finite, got {self.arrival_ms!r}")
        if self.cylinder < 0:
            raise ValueError("cylinder must be non-negative")
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.priorities and min(self.priorities) < 0:
            raise ValueError("priority levels must be non-negative")

    @property
    def has_deadline(self) -> bool:
        return math.isfinite(self.deadline_ms)

    @property
    def relative_deadline_ms(self) -> float:
        """Deadline measured from arrival."""
        return self.deadline_ms - self.arrival_ms

    def slack_ms(self, now: float) -> float:
        """Time remaining until the deadline."""
        return self.deadline_ms - now

    def dominates(self, other: "DiskRequest") -> bool:
        """True when this request is at least as important as ``other``
        in every priority dimension and strictly more important in one.

        Used by property tests: a schedule that serves a dominated
        request first over its dominator incurs inversions in every
        curve the paper studies.
        """
        if len(self.priorities) != len(other.priorities):
            raise ValueError("priority dimensionality mismatch")
        at_least = all(a <= b for a, b in zip(self.priorities, other.priorities))
        strictly = any(a < b for a, b in zip(self.priorities, other.priorities))
        return at_least and strictly

    def with_priorities(self, priorities: Sequence[int]) -> "DiskRequest":
        """Copy with replaced priority vector."""
        return replace(self, priorities=tuple(priorities))


class RequestFactory:
    """Hands out uniquely numbered requests; workloads share one."""

    def __init__(self, start_id: int = 0) -> None:
        self._next_id = start_id

    def __call__(self, arrival_ms: float, cylinder: int, nbytes: int,
                 **kwargs: object) -> DiskRequest:
        request = DiskRequest(
            request_id=self._next_id,
            arrival_ms=arrival_ms,
            cylinder=cylinder,
            nbytes=nbytes,
            **kwargs,  # type: ignore[arg-type]
        )
        self._next_id += 1
        return request

    @property
    def issued(self) -> int:
        """Number of requests created so far."""
        return self._next_id


@dataclass
class Batch:
    """A list of requests sorted by arrival, with convenience accessors."""

    requests: list[DiskRequest] = field(default_factory=list)

    def add(self, request: DiskRequest) -> None:
        self.requests.append(request)

    def sorted_by_arrival(self) -> list[DiskRequest]:
        return sorted(self.requests, key=lambda r: (r.arrival_ms, r.request_id))

    def __iter__(self) -> Iterator[DiskRequest]:
        return iter(self.requests)

    def __len__(self) -> int:
        return len(self.requests)
