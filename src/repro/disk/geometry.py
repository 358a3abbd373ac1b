"""Disk geometry: cylinders, zones, and block-to-cylinder mapping.

Models a zoned (ZBR) disk like the Quantum XP32150 of the paper's
Table 1: outer zones pack more sectors per track, so both capacity and
transfer rate vary with the cylinder.  The geometry maps logical file
blocks (64 KB in the paper) to cylinders, which is how workload
generators translate stream offsets into the cylinder coordinate that
schedulers care about.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np


@dataclass(frozen=True)
class Zone:
    """A contiguous run of cylinders sharing a sectors-per-track count."""

    first_cylinder: int
    last_cylinder: int  # inclusive
    sectors_per_track: int

    def __post_init__(self) -> None:
        if self.first_cylinder < 0 or self.last_cylinder < self.first_cylinder:
            raise ValueError(
                f"invalid zone bounds [{self.first_cylinder}, {self.last_cylinder}]"
            )
        if self.sectors_per_track < 1:
            raise ValueError("sectors_per_track must be positive")

    @property
    def cylinders(self) -> int:
        return self.last_cylinder - self.first_cylinder + 1


def make_zones(cylinders: int, zone_count: int,
               outer_spt: int, inner_spt: int) -> tuple[Zone, ...]:
    """Split ``cylinders`` into ``zone_count`` zones.

    Sectors per track decrease linearly from ``outer_spt`` (zone 0, the
    outer edge) to ``inner_spt`` (last zone), the usual ZBR layout.
    """
    if zone_count < 1:
        raise ValueError("zone_count must be >= 1")
    if cylinders < zone_count:
        raise ValueError("need at least one cylinder per zone")
    zones = []
    base, extra = divmod(cylinders, zone_count)
    start = 0
    for z in range(zone_count):
        width = base + (1 if z < extra else 0)
        if zone_count == 1:
            spt = outer_spt
        else:
            frac = z / (zone_count - 1)
            spt = round(outer_spt + (inner_spt - outer_spt) * frac)
        zones.append(Zone(start, start + width - 1, spt))
        start += width
    return tuple(zones)


@dataclass(frozen=True)
class DiskGeometry:
    """Physical layout of one disk."""

    cylinders: int
    tracks_per_cylinder: int
    sector_size: int
    zones: tuple[Zone, ...]
    #: Cylinder index of each zone boundary, precomputed for bisection.
    _zone_starts: tuple[int, ...] = field(init=False, repr=False)
    #: Total formatted capacity in bytes, summed once here: stream
    #: sessions read it on every open.  Derived from the zones, so it
    #: takes no part in eq/hash.
    capacity_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cylinders < 1:
            raise ValueError("cylinders must be positive")
        if self.tracks_per_cylinder < 1:
            raise ValueError("tracks_per_cylinder must be positive")
        if self.sector_size < 1:
            raise ValueError("sector_size must be positive")
        expected = 0
        for zone in self.zones:
            if zone.first_cylinder != expected:
                raise ValueError("zones must tile the cylinder range")
            expected = zone.last_cylinder + 1
        if expected != self.cylinders:
            raise ValueError(
                f"zones cover {expected} cylinders, disk has {self.cylinders}"
            )
        object.__setattr__(
            self, "_zone_starts", tuple(z.first_cylinder for z in self.zones)
        )
        object.__setattr__(self, "capacity_bytes", sum(
            zone.cylinders * zone.sectors_per_track
            * self.tracks_per_cylinder * self.sector_size
            for zone in self.zones
        ))
        # The zone table of the block-to-cylinder map, as Python ints:
        # cumulative byte ends (exclusive), byte starts and per-cylinder
        # capacity of each zone (first cylinders are _zone_starts).
        # Plain attributes (not dataclass fields) so eq/hash semantics
        # are untouched.
        per_cyl = tuple(
            z.sectors_per_track * self.tracks_per_cylinder * self.sector_size
            for z in self.zones)
        zone_bytes = [c * z.cylinders for c, z in zip(per_cyl, self.zones)]
        ends = tuple(accumulate(zone_bytes))
        object.__setattr__(self, "_zone_byte_ends", ends)
        object.__setattr__(self, "_zone_byte_starts", tuple(
            end - size for end, size in zip(ends, zone_bytes)))
        object.__setattr__(self, "_zone_per_cyl", per_cyl)

    def zone_of(self, cylinder: int) -> Zone:
        """The zone containing ``cylinder``."""
        self._check_cylinder(cylinder)
        lo, hi = 0, len(self.zones) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._zone_starts[mid] <= cylinder:
                lo = mid
            else:
                hi = mid - 1
        return self.zones[lo]

    def sectors_per_track(self, cylinder: int) -> int:
        return self.zone_of(cylinder).sectors_per_track

    def cylinder_capacity_bytes(self, cylinder: int) -> int:
        """Bytes stored on one cylinder."""
        spt = self.sectors_per_track(cylinder)
        return spt * self.tracks_per_cylinder * self.sector_size

    def block_cylinder(self, block: int, block_size: int) -> int:
        """Cylinder holding logical ``block`` of ``block_size`` bytes.

        Blocks are laid out sequentially from the outer edge; the mapping
        accounts for the varying per-cylinder capacity across zones.
        """
        if block < 0:
            raise ValueError("block must be non-negative")
        offset = block * block_size
        ends: tuple[int, ...] = self._zone_byte_ends  # type: ignore[attr-defined]
        zone = bisect_right(ends, offset)
        if zone == len(ends):
            raise ValueError(
                f"block {block} (size {block_size}) beyond disk capacity"
            )
        starts: tuple[int, ...] = self._zone_byte_starts  # type: ignore[attr-defined]
        per_cyl: tuple[int, ...] = self._zone_per_cyl  # type: ignore[attr-defined]
        return (self._zone_starts[zone]
                + (offset - starts[zone]) // per_cyl[zone])

    def block_cylinders(self, blocks: np.ndarray, block_size: int) -> np.ndarray:
        """Vectorized :meth:`block_cylinder` over an int64 block array.

        Same table and integer arithmetic as the scalar bisection, one
        ``searchsorted`` for the whole array.
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        if blocks.size and int(blocks.min()) < 0:
            raise ValueError("block must be non-negative")
        offsets = blocks * block_size
        ends = np.array(self._zone_byte_ends,  # type: ignore[attr-defined]
                        dtype=np.int64)
        zone = np.searchsorted(ends, offsets, side="right")
        if blocks.size and int(zone.max()) >= len(ends):
            bad = int(blocks[zone >= len(ends)][0])
            raise ValueError(
                f"block {bad} (size {block_size}) beyond disk capacity"
            )
        starts = np.array(self._zone_byte_starts,  # type: ignore[attr-defined]
                          dtype=np.int64)
        per_cyl = np.array(self._zone_per_cyl,  # type: ignore[attr-defined]
                           dtype=np.int64)
        first = np.array(self._zone_starts, dtype=np.int64)
        return first[zone] + (offsets - starts[zone]) // per_cyl[zone]

    def _check_cylinder(self, cylinder: int) -> None:
        if not 0 <= cylinder < self.cylinders:
            raise ValueError(
                f"cylinder {cylinder} outside [0, {self.cylinders})"
            )
