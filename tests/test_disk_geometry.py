"""Tests for the zoned disk geometry."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.disk import make_xp32150_geometry
from repro.disk.geometry import DiskGeometry, Zone, make_zones


class TestZone:
    def test_cylinder_count(self):
        assert Zone(0, 9, 100).cylinders == 10

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Zone(5, 4, 100)

    def test_rejects_nonpositive_spt(self):
        with pytest.raises(ValueError):
            Zone(0, 9, 0)


class TestMakeZones:
    def test_tiles_whole_range(self):
        zones = make_zones(100, 4, outer_spt=120, inner_spt=80)
        assert zones[0].first_cylinder == 0
        assert zones[-1].last_cylinder == 99
        for a, b in zip(zones, zones[1:]):
            assert b.first_cylinder == a.last_cylinder + 1

    def test_spt_decreases_outward_in(self):
        zones = make_zones(160, 16, outer_spt=132, inner_spt=82)
        spts = [z.sectors_per_track for z in zones]
        assert spts[0] == 132
        assert spts[-1] == 82
        assert spts == sorted(spts, reverse=True)

    def test_uneven_division(self):
        zones = make_zones(10, 3, outer_spt=100, inner_spt=90)
        assert sum(z.cylinders for z in zones) == 10

    def test_single_zone(self):
        zones = make_zones(10, 1, outer_spt=100, inner_spt=50)
        assert len(zones) == 1
        assert zones[0].sectors_per_track == 100

    def test_errors(self):
        with pytest.raises(ValueError):
            make_zones(10, 0, 100, 90)
        with pytest.raises(ValueError):
            make_zones(3, 4, 100, 90)


class TestDiskGeometry:
    def make(self):
        return DiskGeometry(
            cylinders=100,
            tracks_per_cylinder=2,
            sector_size=512,
            zones=make_zones(100, 4, outer_spt=100, inner_spt=70),
        )

    def test_zone_of_boundaries(self):
        geometry = self.make()
        for zone in geometry.zones:
            assert geometry.zone_of(zone.first_cylinder) is zone
            assert geometry.zone_of(zone.last_cylinder) is zone

    def test_zone_of_out_of_range(self):
        geometry = self.make()
        with pytest.raises(ValueError):
            geometry.zone_of(100)
        with pytest.raises(ValueError):
            geometry.zone_of(-1)

    def test_capacity_matches_sum(self):
        geometry = self.make()
        by_cylinder = sum(
            geometry.cylinder_capacity_bytes(c) for c in range(100)
        )
        assert geometry.capacity_bytes == by_cylinder

    def test_rejects_gap_in_zones(self):
        with pytest.raises(ValueError):
            DiskGeometry(
                cylinders=100, tracks_per_cylinder=1, sector_size=512,
                zones=(Zone(0, 49, 100), Zone(51, 99, 90)),
            )

    def test_rejects_short_zone_cover(self):
        with pytest.raises(ValueError):
            DiskGeometry(
                cylinders=100, tracks_per_cylinder=1, sector_size=512,
                zones=(Zone(0, 49, 100),),
            )

    def test_block_cylinder_monotone(self):
        geometry = self.make()
        block_size = 4096
        max_block = geometry.capacity_bytes // block_size
        previous = -1
        for block in range(0, max_block, max(max_block // 57, 1)):
            cylinder = geometry.block_cylinder(block, block_size)
            assert cylinder >= previous
            previous = cylinder

    def test_block_zero_on_first_cylinder(self):
        geometry = self.make()
        assert geometry.block_cylinder(0, 4096) == 0

    def test_block_beyond_capacity(self):
        geometry = self.make()
        beyond = geometry.capacity_bytes // 4096 + 1
        with pytest.raises(ValueError):
            geometry.block_cylinder(beyond, 4096)

    def test_block_negative(self):
        with pytest.raises(ValueError):
            self.make().block_cylinder(-1, 4096)

    def test_outer_cylinders_hold_more_blocks(self):
        geometry = self.make()
        outer = geometry.cylinder_capacity_bytes(0)
        inner = geometry.cylinder_capacity_bytes(99)
        assert outer > inner


class TestXP32150Geometry:
    def test_table1_numbers(self, geometry):
        assert geometry.cylinders == 3832
        assert geometry.tracks_per_cylinder == 10
        assert len(geometry.zones) == 16
        assert geometry.sector_size == 512

    def test_capacity_near_2_1_gb(self, geometry):
        assert geometry.capacity_bytes == pytest.approx(2.1e9, rel=0.01)


def _zone_walk_cylinder(geometry: DiskGeometry, block: int,
                        block_size: int) -> int:
    """Reference block-to-cylinder map: the per-zone walk, zone by zone."""
    offset = block * block_size
    for zone in geometry.zones:
        per_cyl = (zone.sectors_per_track * geometry.tracks_per_cylinder
                   * geometry.sector_size)
        if offset < zone.cylinders * per_cyl:
            return zone.first_cylinder + offset // per_cyl
        offset -= zone.cylinders * per_cyl
    raise ValueError(f"block {block} (size {block_size}) beyond disk capacity")


@settings(max_examples=300, deadline=None)
@given(block_size=st.integers(1, 1 << 20), data=st.data())
def test_block_cylinder_scalar_equals_vectorized(block_size, data):
    """The scalar bisection, the vectorized searchsorted and the zone
    walk agree on every block, out-of-capacity errors included."""
    geometry = make_xp32150_geometry()
    blocks_on_disk = geometry.capacity_bytes // block_size
    block = data.draw(st.one_of(
        st.integers(0, blocks_on_disk + 2),
        st.sampled_from((0, blocks_on_disk - 1, blocks_on_disk)),
    ))
    try:
        expected = _zone_walk_cylinder(geometry, block, block_size)
    except ValueError as exc:
        message = re.escape(str(exc))
        with pytest.raises(ValueError, match=message):
            geometry.block_cylinder(block, block_size)
        with pytest.raises(ValueError, match=message):
            geometry.block_cylinders(np.array([block]), block_size)
        return
    scalar = geometry.block_cylinder(block, block_size)
    assert type(scalar) is int
    assert scalar == expected
    assert geometry.block_cylinders(
        np.array([block]), block_size).tolist() == [expected]
