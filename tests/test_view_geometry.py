"""Heading, wrapping, and field-of-view geometry."""
from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from navscribe.view_geometry import (FovConfig, elevation_to,
                                     heading_to, horizontal_distance, in_fov,
                                     projected_area, relative_bearing, wrap_angle)

ORIGIN = (0.0, 0.0, 0.0)


class TestHeading:
    def test_north_is_zero(self):
        assert heading_to(ORIGIN, (0.0, 2.0, 0.0)) == 0.0

    def test_east_is_quarter_turn(self):
        assert heading_to(ORIGIN, (3.0, 0.0, 0.0)) == pytest.approx(math.pi / 2)

    def test_northeast(self):
        assert heading_to(ORIGIN, (1.0, 1.0, 5.0)) == pytest.approx(math.pi / 4)

    def test_west_maps_into_positive_range(self):
        assert heading_to(ORIGIN, (-1.0, 0.0, 0.0)) == pytest.approx(3 * math.pi / 2)

    def test_degenerate_vertical_pair(self):
        above = (0.0, 0.0, 4.0)
        assert heading_to(ORIGIN, above) == 0.0

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_range_half_open(self, dx, dy):
        h = heading_to(ORIGIN, (dx, dy, 0.0))
        assert 0.0 <= h < 2 * math.pi


class TestWrap:
    def test_examples(self):
        assert wrap_angle(5 * math.pi / 4) == pytest.approx(-3 * math.pi / 4)
        assert wrap_angle(-5 * math.pi / 4) == pytest.approx(3 * math.pi / 4)
        assert wrap_angle(2 * math.pi) == pytest.approx(0.0)

    def test_pi_stays_pi(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    @given(st.floats(-1000.0, 1000.0))
    def test_range(self, x):
        w = wrap_angle(x)
        assert -math.pi < w <= math.pi

    @given(st.floats(-100.0, 100.0))
    def test_wrap_preserves_angle_mod_two_pi(self, x):
        w = wrap_angle(x)
        assert math.cos(w) == pytest.approx(math.cos(x), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(x), abs=1e-9)


def test_relative_bearing_signed():
    quarter = math.pi / 2
    assert relative_bearing(0.0, quarter) == pytest.approx(quarter)
    assert relative_bearing(quarter, 0.0) == pytest.approx(-quarter)
    assert relative_bearing(0.1, 2 * math.pi - 0.1) == pytest.approx(-0.2)


def test_elevation():
    assert elevation_to(ORIGIN, (1.0, 0.0, 1.0)) == pytest.approx(math.pi / 4)
    assert elevation_to(ORIGIN, (0.0, 2.0, -2.0)) == pytest.approx(-math.pi / 4)


def test_horizontal_distance_ignores_z():
    assert horizontal_distance((0, 0, 0), (3.0, 4.0, 9.0)) == pytest.approx(5.0)


def test_projected_area_uses_two_largest_radii():
    assert projected_area((0.5, 0.4, 0.3)) == pytest.approx(0.8)
    assert projected_area((0.1, 0.6, 0.2)) == pytest.approx(0.48)


def test_fov_bounds_are_inclusive():
    fov = FovConfig()
    third = math.pi / 3
    sixth = math.pi / 6
    assert in_fov(third, 0.0, fov)
    assert in_fov(-third, 0.0, fov)
    assert not in_fov(third + 1e-9, 0.0, fov)
    assert in_fov(0.0, sixth, fov)
    assert in_fov(0.0, -sixth, fov)
    assert not in_fov(0.0, sixth + 1e-9, fov)


def test_fov_config_validation():
    with pytest.raises(ValueError):
        FovConfig(half_width=0.0)
    with pytest.raises(ValueError):
        FovConfig(elevation_lo=0.5, elevation_hi=0.5)
