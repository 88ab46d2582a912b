"""Angles and footprints as seen from a viewpoint.

Conventions, used consistently across the package:

* heading: radians clockwise from the +Y axis, in [0, 2*pi)
* elevation: radians above the horizontal plane
* bearing: signed offset in (-pi, pi]; positive means to the viewer's right
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

Vec3 = tuple[float, float, float]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, slots=True)
class FovConfig:
    """Closed angular window around a facing direction."""

    half_width: float = math.pi / 3
    elevation_lo: float = -math.pi / 6
    elevation_hi: float = math.pi / 6

    def __post_init__(self) -> None:
        if not 0.0 < self.half_width <= math.pi:
            raise ValueError(f"half_width must be in (0, pi], got {self.half_width}")
        if not self.elevation_lo < self.elevation_hi:
            raise ValueError("elevation_lo must be below elevation_hi")


@dataclass(frozen=True, slots=True)
class ObservedObject:
    """One object as observed from a specific position."""

    object_index: int
    category: str
    heading: float
    elevation: float
    distance: float
    area: float
    unique: bool


def horizontal_distance(a: Vec3, b: Vec3) -> float:
    return math.hypot(b[0] - a[0], b[1] - a[1])


def heading_to(a: Vec3, b: Vec3) -> float:
    """Heading from a toward b; 0.0 for the degenerate vertical case."""
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    if dx == 0.0 and dy == 0.0:
        return 0.0
    h = math.atan2(dx, dy)
    if h < 0.0:
        h += TWO_PI
    # A tiny negative atan2 result rounds to exactly 2*pi after the shift.
    return 0.0 if h >= TWO_PI else h


def elevation_to(a: Vec3, b: Vec3) -> float:
    """Elevation angle from a toward b; +-pi/2 for straight up/down."""
    return math.atan2(b[2] - a[2], horizontal_distance(a, b))


def wrap_angle(x: float) -> float:
    """Wrap to (-pi, pi]; exact -pi maps to +pi."""
    if not math.isfinite(x):
        raise ValueError(f"cannot wrap non-finite angle: {x}")
    # round() is round-half-to-even, which keeps the wrap symmetric.
    w = x - TWO_PI * round(x / TWO_PI)
    if w <= -math.pi:
        w += TWO_PI
    elif w > math.pi:
        w -= TWO_PI
    return w


def relative_bearing(viewer_heading: float, target_heading: float) -> float:
    """Signed offset from viewer to target; positive is to the right."""
    return wrap_angle(target_heading - viewer_heading)


def projected_area(radii: Sequence[float]) -> float:
    """Face area spanned by the two largest half-extents of a box."""
    if len(radii) != 3:
        raise ValueError(f"expected 3 radii, got {len(radii)}")
    x, y, z = radii
    if x < 0.0 or y < 0.0 or z < 0.0:
        raise ValueError(f"radii must be non-negative, got {tuple(radii)}")
    a, b = sorted(radii)[1:]
    return 4.0 * a * b


def in_fov(bearing: float, elevation: float, fov: FovConfig) -> bool:
    """Closed-bound test of a bearing/elevation pair against a window."""
    return (
        abs(bearing) <= fov.half_width
        and fov.elevation_lo <= elevation <= fov.elevation_hi
    )
