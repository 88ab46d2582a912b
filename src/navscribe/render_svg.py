"""Top-down SVG rendering of a viewpoint's surroundings.

Orthographic projection: +Y in world space points up on the canvas, the
viewpoint sits at the center, and one world meter maps to a fixed pixel
scale derived from the view radius. Output is plain SVG 1.1 text with all
coordinates formatted to two decimals, so renders are byte-stable.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .nav_graph import NavGraph
from .scene_metadata import SceneModel, category_name
from .view_geometry import Vec3


@dataclass(frozen=True, slots=True)
class RenderSpec:
    viewpoint: str
    radius: float = 4.0
    width: int = 800
    height: int = 800

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("canvas must be at least 1x1")
        for name, size in (("width", self.width), ("height", self.height)):
            if size > sys.float_info.max:  # float(size), and so the scale, would overflow
                raise ValueError(f"{name} must be at most {sys.float_info.max:g} pixels")
        # NaN would make every coordinate nan, infinity the scale 0, and a
        # subnormal radius the scale infinite, which maps the centre to nan.
        if not (self.radius > 0.0 and 0.0 < self.scale < math.inf):
            raise ValueError("radius must be finite and positive and give a finite scale, "
                             f"got {self.radius}")

    @property
    def scale(self) -> float:
        """Canvas pixels per world meter."""
        return min(self.width, self.height) / (2.0 * self.radius)


def _escape(text: str) -> str:
    """XML character data: ``&`` first, then ``>`` and ``<``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(value: float) -> str:
    return format(value, ".2f")


def render_viewpoint(scene: SceneModel, graph: NavGraph, spec: RenderSpec) -> str:
    """Render objects within the radius and arrows to every neighbor."""
    center = graph.position(spec.viewpoint)
    scale = spec.scale

    def finite(x: float, y: float) -> tuple[float, float]:
        # Arrows reach every neighbour whatever the radius, so a tiny radius
        # can scale a finite offset past the float range.
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"radius {spec.radius} puts canvas coordinates out of float range")
        return x, y

    def to_canvas(p: Vec3) -> tuple[float, float]:
        return finite(spec.width / 2.0 + (p[0] - center[0]) * scale,
                      spec.height / 2.0 - (p[1] - center[1]) * scale)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">'
    )
    parts.append(
        '  <defs><marker id="arrow" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="#225577"/></marker></defs>'
    )
    parts.append(f'  <rect width="{spec.width}" height="{spec.height}" fill="#ffffff"/>')

    # Objects first (sorted by index), then neighbor arrows (sorted by id),
    # so equal inputs always produce identical documents.
    for obj in scene.objects:
        if math.dist(center, obj.center) > spec.radius:
            continue
        corners = []
        for sa, sb in ((1, 1), (1, -1), (-1, -1), (-1, 1)):
            corner = (
                obj.center[0] + sa * obj.radii[0] * obj.axis0[0] + sb * obj.radii[1] * obj.axis1[0],
                obj.center[1] + sa * obj.radii[0] * obj.axis0[1] + sb * obj.radii[1] * obj.axis1[1],
                0.0,
            )
            corners.append(to_canvas(corner))
        points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners)
        label = _escape(category_name(scene, obj.index))
        lx, ly = to_canvas(obj.center)
        parts.append(
            f'  <polygon class="object-box" points="{points}" '
            f'fill="none" stroke="#888888" stroke-width="1.5"/>'
        )
        parts.append(
            f'  <text class="object-label" x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="12" '
            f'text-anchor="middle" fill="#333333">{label}</text>'
        )

    cx, cy = to_canvas(center)
    for nbr, length in graph.adjacency(spec.viewpoint):
        nx, ny = to_canvas(graph.position(nbr))
        parts.append(
            f'  <line class="edge-arrow" x1="{_fmt(cx)}" y1="{_fmt(cy)}" '
            f'x2="{_fmt(nx)}" y2="{_fmt(ny)}" stroke="#225577" stroke-width="2" '
            f'marker-end="url(#arrow)"/>'
        )
        mx, my = finite((cx + nx) / 2.0, (cy + ny) / 2.0)
        parts.append(
            f'  <text class="edge-label" x="{_fmt(mx)}" y="{_fmt(my)}" font-size="11" '
            f'text-anchor="middle" fill="#225577">{_fmt(length)} m</text>'
        )

    parts.append(
        f'  <circle class="viewpoint" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="6" fill="#cc3333"/>'
    )
    parts.append(
        f'  <text class="viewpoint-label" x="{_fmt(cx)}" y="{_fmt(cy - 10.0)}" font-size="12" '
        f'text-anchor="middle" fill="#cc3333">{_escape(spec.viewpoint)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
