"""SVG rendering: element inventory, radius gating, byte determinism."""
from __future__ import annotations

import math

import pytest

from navscribe.render_svg import RenderSpec, render_viewpoint

from conftest import build_graph, build_scene


@pytest.fixture()
def bundle():
    positions = {"c": (0.0, 0.0, 0.0), "n": (2.0, 0.0, 0.0), "f": (0.0, 9.0, 0.0)}
    graph = build_graph(positions, [("c", "n"), ("c", "f")])
    scene = build_scene(
        objects=[
            ("sofa", (0.0, 2.0, 0.5), (1.0, 0.5, 0.5)),
            ("lamp", (3.0, 3.0, 0.5), (0.2, 0.2, 0.5)),  # dist > 4, culled
        ],
        panoramas=[("c", 0, positions["c"]), ("n", 0, positions["n"]),
                   ("f", 0, positions["f"])],
    )
    return scene, graph


def _count(svg: str, css_class: str) -> int:
    return svg.count(f'class="{css_class}"')


class TestRender:
    def test_element_inventory(self, bundle):
        scene, graph = bundle
        svg = render_viewpoint(scene, graph, RenderSpec("c"))
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>\n")
        assert _count(svg, "object-box") == 1
        assert _count(svg, "object-label") == 1
        assert _count(svg, "edge-arrow") == 2
        assert _count(svg, "viewpoint") == 1
        assert "sofa" in svg and "lamp" not in svg

    def test_radius_widening_admits_far_object(self, bundle):
        scene, graph = bundle
        svg = render_viewpoint(scene, graph, RenderSpec("c", radius=6.0))
        assert _count(svg, "object-box") == 2
        assert "lamp" in svg

    def test_edge_labels_carry_lengths(self, bundle):
        scene, graph = bundle
        svg = render_viewpoint(scene, graph, RenderSpec("c"))
        assert "2.00 m" in svg
        assert "9.00 m" in svg

    def test_arrow_beyond_float_range_names_the_radius(self, bundle):
        # The scale is finite, but the arrow to "f", 9 m away, overflows it.
        scene, graph = bundle
        with pytest.raises(ValueError, match=r"^radius 3e-306 puts canvas coordinates"):
            render_viewpoint(scene, graph, RenderSpec("c", radius=3e-306))

    def test_arrow_label_beyond_float_range_names_the_radius(self, bundle):
        # Both arrow ends are finite (5e307 and 1.3e308), their sum is not.
        scene, _ = bundle
        graph = build_graph({"c": (0.0, 0.0, 0.0), "n": (2.0, 0.0, 0.0)}, [("c", "n")])
        spec = RenderSpec("c", radius=1.25, width=10**308, height=10**308)
        with pytest.raises(ValueError, match=r"^radius 1.25 puts canvas coordinates"):
            render_viewpoint(scene, graph, spec)

    def test_byte_determinism(self, bundle):
        scene, graph = bundle
        spec = RenderSpec("c", radius=5.0, width=640, height=480)
        a = render_viewpoint(scene, graph, spec)
        b = render_viewpoint(scene, graph, spec)
        assert a == b

    def test_coordinates_use_two_decimals(self, bundle):
        scene, graph = bundle
        svg = render_viewpoint(scene, graph, RenderSpec("c"))
        for line in svg.splitlines():
            if 'class="viewpoint"' in line:
                assert 'cx="400.00"' in line
                assert 'cy="400.00"' in line

    def test_label_escaping(self):
        graph = build_graph({"c": (0.0, 0.0, 0.0)}, [])
        scene = build_scene(
            objects=[("cabinet & <shelf>", (0.0, 1.0, 0.5), (0.5, 0.5, 0.5))],
            panoramas=[("c", 0, (0.0, 0.0, 0.0))],
        )
        svg = render_viewpoint(scene, graph, RenderSpec("c"))
        assert "cabinet &amp; &lt;shelf&gt;" in svg
        assert "<shelf>" not in svg

    def test_viewpoint_label_escaping(self):
        graph = build_graph({"a&<b>": (0.0, 0.0, 0.0)}, [])
        scene = build_scene(objects=[], panoramas=[("a&<b>", 0, (0.0, 0.0, 0.0))])
        svg = render_viewpoint(scene, graph, RenderSpec("a&<b>"))
        assert 'fill="#cc3333">a&amp;&lt;b&gt;</text>' in svg
        assert "<b>" not in svg

    def test_unknown_viewpoint(self, bundle):
        scene, graph = bundle
        with pytest.raises(ValueError, match="unknown viewpoint"):
            render_viewpoint(scene, graph, RenderSpec("ghost"))


class TestRenderSpec:
    def test_defaults(self):
        spec = RenderSpec("v")
        assert (spec.radius, spec.width, spec.height) == (4.0, 800, 800)

    def test_bad_radius(self):
        with pytest.raises(ValueError, match="radius"):
            RenderSpec("v", radius=0.0)

    @pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            RenderSpec("v", radius=radius)

    def test_radius_with_infinite_scale_rejected(self):
        # 800 / (2 * 1e-320) overflows, which would put the centre at nan.
        with pytest.raises(ValueError, match="give a finite scale, got 1e-320"):
            RenderSpec("v", radius=1e-320)

    def test_bad_canvas(self):
        with pytest.raises(ValueError, match="1x1"):
            RenderSpec("v", width=0)

    @pytest.mark.parametrize("side", ["width", "height"])
    def test_canvas_beyond_float_range_rejected(self, side):
        # float(10**400) overflows, so no scale can be computed from it.
        with pytest.raises(ValueError, match=f"^{side} must be at most"):
            RenderSpec("v", **{side: 10**400})
