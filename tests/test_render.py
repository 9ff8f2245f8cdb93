import random

import pytest

from bandlink import CombinatorialMap, build_band, close, derived_genus, faces, render_svg
from bandlink.errors import BandlinkError
from bandlink.render import _layout
from helpers import circle_map, disjoint_union, random_map, random_spec, reference_layout


class TestBasics:
    def test_triangle_svg_structure(self, triangle):
        svg = render_svg(triangle)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 3
        assert svg.count('<text') == 3

    def test_deterministic_output(self, triangle):
        assert render_svg(triangle) == render_svg(triangle)

    def test_loops_render_as_curves(self, curl):
        svg = render_svg(curl)
        assert "C " in svg or "C-" in svg

    def test_multi_edges_do_not_overlap(self, chain2_base):
        svg = render_svg(chain2_base)
        assert svg.count("Q ") + svg.count("Q-") == 2


class TestGenusGate:
    def test_torus_is_rejected(self, torus):
        with pytest.raises(BandlinkError, match="has genus 1; only genus 0 renders"):
            render_svg(torus)

    def test_disconnected_map_is_rejected(self, triangle):
        # Two spheres side by side have V-E+F = 4, which Euler's formula
        # alone would read as genus -1: the component count is named instead.
        two = disjoint_union(triangle, triangle)
        with pytest.raises(BandlinkError, match="^the map has 2 components; it must be connected$"):
            render_svg(two)


class TestDecoration:
    def test_coloring_tints_vertices(self, triangle):
        coloring, _ = close(triangle, faces(triangle), [1, 3])
        svg = render_svg(triangle, coloring=coloring)
        assert svg.count("#f4a261") == 2

    def test_band_marks_crossing_kinds(self, chain3_band):
        svg = render_svg(chain3_band.diagram, band=chain3_band)
        assert svg.count("#c0392b") == 6
        assert "<title>" in svg


class TestScaling:
    def test_larger_maps_still_render(self):
        m = circle_map(9)
        svg = render_svg(m)
        assert svg.count("<circle") == 9


def _pendant_and_loop() -> CombinatorialMap:
    """Octagon with a hub X inside, joined to rim vertices 1, 4 and 6.

    X carries a loop and a pendant vertex P, so both X (its own neighbour)
    and P (degree 1) are relaxed while the octagon stays the largest face.
    Edge e has darts 2e-1 and 2e; rotations are counterclockwise.
    """
    rotations = [
        (1, 18, 16), (3, 2), (5, 4), (7, 20, 6),  # R1..R4
        (9, 8), (11, 22, 10), (13, 12), (15, 14),  # R5..R8
        (17, 19, 23, 21, 25, 26),  # X: R1, R4, P, R6, loop
        (24,),  # P
    ]
    sigma = [0] * 26
    for cycle in rotations:
        for i, d in enumerate(cycle):
            sigma[d - 1] = cycle[(i + 1) % len(cycle)]
    alpha = [d + 1 if d % 2 else d - 1 for d in range(1, 27)]
    return CombinatorialMap(26, tuple(alpha), tuple(sigma), 0)


def _wheel(n: int) -> CombinatorialMap:
    """An n-gon with one hub inside joined to every rim vertex.

    The hub is the only relaxed vertex, and its degree n above four makes
    its sum run over carry rows.  Rim edge i has darts 2i-1 (at R_i) and 2i
    (at R_i+1), spoke i darts 2(n+i)-1 (at the hub) and 2(n+i) (at R_i).
    """
    rotations = [(2 * i - 1, 2 * (n + i), 2 * (i - 1 or n)) for i in range(1, n + 1)]
    rotations.append(tuple(2 * (n + i) - 1 for i in range(1, n + 1)))
    sigma = [0] * (4 * n)
    for cycle in rotations:
        for i, d in enumerate(cycle):
            sigma[d - 1] = cycle[(i + 1) % len(cycle)]
    alpha = [d + 1 if d % 2 else d - 1 for d in range(1, 4 * n + 1)]
    return CombinatorialMap(4 * n, tuple(alpha), tuple(sigma), 0)


WHEEL_HUBS = (5, 9, 17)


def _layout_maps(triangle, curl, loop1, chain2_base) -> list[CombinatorialMap]:
    rng = random.Random(55)
    maps = [triangle, curl, loop1, chain2_base, _pendant_and_loop()]
    maps += [_wheel(n) for n in WHEEL_HUBS]
    maps += [circle_map(n) for n in range(1, 10)]
    maps += [
        build_band(random_spec(rng, cap=rng.randint(18, 26))).diagram
        for _ in range(30)
    ]
    maps += [random_map(rng) for _ in range(50)]
    return maps


def _assert_layouts_match(maps) -> None:
    for m in maps:
        assert _layout(m) == reference_layout(m, range(1, m.dart_count + 1), m.faces)


class TestLayout:
    def test_matches_the_dict_relaxation(self, triangle, curl, loop1, chain2_base):
        _assert_layouts_match(_layout_maps(triangle, curl, loop1, chain2_base))

        # The hand-built map relaxes a degree-1 vertex and a looped vertex.
        hub = _pendant_and_loop()
        pos = _layout(hub)
        rim = max(hub.faces, key=lambda f: (len(f.boundary), -f.id)).vertex_list
        inner = set(pos) - set(rim)
        valence = {v: len(hub.vertex_cycles[v - 1]) for v in inner}
        assert sorted(valence.values()) == [1, 6]
        assert hub.vertex_count == 10 and len(rim) == 8
        assert derived_genus(hub) == 0

        # Each wheel relaxes one hub whose sum runs over carry rows.
        for n in WHEEL_HUBS:
            wheel = _wheel(n)
            pos = _layout(wheel)
            rim = max(wheel.faces, key=lambda f: (len(f.boundary), -f.id)).vertex_list
            [hub] = set(pos) - set(rim)
            assert len(wheel.vertex_cycles[hub - 1]) == n and len(rim) == n
            assert derived_genus(wheel) == 0
