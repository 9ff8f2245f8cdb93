import os
import random

import pytest

from bandlink import CombinatorialMap, build_band, close, derived_genus, faces, render, render_svg
from bandlink.errors import BandlinkError
from bandlink.render import _component_layout
from helpers import circle_map, random_map, random_spec, reference_layout


def _two_triangles(triangle) -> CombinatorialMap:
    return CombinatorialMap(
        12,
        tuple(list(triangle.alpha) + [d + 6 for d in triangle.alpha]),
        tuple(list(triangle.sigma) + [d + 6 for d in triangle.sigma]),
        0,
    )


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

    def test_declared_genus_must_hold(self, triangle):
        wrong = type(triangle)(
            triangle.dart_count, triangle.alpha, triangle.sigma, 1
        )
        with pytest.raises(BandlinkError, match="map declares genus 1 but embeds on the sphere"):
            render_svg(wrong)


class TestDecoration:
    def test_coloring_tints_vertices(self, triangle):
        coloring, _ = close(triangle, faces(triangle), [1, 3])
        svg = render_svg(triangle, coloring=coloring)
        assert svg.count("#f4a261") == 2

    def test_band_marks_crossing_kinds(self, chain3_band):
        svg = render_svg(chain3_band.diagram, band=chain3_band)
        assert svg.count("#c0392b") == 6
        assert "<title>" in svg

    def test_disconnected_maps_are_tiled(self, triangle):
        svg = render_svg(_two_triangles(triangle))
        assert svg.count("<circle") == 6


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


def _layout_maps(triangle, curl, loop1, chain2_base) -> list[CombinatorialMap]:
    rng = random.Random(55)
    maps = [triangle, curl, loop1, chain2_base, _two_triangles(triangle), _pendant_and_loop()]
    maps += [circle_map(n) for n in range(1, 10)]
    maps += [
        build_band(random_spec(rng, cap=rng.randint(18, 26))).diagram
        for _ in range(30)
    ]
    maps += [random_map(rng) for _ in range(50)]
    return maps


def _assert_layouts_match(maps) -> None:
    for m in maps:
        for comp in m.components:
            got = _component_layout(m, comp, m.faces)
            assert got == reference_layout(m, comp, m.faces)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestLayout:
    def test_matches_the_dict_relaxation(self, triangle, curl, loop1, chain2_base):
        _assert_layouts_match(_layout_maps(triangle, curl, loop1, chain2_base))

        # The hand-built map relaxes a degree-1 vertex and a looped vertex.
        hub = _pendant_and_loop()
        pos = _component_layout(hub, hub.components[0], hub.faces)
        rim = max(hub.faces, key=lambda f: (len(f.boundary), -f.id)).vertex_list
        inner = set(pos) - set(rim)
        valence = {v: len(hub.vertex_cycles[v - 1]) for v in inner}
        assert sorted(valence.values()) == [1, 6]
        assert hub.vertex_count == 10 and len(rim) == 8
        assert derived_genus(hub) == 0


class TestForkedLayout:
    """With the gate at 0 every component relaxes its y in a forked child."""

    @pytest.fixture
    def forks(self, monkeypatch):
        calls = []
        real_fork = os.fork

        def fork():
            calls.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(render, "FORK_MIN_ROWS", 0)
        monkeypatch.setattr(os, "fork", fork)
        return calls

    def test_matches_the_dict_relaxation(self, forks, triangle, curl, loop1, chain2_base):
        maps = _layout_maps(triangle, curl, loop1, chain2_base)
        _assert_layouts_match(maps)
        assert len(forks) == sum(len(m.components) for m in maps)
        _assert_no_child_left()

    @pytest.mark.parametrize("failure", ["fork-raises", "child-exits-1", "child-sends-nothing"])
    def test_a_failed_child_gives_the_same_layout(self, monkeypatch, failure):
        real_fork = os.fork

        def fork():
            if failure == "fork-raises":
                raise OSError("fork refused")
            pid = real_fork()
            if pid == 0:
                os._exit(1 if failure == "child-exits-1" else 0)
            return pid

        monkeypatch.setattr(render, "FORK_MIN_ROWS", 0)
        monkeypatch.setattr(os, "fork", fork)
        rng = random.Random(8)
        maps = [_pendant_and_loop()]
        maps += [build_band(random_spec(rng, cap=26)).diagram for _ in range(3)]
        _assert_layouts_match(maps)
        _assert_no_child_left()

    def test_the_child_is_reaped_when_the_parent_raises(self, forks, monkeypatch):
        real_relax, parent = render._relax, os.getpid()

        def relax(cs, rows):
            if os.getpid() == parent:
                raise RuntimeError("interrupted")
            return real_relax(cs, rows)

        monkeypatch.setattr(render, "_relax", relax)
        hub = _pendant_and_loop()
        with pytest.raises(RuntimeError, match="interrupted"):
            _component_layout(hub, hub.components[0], hub.faces)
        assert len(forks) == 1
        _assert_no_child_left()
