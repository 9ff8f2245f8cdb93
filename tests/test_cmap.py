import random

import pytest

from bandlink import (
    CombinatorialMap,
    derived_genus,
    faces,
    format_cmap,
    parse_cmap,
    strands,
    validate,
)
from bandlink.cmap import cycles_of_images
from bandlink.errors import CmapFormatError, GenusMismatch, MalformedPermutation
from helpers import HUGE, random_map, relabel


class TestPermutationHelpers:
    def test_cycles_round_trip(self):
        images = (2, 3, 1, 5, 4, 6)
        cycles = cycles_of_images(images)
        assert cycles == [(1, 2, 3), (4, 5), (6,)]
        assert all(
            images[cyc[i] - 1] == cyc[(i + 1) % len(cyc)]
            for cyc in cycles
            for i in range(len(cyc))
        )

    def test_images_reject_out_of_range(self):
        with pytest.raises(MalformedPermutation):
            cycles_of_images((2, 5))

    def test_images_reject_duplicates(self):
        with pytest.raises(MalformedPermutation):
            cycles_of_images((2, 2, 1))


class TestConstruction:
    def test_alpha_must_be_involution(self):
        with pytest.raises(MalformedPermutation):
            CombinatorialMap(4, (2, 3, 4, 1), (2, 3, 4, 1), 0)

    def test_alpha_must_move_every_dart(self):
        with pytest.raises(MalformedPermutation):
            CombinatorialMap(4, (1, 2, 4, 3), (2, 3, 4, 1), 0)

    @pytest.mark.parametrize("image", [HUGE, "x" * 3000], ids=["huge", "long"])
    def test_echoed_image_is_clipped(self, image):
        with pytest.raises(MalformedPermutation) as err:
            CombinatorialMap(2, (2, image), (2, 1), 0)
        assert len(str(err.value)) < 200


class TestTriangle:
    def test_counts(self, triangle):
        validate(triangle)
        assert (triangle.vertex_count, triangle.edge_count, len(faces(triangle))) == (3, 3, 2)
        assert triangle.component_genera == (0,)

    def test_faces(self, triangle):
        fs = faces(triangle)
        assert [f.boundary for f in fs] == [(1, 3, 2), (4, 6, 5)]
        assert [f.vertex_list for f in fs] == [(1, 3, 2), (1, 2, 3)]
        assert all(f.distinct_vertices == (1, 2, 3) for f in fs)

    def test_single_strand(self, triangle):
        ss = strands(triangle)
        assert len(ss) == 1
        assert ss[0].darts == (1, 5, 3, 6, 2, 4)

    def test_faces_and_strands_are_cached(self, triangle):
        assert faces(triangle) is faces(triangle)
        assert strands(triangle) is strands(triangle)


class TestCurl:
    def test_counts(self, curl):
        validate(curl)
        assert (curl.vertex_count, curl.edge_count, len(faces(curl))) == (1, 2, 3)
        assert curl.component_genera == (0,)

    def test_faces(self, curl):
        assert [f.boundary for f in faces(curl)] == [(1, 3), (2,), (4,)]

    def test_strand_goes_straight(self, curl):
        (s,) = strands(curl)
        assert s.darts == (1, 2, 4, 3)


class TestTorus:
    def test_genus_one(self, torus):
        assert derived_genus(torus) == 1
        validate(torus)

    def test_declared_genus_enforced(self, torus):
        flat = CombinatorialMap(torus.dart_count, torus.alpha, torus.sigma, 0)
        with pytest.raises(GenusMismatch, match="gives genus 1"):
            validate(flat)
        assert flat.component_genera == (1,)
        huge = CombinatorialMap(torus.dart_count, torus.alpha, torus.sigma, HUGE)
        with pytest.raises(GenusMismatch, match=r"declared genus 9{80}\.\.\. but"):
            validate(huge)

    def test_single_face(self, torus):
        assert len(faces(torus)) == 1


def _disjoint_union(a, b):
    shift = a.dart_count
    alpha = list(a.alpha) + [d + shift for d in b.alpha]
    sigma = list(a.sigma) + [d + shift for d in b.sigma]
    return CombinatorialMap(
        a.dart_count + b.dart_count, tuple(alpha), tuple(sigma), 0
    )


class TestDisconnected:
    def test_two_spheres_accepted(self, triangle):
        two = _disjoint_union(triangle, triangle)
        validate(two)
        assert len(two.components) == 2
        assert two.component_genera == (0, 0)
        empty = CombinatorialMap(0, (), (), 0)
        validate(empty)
        assert (empty.components, derived_genus(empty)) == ((), 0)

    def test_component_genera_checked(self, triangle, torus):
        mixed = _disjoint_union(triangle, torus)
        assert derived_genus(mixed) == 1
        with pytest.raises(GenusMismatch):
            validate(mixed)
        validate(mixed, component_genera=[0, 1])
        with pytest.raises(GenusMismatch):
            validate(mixed, component_genera=[1, 0])
        with pytest.raises(GenusMismatch, match="2 components but 1 genera"):
            validate(mixed, component_genera=[0])


class TestTextFormat:
    def test_round_trip(self, triangle, tmp_path):
        path = tmp_path / "t.cmap"
        path.write_text(format_cmap(triangle))
        again = parse_cmap(path.read_text())
        assert again == triangle

    def test_format_layout(self, curl):
        assert format_cmap(curl) == (
            "cmap v1\ngenus 0\ndarts 4\nalpha 2 1 4 3\nsigma 2 3 4 1\n"
        )

    def test_comments_and_blank_lines(self):
        text = "# note\n\ncmap v1\ngenus 0 # inline\ndarts 2\nalpha 2 1\nsigma 2 1\n"
        m = parse_cmap(text)
        assert m.dart_count == 2

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("darts 2\n", "expected 'cmap v1'"),
            ("cmap v1\ndarts 2\nalpha 2 1\n", "missing directive 'sigma'"),
            (
                "cmap v1\ndarts 2\ndarts 2\nalpha 2 1\nsigma 2 1\n",
                "line 3: duplicate directive 'darts'",
            ),
            (
                "cmap v1\ndarts 2\nalpha 2 3\nsigma 2 1\n",
                "line 3: alpha image 3 outside 1..2",
            ),
            (
                "cmap v1\ndarts 3\nalpha 2 1 3\nsigma 1 2 3\n",
                "must be even",
            ),
            (
                "cmap v1\ndarts 2\nalpha 2 1\nsigma 2 1\nrotate 1\n",
                "line 5: unknown directive 'rotate'",
            ),
            (
                "cmap v1\ndarts 2\nalpha 2 x\nsigma 2 1\n",
                "alpha value 'x' is not an integer",
            ),
            # Echoed input is clipped to 80 characters of its repr.
            pytest.param(
                "x" * 5000 + "\n", "got '" + "x" * 79 + "...", id="long-header"
            ),
            pytest.param(
                "cmap v1\n" + "x" * 5000 + " 1\n",
                "directive '" + "x" * 79 + "...",
                id="long-directive",
            ),
            pytest.param(
                "cmap v1\ndarts 2\nalpha 2 " + "x" * 5000 + "\nsigma 2 1\n",
                "alpha value '" + "x" * 79 + "... is not an integer",
                id="long-value",
            ),
            pytest.param(
                "cmap v1\ndarts " + "9" * 4000 + "\nalpha\nsigma\n",
                "dart count " + "9" * 80 + "... must be even",
                id="huge-darts",
            ),
            pytest.param(
                "cmap v1\ngenus -" + "9" * 4000 + "\ndarts 2\nalpha 2 1\nsigma 2 1\n",
                "genus -" + "9" * 79 + "... is negative",
                id="huge-genus",
            ),
            pytest.param(
                "cmap v1\ndarts 2\nalpha 2 " + "9" * 4000 + "\nsigma 2 1\n",
                "alpha image " + "9" * 80 + "... outside 1..2",
                id="huge-image",
            ),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(CmapFormatError) as err:
            parse_cmap(text)
        assert fragment in str(err.value)


class TestRandomizedInvariants:
    def test_relabeling_preserves_structure(self):
        rng = random.Random(7)
        for _ in range(25):
            m = random_map(rng)
            other = relabel(rng, m)
            assert other.vertex_count == m.vertex_count
            assert other.edge_count == m.edge_count
            fs, gs = faces(m), faces(other)
            assert sorted(len(f.boundary) for f in fs) == sorted(
                len(f.boundary) for f in gs
            )
            assert derived_genus(other) == derived_genus(m)

    def test_euler_identity(self):
        rng = random.Random(8)
        for _ in range(50):
            m = random_map(rng)
            validate(m)
            assert (
                m.vertex_count - m.edge_count + len(faces(m))
                == 2 - 2 * sum(m.component_genera)
            )

    def test_euler_characteristic_is_even_per_component(self):
        rng = random.Random(11)
        maps = [random_map(rng) for _ in range(200)]
        maps += [_disjoint_union(a, b) for a, b in zip(maps[0::2], maps[1::2])]
        for m in maps:
            for comp, genus in zip(m.components, m.component_genera):
                darts = set(comp)
                v = sum(1 for cyc in m.vertex_cycles if cyc[0] in darts)
                f = sum(1 for face in faces(m) if face.boundary[0] in darts)
                chi = v - len(comp) // 2 + f
                assert chi % 2 == 0
                assert chi == 2 - 2 * genus

    def test_face_count_matches_reverse_convention(self):
        rng = random.Random(9)
        for _ in range(25):
            m = random_map(rng)
            reverse = cycles_of_images(
                tuple(m.alpha[m.sigma[d - 1] - 1] for d in range(1, m.dart_count + 1))
            )
            assert len(reverse) == len(faces(m))

    def test_face_boundaries_partition_darts(self):
        rng = random.Random(10)
        for _ in range(25):
            m = random_map(rng)
            seen = [d for f in faces(m) for d in f.boundary]
            assert sorted(seen) == list(range(1, m.dart_count + 1))
