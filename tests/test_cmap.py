import random
import re

import pytest

from bandlink import (
    CombinatorialMap,
    build_band,
    derived_genus,
    faces,
    format_cmap,
    load_cmap,
    parse_cmap,
    strands,
    validate,
)
from bandlink.cmap import cycles_of_images
from bandlink.errors import BandlinkError, clip_repr
from helpers import (
    FIXTURES,
    HUGE,
    disjoint_union,
    random_map,
    random_spec,
    reference_strands,
    relabel,
)


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

    def test_two_involutions_alternate(self):
        alpha = (2, 1, 4, 3, 6, 5)
        other = (3, 4, 1, 2, 6, 5)
        orbits = cycles_of_images(alpha, other)
        assert orbits == [(1, 2, 4, 3), (5, 6)]
        assert all(
            (alpha if i % 2 == 0 else other)[orb[i] - 1] == orb[(i + 1) % len(orb)]
            for orb in orbits
            for i in range(len(orb))
        )
        assert cycles_of_images(alpha, alpha) == cycles_of_images(alpha)


class TestConstruction:
    def test_alpha_must_be_involution(self):
        with pytest.raises(BandlinkError, match="alpha must pair dart 1 with a distinct partner"):
            CombinatorialMap(4, (2, 3, 4, 1), (2, 3, 4, 1), 0)

    def test_alpha_must_move_every_dart(self):
        with pytest.raises(BandlinkError, match="alpha must pair dart 1 with a distinct partner"):
            CombinatorialMap(4, (1, 2, 4, 3), (2, 3, 4, 1), 0)

    @pytest.mark.parametrize("image", [HUGE, "x" * 3000], ids=["huge", "long"])
    def test_echoed_image_is_clipped(self, image):
        with pytest.raises(BandlinkError, match=r"alpha image .{80}\.\.\. outside 1\.\.2") as err:
            CombinatorialMap(2, (2, image), (2, 1), 0)
        assert len(str(err.value)) < 200

    def test_clip_repr_cuts_after_80_characters(self):
        # The repr of 78 letters is 80 characters with its quotes.
        assert clip_repr("x" * 78) == "'" + "x" * 78 + "'"
        assert clip_repr("x" * 79) == "'" + "x" * 79 + "..."


class TestTriangle:
    def test_counts(self, triangle):
        validate(triangle)
        assert (triangle.vertex_count, triangle.edge_count, len(faces(triangle))) == (3, 3, 2)
        assert derived_genus(triangle) == 0

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
        assert derived_genus(curl) == 0

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
        with pytest.raises(BandlinkError, match="gives genus 1"):
            validate(flat)
        assert derived_genus(flat) == 1
        huge = CombinatorialMap(torus.dart_count, torus.alpha, torus.sigma, HUGE)
        with pytest.raises(BandlinkError, match=r"declared genus 9{80}\.\.\. but"):
            validate(huge)

    def test_single_face(self, torus):
        assert len(faces(torus)) == 1


class TestDisconnected:
    @pytest.mark.parametrize("genus", [0, 1, 7])
    def test_disconnected_map_refused(self, triangle, torus, genus):
        # Refused whatever genus it declares, before the genus is checked.
        for two in (disjoint_union(triangle, triangle, genus),
                    disjoint_union(triangle, torus, genus)):
            with pytest.raises(BandlinkError, match="^the map has 2 components; it must be connected$"):
                validate(two)

    def test_derived_genus_refuses_several_components(self, triangle, torus):
        # Euler's formula alone would give genus -1 and 0 for these.
        for two in (disjoint_union(triangle, triangle),
                    disjoint_union(triangle, torus)):
            with pytest.raises(BandlinkError, match="^the map has 2 components; it must be connected$"):
                derived_genus(two)
        three = disjoint_union(disjoint_union(triangle, torus), triangle)
        with pytest.raises(BandlinkError, match="^the map has 3 components; it must be connected$"):
            derived_genus(three)

    def test_empty_map_validates(self):
        empty = CombinatorialMap(0, (), (), 0)
        validate(empty)
        assert derived_genus(empty) == 0


class TestTextFormat:
    def test_round_trip(self, triangle, tmp_path):
        path = tmp_path / "t.cmap"
        path.write_text(format_cmap(triangle))
        again = parse_cmap(path.read_text())
        assert again == triangle

    @pytest.mark.parametrize("name", [p.name for p in sorted(FIXTURES.glob("*.cmap"))])
    def test_reparsed_maps_compare_and_hash_by_value(self, name):
        m = load_cmap(FIXTURES / name)
        again = parse_cmap(format_cmap(m))
        assert again is not m
        assert again == m and hash(again) == hash(m)
        assert m != CombinatorialMap(m.dart_count, m.alpha, m.sigma, m.declared_genus + 1)

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
            pytest.param(
                "cmap v1\ndarts 2\nalpha 2 3\nsigma 2 1\n",
                "alpha image 3 outside 1..2",
                id="image-out-of-range",
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
                "dart count must be even and >= 0, got " + "9" * 80 + "...",
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
            pytest.param("# only a comment\n\n", "line 1: missing 'cmap v1' header",
                         id="comments-only"),
            # int() reads these too; a .cmap integer is ASCII digits and a sign.
            pytest.param(
                "cmap v1\ndarts \uff16\nalpha 5 4 6 2 1 3\nsigma 4 6 5 1 3 2\n",
                "line 2: darts value '\uff16' is not an integer",
                id="fullwidth-darts",
            ),
            pytest.param(
                "cmap v1\ngenus \uff10\ndarts 6\nalpha 5 4 6 2 1 3\nsigma 4 6 5 1 3 2\n",
                "line 2: genus value '\uff10' is not an integer",
                id="fullwidth-genus",
            ),
            pytest.param(
                "cmap v1\ndarts 6\nalpha 5 4 6 2 1 3\nsigma 4 6 5 1 3 0_2\n",
                "line 4: sigma value '0_2' is not an integer",
                id="underscore-image",
            ),
        ],
    )
    def test_parse_errors(self, text, fragment):
        with pytest.raises(BandlinkError, match=re.escape(fragment)):
            parse_cmap(text)

    # Semantic errors: parse_cmap leaves them to the constructor, so the text
    # and the constructor give the same message.
    @pytest.mark.parametrize(
        "darts,alpha,sigma,genus,message",
        [
            (3, (2, 1, 3), (1, 2, 3), 0, "dart count must be even and >= 0, got 3"),
            (-2, (), (), 0, "dart count must be even and >= 0, got -2"),
            (2, (2, 1, 1), (2, 1), 0, "alpha lists 3 images for 2 darts"),
            (2, (2, 1), (1,), 0, "sigma lists 1 images for 2 darts"),
            (2, (2, 3), (2, 1), 0, "alpha image 3 outside 1..2"),
            (2, (2, 1), (0, 1), 0, "sigma image 0 outside 1..2"),
            (2, (2, 1), (1, 1), 0, "sigma maps two darts to 1"),
            (2, (1, 2), (2, 1), 0, "alpha must pair dart 1 with a distinct partner"),
            (4, (2, 3, 4, 1), (1, 2, 3, 4), 0, "alpha must pair dart 1 with a distinct partner"),
            (2, (2, 1), (2, 1), -1, "declared genus -1 is negative"),
        ],
        ids=[
            "odd-darts", "negative-darts", "alpha-count", "sigma-count", "alpha-range",
            "sigma-zero", "sigma-repeat", "alpha-fixed-point", "alpha-not-involution",
            "negative-genus",
        ],
    )
    def test_semantic_errors_match_constructor(self, darts, alpha, sigma, genus, message):
        text = (
            f"cmap v1\ngenus {genus}\ndarts {darts}\n"
            f"alpha {' '.join(map(str, alpha))}\nsigma {' '.join(map(str, sigma))}\n"
        )
        with pytest.raises(BandlinkError) as parsed:
            parse_cmap(text)
        with pytest.raises(BandlinkError) as built:
            CombinatorialMap(darts, alpha, sigma, genus)
        assert str(parsed.value) == str(built.value) == message


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
                == 2 - 2 * derived_genus(m)
            )

    def test_euler_characteristic_is_even_per_component(self):
        rng = random.Random(11)
        for _ in range(200):
            m = random_map(rng)
            validate(m)
            chi = m.vertex_count - m.edge_count + len(faces(m))
            assert chi % 2 == 0
            assert chi == 2 - 2 * derived_genus(m)

    def test_face_count_matches_reverse_convention(self):
        rng = random.Random(9)
        for _ in range(25):
            m = random_map(rng)
            reverse = cycles_of_images(
                tuple(m.alpha[m.sigma[d - 1] - 1] for d in range(1, m.dart_count + 1))
            )
            assert len(reverse) == len(faces(m))

    def test_strands_partition_darts(self):
        # Every 2/4-valent map, twisted or not: a strand never repeats a
        # dart, and the strands cover each dart once.
        rng = random.Random(12)
        for _ in range(300):
            valences = [rng.choice((2, 4)) for _ in range(rng.randint(1, 8))]
            darts = sum(valences)
            sigma, first = [], 1
            for k in valences:
                sigma += list(range(first + 1, first + k)) + [first]
                first += k
            pool = list(range(1, darts + 1))
            rng.shuffle(pool)
            alpha = [0] * darts
            for a, b in zip(pool[0::2], pool[1::2]):
                alpha[a - 1], alpha[b - 1] = b, a
            m = relabel(rng, CombinatorialMap(darts, alpha, sigma, 0))
            assert strands(m) == reference_strands(m)
            walks = [s.darts for s in strands(m)]
            assert all(len(set(w)) == len(w) for w in walks)
            assert sorted(d for w in walks for d in w) == list(range(1, darts + 1))

    def test_strands_match_the_reference_walk(self):
        # Built bands of genus 0 and 1, their bases and relabelled copies,
        # the fixtures and maps of any valence: the same strands, or an
        # error from both, which names the lowest vertex of another valence.
        rng = random.Random(13)
        maps = [load_cmap(path) for path in sorted(FIXTURES.glob("*.cmap"))]
        for genus in (0, 1):
            for _ in range(30):
                spec = random_spec(rng, want_genus=genus)
                diagram = build_band(spec).diagram
                maps += [spec.base, diagram, relabel(rng, diagram)]
        maps += [random_map(rng) for _ in range(150)]
        raised = 0
        for m in maps:
            try:
                want = reference_strands(m)
            except BandlinkError:
                raised += 1
                vid, k = next(
                    (vid, len(cyc))
                    for vid, cyc in enumerate(m.vertex_cycles, start=1)
                    if len(cyc) not in (2, 4)
                )
                message = f"vertex {vid} has valence {k}; strands need 2 or 4"
                with pytest.raises(BandlinkError, match=re.escape(message)):
                    strands(m)
            else:
                assert strands(m) == want
        assert 0 < raised < len(maps)

    def test_face_boundaries_partition_darts(self):
        rng = random.Random(10)
        for _ in range(25):
            m = random_map(rng)
            seen = [d for f in faces(m) for d in f.boundary]
            assert sorted(seen) == list(range(1, m.dart_count + 1))
