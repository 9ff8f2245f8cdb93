import json
import random
import re

import pytest

from bandlink import (
    BandSpec,
    CombinatorialMap,
    band_diagram_from_provenance,
    build_band,
    derived_genus,
    faces,
    format_cmap,
    load_band_spec,
    provenance_to_json,
    strands,
    validate,
)
from bandlink.band import MAX_CROSSINGS
from bandlink.cmap import cycles_of_images
from bandlink.errors import BandlinkError
from helpers import (
    FIXTURES,
    HUGE,
    LOOP1_SIDECAR,
    OVERLONG,
    TORUS_SIDECAR,
    band_spec_of,
    bench_gen,
    chain_spec,
    circle_map,
    disjoint_union,
    random_spec,
    reference_build,
)


def circle_pairs_by_owner(bd):
    """The one circle pair each clasp, hash or twist segment joins."""
    groups = {}
    for cr, pair in zip(bd.crossing_kind, bd.circles_of_vertex):
        groups.setdefault((cr.kind, cr.owner), set()).add(pair)
    assert all(len(pairs) == 1 for pairs in groups.values()), groups
    return {key: pairs.pop() for key, pairs in groups.items()}


class TestCheckSpec:
    """``BandSpec(...)`` checks its spec and base when it is made."""

    def test_rejects_other_valences(self):
        path = CombinatorialMap(4, (2, 1, 4, 3), (1, 3, 4, 2), 0)
        with pytest.raises(BandlinkError, match="vertex 1 has valence 1; band bases need 2 or 4"):
            BandSpec(path, (0, 0), ((0,), (0,)))

    def test_rejects_bare_crossing_edge(self, curl):
        with pytest.raises(BandlinkError, match="edge 1 joins two 4-valent vertices"):
            BandSpec(curl, (0, 0), ((0,), (0,)))
        with pytest.raises(BandlinkError, match="edge 2 joins two 4-valent vertices"):
            BandSpec(curl, (1, 0), ((0, 0), (0,)))

    def test_two_valent_edges_may_skip_subdivision(self, triangle):
        BandSpec(triangle, (0, 0, 0), ((0,), (0,), (0,)))

    def test_rule_reads_both_ends_on_mixed_valences(self):
        # Vertex 1 (darts 1 2 3 5) is 4-valent and vertex 2 (darts 4 6)
        # 2-valent: edge 1 is a loop at vertex 1, edges 2 and 3 join the two.
        # Reading the vertex of the dart one lower, at either end of an
        # edge, flips the rule on some edge, and one of the specs shows it.
        base = CombinatorialMap(6, (2, 1, 4, 3, 6, 5), (2, 3, 5, 6, 1, 4), 0)
        assert [len(cyc) for cyc in base.vertex_cycles] == [4, 2]
        bd = build_band(BandSpec(base, (1, 0, 0), ((0, 0), (0,), (0,))))
        assert bd.n == 2
        with pytest.raises(BandlinkError, match="^edge 1 joins two 4-valent vertices"):
            BandSpec(base, (0, 0, 0), ((0,), (0,), (0,)))

    def test_lengths_must_match(self, triangle):
        with pytest.raises(BandlinkError, match="2 subdivision counts for 3 edges"):
            BandSpec(triangle, (0, 0), ((0,), (0,), (0,)))
        with pytest.raises(BandlinkError, match="2 twist lists for 3 edges"):
            BandSpec(triangle, (0, 0, 0), ((0,), (0,)))
        with pytest.raises(BandlinkError, match="edge 1: 2 twist counts for 1 segments"):
            BandSpec(triangle, (0, 0, 0), ((0, 0), (0,), (0,)))

    def test_counts_must_be_non_negative(self, triangle):
        with pytest.raises(BandlinkError, match="edge 1: negative subdivision count -1"):
            BandSpec(triangle, (-1, 0, 0), ((0,), (0,), (0,)))
        with pytest.raises(BandlinkError, match="edge 1: negative twist count -1"):
            BandSpec(triangle, (0, 0, 0), ((-1,), (0,), (0,)))

    def test_crossings_are_capped(self, triangle, curl):
        # Checked on the counts alone; no spec is built here.  The triangle's
        # clasps are 6 crossings; the curl's hash is 4, plus 2 per subdivision.
        # The cap is 10^5, so one twist more than the triangle's 99,994 is over.
        assert MAX_CROSSINGS == 10**5
        BandSpec(triangle, (0, 0, 0), ((MAX_CROSSINGS - 6,), (0,), (0,)))
        with pytest.raises(
            BandlinkError, match="^the spec asks for 100001 crossings; at most 100000 are built$"
        ):
            BandSpec(triangle, (0, 0, 0), ((MAX_CROSSINGS - 5,), (0,), (0,)))
        k = MAX_CROSSINGS // 2
        with pytest.raises(BandlinkError, match=f"asks for {2 * k + 6} crossings"):
            BandSpec(curl, (k, 1), ((0,) * (k + 1), (0, 0)))


class TestGenusRule:
    """A base is connected and keeps its declared genus; a disconnected base
    is refused whatever genus it declares."""

    def test_disjoint_spheres_refused_by_spec(self, triangle):
        two = disjoint_union(triangle, triangle)
        with pytest.raises(BandlinkError, match="^the map has 2 components; it must be connected$"):
            BandSpec(two, (1,) * 6, ((0, 0),) * 6)

    @pytest.mark.parametrize("genus", [0, 1], ids=["declares-0", "declares-1"])
    def test_disjoint_torus_refused_by_spec(self, triangle, torus, genus):
        mixed = disjoint_union(triangle, torus, genus)
        with pytest.raises(BandlinkError, match="^the map has 2 components; it must be connected$"):
            BandSpec(mixed, (1,) * 5, ((0, 0),) * 5)


class TestSubdivide:
    """Subdivision points are numbered from the base: point i is vertex V + i,
    and segments are numbered by their low dart."""

    def test_curl_gains_two_vertices(self, curl):
        bd = build_band(BandSpec(curl, (1, 1), ((0, 0), (0, 0))))
        # The hash of base vertex 1, then the clasps of points 2 and 3.
        owners = [(c.kind, c.owner) for c in bd.crossing_kind]
        assert owners == [("clasp", 2)] * 2 + [("clasp", 3)] * 2 + [("hash", 1)] * 4
        assert (bd.n, bd.diagram.vertex_count) == (2, 8)
        assert sorted(o for o in bd.face_provenance if o is not None) == [1, 2, 3]

    def test_zero_counts_change_nothing(self, triangle):
        # With no points the segments are the base edges, in edge order.
        bd = build_band(BandSpec(triangle, (0, 0, 0), ((1,), (2,), (0,))))
        assert [c.owner for c in bd.crossing_kind] == [1, 1, 2, 2, 3, 3, 1, 2, 2]
        assert [c.kind for c in bd.crossing_kind[6:]] == ["twist"] * 3
        assert bd.n == 3
        assert sorted(o for o in bd.face_provenance if o is not None) == [1, 2]

    def test_genus_is_preserved(self, torus):
        bd = build_band(BandSpec(torus, (2, 3), ((0, 0, 0), (0, 0, 0, 0))))
        assert derived_genus(bd.diagram) == 1
        assert bd.n == 5
        clasps = [c.owner for c in bd.crossing_kind if c.kind == "clasp"]
        assert clasps == [2, 2, 3, 3, 4, 4, 5, 5, 6, 6]

    def test_edgeless_base_refused(self):
        with pytest.raises(BandlinkError, match="the base map has no edges"):
            BandSpec(CombinatorialMap(0, (), (), 0), (), ())


class TestAgainstReferenceBuild:
    """The one-pass builder gives the diagram text, crossings, face provenance
    and sidecar of the builder that made the subdivided base as a map first."""

    @staticmethod
    def assert_same(spec):
        got, want = build_band(spec), reference_build(spec)
        assert format_cmap(got.diagram) == format_cmap(want.diagram)
        assert got.crossing_kind == want.crossing_kind
        assert got.face_provenance == want.face_provenance
        assert provenance_to_json(got) == provenance_to_json(want)

    @pytest.mark.parametrize("genus", [0, 1])
    def test_random_specs(self, genus):
        rng = random.Random(81 + genus)
        for _ in range(60):
            self.assert_same(random_spec(rng, cap=30, want_genus=genus))

    def test_relabelled_chains(self):
        gen, rng = bench_gen(), random.Random(83)
        for k in range(1, 41):
            self.assert_same(band_spec_of(gen.chain("chain", k).relabelled(rng)))

    @pytest.mark.parametrize("torus", [False, True], ids=["plane", "torus"])
    @pytest.mark.parametrize("w", [3, 6, 12])
    def test_medial_bands(self, w, torus):
        gen, rng = bench_gen(), random.Random(w)
        self.assert_same(band_spec_of(gen.medial_band("m", w, torus)))
        decorated = gen.medial_band("m", w, torus, rng, double=w, twisted=2 * w)
        self.assert_same(band_spec_of(decorated.relabelled(rng)))

    def test_fixture_specs(self, loop1, torus):
        for name in ("chain3.json", "curlband.json"):
            self.assert_same(load_band_spec(FIXTURES / name))
        self.assert_same(BandSpec(loop1, (0,), ((0,),)))
        self.assert_same(BandSpec(torus, (1, 1), ((0, 0), (0, 0))))


class TestLoopBand:
    def test_golden_diagram(self, loop1):
        bd = build_band(BandSpec(loop1, (0,), ((0,),)))
        m = bd.diagram
        assert cycles_of_images(m.alpha) == [(1, 2), (3, 6), (4, 5), (7, 8)]
        assert cycles_of_images(m.sigma) == [(1, 2, 3, 4), (5, 6, 7, 8)]
        assert [f.boundary for f in faces(m)] == [(1, 3, 7, 5), (2,), (4, 6), (8,)]
        assert bd.face_provenance == (None, 2, None, 1)
        assert bd.n == 1
        assert bd.degenerate

    def test_crossing_kinds(self, loop1):
        bd = build_band(BandSpec(loop1, (0,), ((0,),)))
        assert [c.kind for c in bd.crossing_kind] == ["clasp", "clasp"]
        assert [c.slot for c in bd.crossing_kind] == [1, 2]


class TestChainBands:
    def test_golden_two_chain(self, chain2_base):
        bd = build_band(BandSpec(chain2_base, (0, 0), ((0,), (0,))))
        m = bd.diagram
        assert cycles_of_images(m.alpha) == [
            (1, 10), (2, 9), (3, 6), (4, 5), (7, 16), (8, 15), (11, 14), (12, 13)
        ]
        assert (m.vertex_count, m.edge_count, len(faces(m))) == (4, 8, 6)
        assert bd.face_provenance == (None, 2, None, None, 1, None)
        assert bd.n == 2
        assert not bd.degenerate

    def test_three_chain_counts(self, chain3_band):
        m = chain3_band.diagram
        validate(m)
        assert (m.vertex_count, m.edge_count, len(faces(m))) == (6, 12, 8)
        assert chain3_band.n == 3
        assert not chain3_band.degenerate

    def test_three_chain_circles_clasp_each_other(self, chain3_band):
        assert [c.kind for c in chain3_band.crossing_kind] == ["clasp"] * 6
        pairs = circle_pairs_by_owner(chain3_band)
        assert sorted(pairs.values()) == [(1, 2), (1, 3), (2, 3)]

    def test_face_provenance_is_injective(self, chain3_band):
        base_faces = [o for o in chain3_band.face_provenance if o is not None]
        assert sorted(base_faces) == [1, 2]

    def test_chain_sizes(self):
        for n in range(2, 7):
            bd = build_band(chain_spec(n))
            assert bd.n == n
            assert bd.diagram.vertex_count == 2 * n
            assert not bd.degenerate


class TestCurlBand:
    def test_counts(self, curl_band):
        assert curl_band.n == 2
        assert curl_band.diagram.vertex_count == 8
        assert not curl_band.degenerate

    def test_clasps_and_hash_join_the_same_circles(self, curl_band):
        kinds = sorted(c.kind for c in curl_band.crossing_kind)
        assert kinds == ["clasp"] * 4 + ["hash"] * 4
        pairs = circle_pairs_by_owner(curl_band)
        assert sorted(k for k, _ in pairs) == ["clasp", "clasp", "hash"]
        assert set(pairs.values()) == {(1, 2)}


class TestTwists:
    def test_twist_crossings_are_self_crossings(self, triangle):
        bd = build_band(BandSpec(triangle, (0, 0, 0), ((1,), (0,), (0,))))
        assert bd.diagram.vertex_count == 7
        (twist,) = [
            vid for vid, c in enumerate(bd.crossing_kind, start=1) if c.kind == "twist"
        ]
        assert bd.circles_of_vertex[twist - 1] == (1, 1)

    def test_twists_preserve_components(self, triangle):
        plain = build_band(chain_spec(3))
        twisted = build_band(
            BandSpec(triangle, (0, 0, 0), ((3,), (2,), (1,)))
        )
        assert twisted.n == plain.n == 3
        assert twisted.diagram.vertex_count == 6 + 6


class TestSelfClasps:
    def test_loop_band_is_degenerate(self, loop1):
        bd = build_band(BandSpec(loop1, (0,), ((0,),)))
        assert bd.degenerate

    def test_torus_band_is_degenerate(self, torus_band):
        assert torus_band.degenerate
        assert torus_band.n == 2


class TestFuzzedInvariants:
    def test_census_formula_and_genus(self):
        rng = random.Random(31)
        for _ in range(40):
            spec = random_spec(rng)
            bd = build_band(spec)
            valences = [len(cyc) for cyc in spec.base.vertex_cycles]
            clasps = sum(spec.subdivisions) + valences.count(2)
            hashes = valences.count(4)
            twists = sum(sum(row) for row in spec.twists)
            assert bd.diagram.vertex_count == 2 * clasps + 4 * hashes + twists
            assert bd.n == clasps
            assert derived_genus(bd.diagram) == spec.base.declared_genus

    def test_genus_one_bases_build(self):
        rng = random.Random(32)
        for _ in range(15):
            spec = random_spec(rng, want_genus=1)
            bd = build_band(spec)
            assert derived_genus(bd.diagram) == 1
            validate(bd.diagram)

    def test_strand_circles_partition(self):
        rng = random.Random(33)
        for _ in range(20):
            spec = random_spec(rng)
            bd = build_band(spec)
            base = spec.base
            two_valent = sum(1 for cyc in base.vertex_cycles if len(cyc) == 2)
            assert bd.n == two_valent + sum(spec.subdivisions)
            darts = sorted(d for s in strands(bd.diagram) for d in s.darts)
            assert darts == list(range(1, bd.diagram.dart_count + 1))


class TestSpecFiles:
    def test_fixture_loads_with_relative_map(self):
        spec = load_band_spec(FIXTURES / "chain3.json")
        assert spec.subdivisions == (0, 0, 0)
        assert spec.twists == ((0,), (0,), (0,))

    def test_defaults_for_omitted_edges(self, tmp_path, triangle):
        (tmp_path / "base.cmap").write_text(format_cmap(triangle))
        doc = {"map": "base.cmap", "edges": [{"edge": 2, "subdivisions": 1}]}
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        spec = load_band_spec(tmp_path / "spec.json")
        assert spec.subdivisions == (0, 1, 0)
        assert spec.twists == ((0,), (0, 0), (0,))

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ({}, "missing 'map'"),
            ({"map": "base.cmap", "edges": [{"edge": 9}]}, "outside 1..3"),
            (
                {"map": "base.cmap", "edges": [{"edge": 1}, {"edge": 1}]},
                "listed twice",
            ),
            (
                {"map": "base.cmap", "edges": [{"edge": "x"}]},
                "bad edge entry",
            ),
            (
                {"map": "base.cmap", "edges": [{"edge": float("inf")}]},
                "bad edge entry",
            ),
            (
                {"map": "base.cmap", "edges": [{"edge": 1.7, "subdivisions": 1}]},
                "bad edge entry",
            ),
            ({"map": "base.cmap", "edges": [{"edge": True}]}, "bad edge entry"),
            ({"map": "base.cmap", "edges": [{"edge": "1"}]}, "bad edge entry"),
            (
                {"map": "base.cmap", "edges": [{"edge": 1, "subdivisions": 1.0}]},
                "bad edge entry",
            ),
            (
                {"map": "base.cmap", "edges": [{"edge": 1, "subdivisions": "1"}]},
                "bad edge entry",
            ),
            (
                {"map": "base.cmap", "edges": [{"edge": 1, "twists": "0"}]},
                "bad edge entry",
            ),
            (
                {"map": "base.cmap", "edges": [{"edge": 1, "twists": [False]}]},
                "bad edge entry",
            ),
            (
                {"map": "base.cmap", "edges": [{"edge": 1, "twists": [0.0]}]},
                "bad edge entry",
            ),
            # A misspelt key is refused, not read as its default.
            ({"map": "base.cmap", "edge": []}, "spec.json: unknown key 'edge'"),
            (
                {"map": "base.cmap", "edges": [
                    {"edge": 1, "subdivisions": 1, "twist": [3, 0]}]},
                "edge 1: unknown key 'twist'",
            ),
        ],
    )
    def test_bad_documents(self, tmp_path, triangle, doc, fragment):
        (tmp_path / "base.cmap").write_text(format_cmap(triangle))
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        with pytest.raises(BandlinkError, match=re.escape(fragment)):
            load_band_spec(tmp_path / "spec.json")

    def test_unsubdivided_crossing_edges_rejected_at_load(self, tmp_path, curl):
        (tmp_path / "base.cmap").write_text(format_cmap(curl))
        (tmp_path / "spec.json").write_text(json.dumps({"map": "base.cmap"}))
        with pytest.raises(BandlinkError, match="needs at least one subdivision point"):
            load_band_spec(tmp_path / "spec.json")


def _set(path, value):
    """An edit that sets doc[path[0]][path[1]]... to value."""

    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc

    return edit


# (id, edit of a chain3 sidecar document, fragment of the expected error)
BAD_SIDECARS = [
    ("not-an-object", lambda doc: [doc], "not a JSON object"),
    ("vertex-zero", _set(("crossing_kind", 0, "vertex"), 0), "vertex 0 outside 1..6"),
    ("vertex-negative", _set(("crossing_kind", 0, "vertex"), -1), "vertex -1 outside"),
    ("vertex-beyond", _set(("crossing_kind", 0, "vertex"), 7), "vertex 7 outside"),
    ("vertex-huge", _set(("crossing_kind", 0, "vertex"), HUGE), "vertex " + "9" * 80 + "..."),
    ("vertex-repeated", _set(("crossing_kind", 1, "vertex"), 1), "vertex 1 listed twice"),
    ("face-zero", _set(("face_provenance", 0, "face"), 0), "face 0 outside 1..8"),
    ("face-negative", _set(("face_provenance", 0, "face"), -1), "face -1 outside"),
    ("face-beyond", _set(("face_provenance", 0, "face"), 9), "face 9 outside"),
    ("face-huge", _set(("face_provenance", 0, "face"), HUGE), "face " + "9" * 80 + "..."),
    ("face-repeated", _set(("face_provenance", 1, "face"), 1), "face 1 listed twice"),
    ("kind-bogus", _set(("crossing_kind", 0, "kind"), "bogus"), "unknown kind 'bogus'"),
    ("face-kind-bogus", _set(("face_provenance", 0, "kind"), "bogus"), "unknown kind 'bogus'"),
    ("owner-infinite", _set(("crossing_kind", 0, "owner"), float("inf")), "incomplete"),
    ("vertex-true", _set(("crossing_kind", 0, "vertex"), True), "vertex must be an integer"),
    ("vertex-float", _set(("crossing_kind", 0, "vertex"), 1.0), "vertex must be an integer"),
    ("vertex-string", _set(("crossing_kind", 0, "vertex"), "1"), "vertex must be an integer"),
    ("face-float", _set(("face_provenance", 0, "face"), 1.5), "face must be an integer"),
    ("face-true", _set(("face_provenance", 0, "face"), True), "face must be an integer"),
    ("owner-string", _set(("crossing_kind", 0, "owner"), "1"), "owner must be an integer"),
    ("slot-true", _set(("crossing_kind", 0, "slot"), True), "slot must be an integer"),
    ("slot-float", _set(("crossing_kind", 0, "slot"), 1.0), "slot must be an integer"),
    (
        "base-face-float",
        _set(("face_provenance", 1, "base_face"), 2.0),
        "base_face must be an integer",
    ),
    (
        "base-face-string",
        _set(("face_provenance", 1, "base_face"), "2"),
        "base_face must be an integer",
    ),
    (
        "crossings-object",
        _set(("crossing_kind",), {"vertex": 1}),
        "crossing_kind must be a list",
    ),
    ("faces-string", _set(("face_provenance",), "faces"), "face_provenance must be a list"),
    ("n-mismatch", _set(("n",), 4), "provenance n 4"),
    ("degenerate-mismatch", _set(("degenerate",), True), "provenance degenerate True"),
    ("circles-mismatch", _set(("circle_of_strand",), [3, 3, 3]), "circle_of_strand [3, 3, 3]"),
    # Equal in Python but not the JSON types the writer writes.
    ("n-float", _set(("n",), 3.0), "provenance n 3.0 does not match the map's 3"),
    ("degenerate-zero", _set(("degenerate",), 0), "provenance degenerate 0 does not match"),
    (
        "circles-float",
        _set(("circle_of_strand",), [1.0, 2.0, 3.0]),
        "circle_of_strand [1.0, 2.0, 3.0] does not match the map's [1, 2, 3]",
    ),
    # Echoed values are clipped to 80 characters of their repr.
    ("format-long", _set(("format",), "x" * 5000), "format '" + "x" * 79 + "..."),
    (
        "crossing-kind-long",
        _set(("crossing_kind", 0, "kind"), "x" * 5000),
        "unknown kind '" + "x" * 79 + "...",
    ),
    (
        "face-kind-long",
        _set(("face_provenance", 0, "kind"), "x" * 5000),
        "unknown kind '" + "x" * 79 + "...",
    ),
    (
        "circles-long",
        _set(("circle_of_strand",), list(range(5000))),
        repr(list(range(5000)))[:80] + "... does not match",
    ),
    (
        "circles-missing",
        lambda doc: {k: v for k, v in doc.items() if k != "circle_of_strand"},
        "incomplete provenance document: 'circle_of_strand'",
    ),
    (
        # Too deep for json.dumps as well, so this edit returns the text.
        "crossings-nested-deep",
        lambda doc: json.dumps(dict(doc, crossing_kind=0)).replace(
            '"crossing_kind": 0', '"crossing_kind": ' + "[" * 100_000 + "]" * 100_000
        ),
        "bad provenance JSON",
    ),
    (
        # json.dumps cannot write an integer this long, so the edit returns text.
        "n-overlong",
        lambda doc: json.dumps(dict(doc, n=0)).replace('"n": 0', '"n": ' + OVERLONG),
        "bad provenance JSON: Exceeds the limit",
    ),
]


class TestProvenanceSidecar:
    def test_round_trip(self, chain3_band, loop1, torus_band):
        rng = random.Random(34)
        bands = [chain3_band, build_band(BandSpec(loop1, (0,), ((0,),))), torus_band]
        bands += [build_band(random_spec(rng)) for _ in range(20)]
        bands += [build_band(random_spec(rng, want_genus=1)) for _ in range(10)]
        for bd in bands:
            text = provenance_to_json(bd)
            again = band_diagram_from_provenance(bd.diagram, text)
            assert again == bd
            assert (again.n, again.degenerate) == (bd.n, bd.degenerate)

    @pytest.mark.parametrize(
        "edit,fragment",
        [pytest.param(edit, fragment, id=label) for label, edit, fragment in BAD_SIDECARS],
    )
    def test_bad_sidecars_rejected(self, chain3_band, edit, fragment):
        doc = edit(json.loads(provenance_to_json(chain3_band)))
        text = doc if isinstance(doc, str) else json.dumps(doc)
        with pytest.raises(BandlinkError, match=re.escape(fragment)):
            band_diagram_from_provenance(chain3_band.diagram, text)

    def test_format_line_is_checked(self, chain3_band):
        doc = json.loads(provenance_to_json(chain3_band))
        doc["format"] = "bandlink-provenance v0"
        with pytest.raises(BandlinkError, match="unknown provenance format"):
            band_diagram_from_provenance(chain3_band.diagram, json.dumps(doc))

    def test_component_count_is_cross_checked(self, chain3_band):
        doc = json.loads(provenance_to_json(chain3_band))
        doc["n"] = 2
        with pytest.raises(BandlinkError, match="provenance n 2 does not match the map's 3"):
            band_diagram_from_provenance(chain3_band.diagram, json.dumps(doc))

    def test_every_vertex_needs_a_kind(self, chain3_band):
        doc = json.loads(provenance_to_json(chain3_band))
        doc["crossing_kind"] = doc["crossing_kind"][:-1]
        with pytest.raises(BandlinkError, match="provenance does not cover every vertex"):
            band_diagram_from_provenance(chain3_band.diagram, json.dumps(doc))

    def test_wrong_map_is_rejected(self, chain3_band, curl_band):
        text = provenance_to_json(chain3_band)
        with pytest.raises(BandlinkError, match="face list does not match the map's faces"):
            band_diagram_from_provenance(curl_band.diagram, text)

    def test_map_must_be_4_regular(self, loop1, torus):
        with pytest.raises(BandlinkError, match="vertex 1 has valence 2"):
            band_diagram_from_provenance(loop1, LOOP1_SIDECAR)
        bd = band_diagram_from_provenance(torus, TORUS_SIDECAR)
        assert (bd.n, bd.degenerate) == (2, False)
