"""Every small band, up to isomorphism: the judge for the walk and the law.

The census (``helpers.census_specs(5)``) is every connected base with 2- and
4-valent vertices and at most 5 edges, each in three spec kinds.  It covers
the shapes a seeded sample may never draw.
"""

import random
from collections import Counter

import pytest

from bandlink import build_band, hull_constructive_band, hull_exact, report, verify_witness
from bandlink.errors import ConstructionStuck
from helpers import band_spec_of, census_specs

# b1 is the loop: one 2-valent vertex whose edge is a loop.  With a twist,
# b1+t1 is one circle clasped to itself: n = 1, V = 3 and h = 1 > n - 1.
TWISTED_LOOP = "b1+t1"

# The bands, canonical or relabelled ("@r", the r-th of three relabellings
# drawn in census order from random.Random(0)), where today's walk dead-ends
# on genus 0.  The walk depends on how the darts are numbered: b25 is a
# circle of five 2-valent vertices, so b25+s3 and b25+s5 are the same closed
# 6-circle chain, and the walk certifies one numbering and not the other.
# A walk that does not depend on the numbering empties this list.
STUCK = ["b25+s3@1", "b25+s5", "b25+s5@1", "b25+s5@2"]


@pytest.fixture(scope="module")
def census():
    return [(spec, build_band(band_spec_of(spec))) for spec in census_specs(5)]


def test_every_band_builds(census):
    bases = Counter(spec.genus for spec, _ in census if "+" not in spec.name)
    assert bases == {0: 20, 1: 20}
    assert Counter(spec.genus for spec, _ in census) == {0: 180, 1: 198}
    for spec, bd in census:
        assert (bd.n, bd.diagram.vertex_count) == (spec.n, spec.crossings), spec.name
    assert max(bd.diagram.vertex_count for _, bd in census) == 18


def test_hull_is_n_minus_1_plus_2g(census):
    # An observation on every band here, not a theorem, with one exception.
    off = [
        spec.name for spec, bd in census
        if hull_exact(bd.diagram).size != bd.n - 1 + 2 * spec.genus
    ]
    assert off == [TWISTED_LOOP]


def test_walk_certifies_genus_0(census):
    rng = random.Random(0)
    stuck = []
    runs = twisted = 0
    for spec, bd in census:
        if spec.genus:
            continue
        numberings = [("", bd)] + [
            (f"@{r}", build_band(band_spec_of(spec.relabelled(rng)))) for r in (1, 2, 3)
        ]
        for tag, band in numberings:
            runs += 1
            try:
                result = hull_constructive_band(band)
            except ConstructionStuck:
                stuck.append(spec.name + tag)
                continue
            assert verify_witness(band.diagram, result.witness)
            if spec.name == TWISTED_LOOP:
                # The walk's one vertex is a minimum witness, one above n - 1.
                twisted += 1
                assert result.size == hull_exact(band.diagram).size == 1, tag
                assert report(band, result).tunnel_number is None
                continue
            assert result.size == band.n - 1, spec.name + tag
            assert report(band, result).tunnel_number == band.n - 1
    assert (runs, twisted) == (720, 4)
    assert stuck == STUCK


def test_walk_dead_ends_on_genus_1(census):
    for spec, bd in census:
        if spec.genus == 1:
            with pytest.raises(ConstructionStuck):
                hull_constructive_band(bd)
