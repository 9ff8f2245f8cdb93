"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line straight to the terminal (bypassing capture), so any pytest run shows
the per-criterion verdicts.
"""

import json
import random
from collections import Counter
from time import perf_counter

import pytest

from bandlink import (
    BandSpec,
    CombinatorialMap,
    build_band,
    close,
    derived_genus,
    faces,
    hull_constructive_band,
    hull_exact,
    report,
    validate,
    verify_witness,
)
from bandlink.cli import main
from bandlink.errors import BandlinkError, BudgetExceeded, ConstructionStuck
from helpers import FIXTURES, chain_spec, random_map, random_spec, sequential_close

TRIANGLE = str(FIXTURES / "triangle.cmap")
CURL = str(FIXTURES / "curl.cmap")
CHAIN3 = str(FIXTURES / "chain3.json")
CURLBAND = str(FIXTURES / "curlband.json")


@pytest.fixture()
def announce(capsys):
    def _announce(label: str, ok: bool, detail: str = ""):
        tail = f" [{detail}]" if detail else ""
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {label}{tail}")
        assert ok, f"{label}{tail}"

    return _announce


def test_chain_fixtures(announce):
    ok = True
    slowest = 0.0
    for n in range(2, 7):
        bd = build_band(chain_spec(n))
        result = hull_constructive_band(bd)
        ok = ok and verify_witness(bd.diagram, result.witness) and result.size == n - 1
        rep = report(bd, result)
        ok = ok and rep.conclusive
        ok = ok and (rep.tunnel_number, rep.splitting_genus, rep.group_rank) == (
            n - 1,
            n,
            n,
        )
    for n in range(2, 5):
        bd = build_band(chain_spec(n))
        start = perf_counter()
        exact = hull_exact(bd.diagram)
        slowest = max(slowest, perf_counter() - start)
        ok = ok and exact.size == n - 1
    ok = ok and slowest < 5.0
    announce(
        "closed chains n=2..6: constructive witness of size n-1 and a conclusive "
        "tunnel/genus/rank report; exact search agrees for n=2..4",
        ok,
        f"slowest exact {slowest:.2f}s",
    )


def test_fuzzed_band_equality(announce):
    rng = random.Random(20260814)
    runs = 200
    stuck = 0
    exact_done = 0
    ok = True
    for _ in range(runs):
        bd = build_band(random_spec(rng))
        ok = ok and bd.diagram.vertex_count <= 18
        try:
            result = hull_constructive_band(bd)
        except ConstructionStuck:
            stuck += 1
            continue
        ok = ok and result.size == bd.n - 1
        ok = ok and verify_witness(bd.diagram, result.witness)
        try:
            exact = hull_exact(bd.diagram, budget=400_000)
        except BudgetExceeded:
            continue
        exact_done += 1
        ok = ok and exact.size == bd.n - 1
    ok = ok and stuck == 0
    announce(
        f"{runs} fuzzed band specs (0-2 crossings in the base, k in 1..2, "
        "t in 0..3, |V| <= 18): constructive h = n-1 with a percolating witness",
        ok,
        f"exact search confirmed {exact_done}/{runs}; stuck walks: {stuck}",
    )


def test_percolation_properties(announce):
    rng = random.Random(418)
    runs = 500
    ok = True
    for _ in range(runs):
        m = random_map(rng)
        fs = faces(m)
        everybody = range(1, m.vertex_count + 1)
        small = {v for v in everybody if rng.random() < 0.3}
        grown = small | {v for v in everybody if rng.random() < 0.2}
        closed_small, _ = close(m, fs, small)
        closed_grown, _ = close(m, fs, grown)
        ok = ok and closed_small.colored <= closed_grown.colored
        twice, _ = close(m, fs, closed_small.colored)
        ok = ok and twice.colored == closed_small.colored
        ok = ok and sequential_close(rng, fs, small) == closed_small.colored
    announce(
        f"{runs} random maps (<= 20 vertices): closure is monotone, idempotent, "
        "and schedule independent",
        ok,
    )


def test_euler_and_genus_invariants(announce):
    rng = random.Random(419)
    ok = True
    for _ in range(200):
        m = random_map(rng)
        try:
            validate(m)
        except BandlinkError:
            ok = False
        skewed = CombinatorialMap(
            m.dart_count, m.alpha, m.sigma, m.declared_genus + 1
        )
        try:
            validate(skewed)
            ok = False
        except BandlinkError as exc:
            ok = ok and "declared genus" in str(exc)
    for want_genus in (0, 1):
        for _ in range(50):
            spec = random_spec(rng, want_genus=want_genus)
            bd = build_band(spec)
            base = spec.base
            valences = [len(cyc) for cyc in base.vertex_cycles]
            clasps = sum(spec.subdivisions) + valences.count(2)
            hashes = valences.count(4)
            twists = sum(sum(row) for row in spec.twists)
            ok = ok and bd.diagram.vertex_count == 2 * clasps + 4 * hashes + twists
            ok = ok and derived_genus(bd.diagram) == want_genus
    announce(
        "validate accepts exactly the Euler-consistent genus; build_band "
        "preserves genus (0 and 1) and meets |V| = 2C + 4H + sum(t)",
        ok,
    )


def test_clasp_and_hash_classification(announce):
    rng = random.Random(420)
    ok = True
    for _ in range(80):
        spec = random_spec(rng)
        untwisted = BandSpec(
            spec.base,
            spec.subdivisions,
            tuple((0,) * len(row) for row in spec.twists),
        )
        bd = build_band(untwisted)
        groups = {}
        for vid, crossing in enumerate(bd.crossing_kind, start=1):
            key = (crossing.kind, crossing.owner)
            groups.setdefault(key, []).append(bd.circles_of_vertex[vid - 1])
        seen = Counter()
        for (kind, _), pairs in groups.items():
            ok = ok and (kind, len(pairs)) in {("clasp", 2), ("hash", 4)}
            ok = ok and len(set(pairs)) == 1
            seen[frozenset(pairs[0])] += 2 * len(pairs)
        actual = Counter()
        for vid in range(1, bd.diagram.vertex_count + 1):
            a, b = bd.circles_of_vertex[vid - 1]
            actual[frozenset((a, b))] += 2
        ok = ok and seen == actual
    for _ in range(40):
        bd = build_band(random_spec(rng))
        for vid, crossing in enumerate(bd.crossing_kind, start=1):
            if crossing.kind == "twist":
                a, b = bd.circles_of_vertex[vid - 1]
                ok = ok and a == b
    announce(
        "untwisted fuzzed bands: each clasp's two crossings and each hash's "
        "four join one circle pair, recounted from the diagram; twist "
        "crossings only ever join a circle to itself",
        ok,
    )


def test_cli_determinism(announce, tmp_path, capsys):
    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 3)
        return captured.out

    cases = [
        ["validate", TRIANGLE],
        ["validate", CHAIN3],
        ["faces", TRIANGLE],
        ["faces", CHAIN3],
        ["strands", CURL],
        ["percolate", CHAIN3, "--manual", "1 3"],
        ["percolate", CURLBAND],
        ["hull", CHAIN3],
        ["hull", CHAIN3, "--constructive"],
        ["hull", CURLBAND, "--constructive"],
        ["report", CHAIN3],
        ["report", CHAIN3, "--json"],
        ["report", CURLBAND, "--exact"],
        ["render", TRIANGLE],
        ["render", CURL],
    ]
    ok = True
    for argv in cases:
        ok = ok and run(list(argv)) == run(list(argv))

    first, second = tmp_path / "a", tmp_path / "b"
    for d in (first, second):
        d.mkdir()
        out = run(
            [
                "build-band",
                CHAIN3,
                "-o",
                str(d / "dl.cmap"),
                "--provenance",
                str(d / "dl.prov.json"),
            ]
        )
        ok = ok and out == "n=3 crossings=6\n"
        run(
            [
                "percolate",
                str(d / "dl.cmap"),
                "--manual",
                "1 3",
                "--trace",
                str(d / "trace.json"),
            ]
        )
        run(
            [
                "render",
                str(d / "dl.cmap"),
                "--provenance",
                str(d / "dl.prov.json"),
                "--trace",
                str(d / "trace.json"),
                "-o",
                str(d / "out.svg"),
            ]
        )
    for name in ("dl.cmap", "dl.prov.json", "trace.json", "out.svg"):
        ok = ok and (first / name).read_bytes() == (second / name).read_bytes()
    ok = ok and json.loads((first / "dl.prov.json").read_text())["n"] == 3
    announce(
        "every CLI command produces byte-identical output on repeat runs, "
        "including written map, provenance, trace, and SVG files",
        ok,
    )
