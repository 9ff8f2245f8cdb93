import random

import pytest

from bandlink import (
    BandSpec,
    build_band,
    hull_constructive_band,
    hull_exact,
    load_band_spec,
    report,
    verify_witness,
)
from bandlink.band import BandDiagram
from bandlink.cli import main
from bandlink.errors import BandlinkError, BudgetExceeded, ConstructionStuck
from bandlink.hull import DEFAULT_BUDGET, HullResult, check_witness, extension_positions
from bandlink.percolation import Closure
from helpers import (
    FIXTURES,
    _one_cyclic_run,
    band_spec_of,
    bench_gen,
    chain_spec,
    disjoint_union,
    iterative_exact,
    oversized_witness_band,
    random_map,
    random_spec,
    reference_exact,
    reference_hull,
    reference_walk,
    relabel,
)


def medial_twisted_bands(seed: int, tmp_path) -> dict[str, BandDiagram]:
    """The bands of the medial-twisted benchmark workload at ``seed``, drawn
    the way bench/workloads.py draws them: twisted plane bands, then torus
    bands."""
    gen, rng = bench_gen(), random.Random(seed)
    bands = {}
    for name, size, torus, double, twisted in (
        ("p5", 5, False, 3, 8),
        ("p6", 6, False, 4, 12),
        ("t5a", 5, True, 0, 0),
        ("t5b", 5, True, 0, 0),
        ("t6", 6, True, 0, 0),
    ):
        spec = gen.medial_band(name, size, torus, rng, double, twisted)
        spec.relabelled(rng).write(tmp_path)
        bands[name] = build_band(load_band_spec(tmp_path / f"{name}.json"))
    return bands


class TestVerifyWitness:
    def test_triangle(self, triangle):
        assert verify_witness(triangle, [1, 3])
        assert not verify_witness(triangle, [2])
        assert verify_witness(triangle, [1, 2, 3])


class TestIndependentCheck:
    """The witness check does not run the loop the searches run: with
    ``Closure.add`` broken to color every vertex, the exact search offers
    the empty set on the 3-chain, and every check refuses it."""

    @pytest.fixture
    def broken_add(self, monkeypatch):
        def add(engine, vertices):
            for v in range(1, len(engine.colored)):
                if not engine.colored[v]:
                    engine.color(v)

        monkeypatch.setattr(Closure, "add", add)

    def test_empty_set_refused(self, broken_add, chain3_band):
        m = chain3_band.diagram
        assert hull_exact(m).witness == ()
        assert not verify_witness(m, ())
        with pytest.raises(BandlinkError, match="^witness - does not percolate$"):
            check_witness(m, ())
        with pytest.raises(BandlinkError, match="^witness - does not percolate$"):
            report(chain3_band, HullResult((), "exact"))

    def test_hull_command_refuses(self, broken_add, capsys):
        assert main(["hull", str(FIXTURES / "chain3.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: witness - does not percolate\n"


class TestExact:
    def test_curl_needs_nothing(self, curl):
        result = hull_exact(curl)
        assert result.size == 0
        assert result.witness == ()
        assert result.method == "exact"
        assert verify_witness(curl, result.witness)

    def test_triangle(self, triangle):
        result = hull_exact(triangle)
        assert result.size == 2
        assert result.witness == (1, 2)

    def test_witness_is_lexicographic_least(self, chain3_band):
        result = hull_exact(chain3_band.diagram)
        assert result.size == 2
        assert result.witness == (1, 3)

    def test_budget_is_enforced(self, chain3_band):
        with pytest.raises(BudgetExceeded) as err:
            hull_exact(chain3_band.diagram, budget=3)
        assert err.value.exit_code == 4
        assert err.value.examined > 3

    def test_examined_is_reported(self, triangle):
        result = hull_exact(triangle)
        assert result.examined > 0
        # A result made by hand has spent nothing and has no log.
        assert HullResult((1,), "exact") == ((1,), "exact", 0, ())

    def test_budget_boundary(self):
        # The README's 10^8 by default; a budget of exactly the 8-chain's
        # 5,298 face visits finishes, and one fewer runs out.
        assert DEFAULT_BUDGET == 10**8
        m = build_band(chain_spec(8)).diagram
        result = hull_exact(m)
        assert result.examined == 5_298
        assert hull_exact(m, budget=result.examined) == result
        with pytest.raises(BudgetExceeded, match=r"^hull search spent 5298 face visits \(budget 5297\)$"):
            hull_exact(m, budget=result.examined - 1)


class TestExactAgainstReference:
    """Same size and witness as the bitmask search hull_exact replaced."""

    def test_fixtures_and_chains(
        self, triangle, curl, torus, loop1, chain2_base, chain3_band, curl_band,
        torus_band,
    ):
        maps = [triangle, curl, torus, loop1, chain2_base]
        maps += [bd.diagram for bd in (chain3_band, curl_band, torus_band)]
        maps += [build_band(chain_spec(n)).diagram for n in range(1, 9)]
        for m in maps:
            result = hull_exact(m)
            assert (result.size, result.witness) == reference_hull(m)

    @pytest.mark.parametrize("genus, runs", [(0, 30), (1, 8)])
    def test_fuzzed_bands(self, genus, runs):
        rng = random.Random(51 + genus)
        for _ in range(runs):
            m = build_band(random_spec(rng, cap=16, want_genus=genus)).diagram
            result = hull_exact(m)
            assert (result.size, result.witness) == reference_hull(m)


class TestExactAgainstUnprunedSearch:
    """Same size and witness as the search before the two skip rules."""

    @staticmethod
    def assert_same(m):
        result = hull_exact(m)
        assert (result.size, result.witness) == reference_exact(m)[:2]

    def test_chains(self):
        for n in range(1, 9):
            self.assert_same(build_band(chain_spec(n)).diagram)

    @pytest.mark.parametrize("genus, runs", [(0, 40), (1, 20)])
    def test_fuzzed_bands(self, genus, runs):
        rng = random.Random(61 + genus)
        for _ in range(runs):
            self.assert_same(build_band(random_spec(rng, want_genus=genus)).diagram)

    def test_random_maps_and_relabellings(self):
        rng = random.Random(71)
        for _ in range(100):
            m = random_map(rng)
            self.assert_same(m)
            self.assert_same(relabel(rng, m))

    def test_pruning_cuts_face_visits(self):
        # Chain n=8: the unpruned search spends 169,842 face visits; the
        # sibling rule alone 19,946, the closure rule alone 73,322, both
        # 5,298.  Dropping either rule changes the count.
        m = build_band(chain_spec(8)).diagram
        result = hull_exact(m)
        assert reference_exact(m)[2] == 169_842
        assert result.examined == 5_298


class TestExactAgainstIterativeSearch:
    """Same witness, face visits and budget failure as the search that
    stepped its depth-first walk with hand-kept stacks."""

    BUDGETS = (None, 50, 500)

    @staticmethod
    def outcome(search, m, budget):
        try:
            result = search(m, budget)
        except BudgetExceeded as err:
            return "budget", str(err), err.examined
        return "ok", result.witness, result.examined, result.method

    def assert_same(self, m) -> set[str]:
        kinds = set()
        for budget in self.BUDGETS:
            got = self.outcome(hull_exact, m, budget)
            assert got == self.outcome(iterative_exact, m, budget)
            kinds.add(got[0])
        return kinds

    def test_random_maps_and_relabellings(self):
        rng = random.Random(81)
        kinds = set()
        for _ in range(60):
            m = random_map(rng)
            kinds |= self.assert_same(m)
            kinds |= self.assert_same(relabel(rng, m))
        assert kinds == {"ok", "budget"}

    @pytest.mark.parametrize("genus, runs", [(0, 30), (1, 15)])
    def test_fuzzed_bands(self, genus, runs):
        rng = random.Random(83 + genus)
        kinds = set()
        for _ in range(runs):
            kinds |= self.assert_same(build_band(random_spec(rng, want_genus=genus)).diagram)
        assert kinds == {"ok", "budget"}

    def test_chain_9_face_visits(self):
        m = build_band(chain_spec(9)).diagram
        assert self.assert_same(m) == {"ok", "budget"}
        assert hull_exact(m).examined == 11_636


class TestConstructive:
    def test_three_chain(self, chain3_band):
        result = hull_constructive_band(chain3_band)
        assert result.size == 2
        assert result.witness == (1, 3)
        assert result.method == "constructive"
        assert verify_witness(chain3_band.diagram, result.witness)
        assert result.log[0].startswith("start face")

    def test_chain_family(self):
        for n in range(2, 7):
            bd = build_band(chain_spec(n))
            result = hull_constructive_band(bd)
            assert result.size == n - 1
            assert verify_witness(bd.diagram, result.witness)

    def test_curl_band(self, curl_band):
        result = hull_constructive_band(curl_band)
        assert result.size == 1
        assert result.witness == (2,)

    def test_degenerate_loop(self, loop1):
        bd = build_band(BandSpec(loop1, (0,), ((0,),)))
        result = hull_constructive_band(bd)
        assert result.size == 0
        assert verify_witness(bd.diagram, result.witness)

    def test_agrees_with_exact_on_fuzz(self):
        rng = random.Random(41)
        for _ in range(60):
            bd = build_band(random_spec(rng))
            constructive = hull_constructive_band(bd)
            assert constructive.size == bd.n - 1
            assert verify_witness(bd.diagram, constructive.witness)
            exact = hull_exact(bd.diagram, budget=400_000)
            assert exact.size == constructive.size


class TestConstructiveWork:
    """The walk's face visits, over every start face it tried, are pinned:
    a change to the walk's work shows here exactly, with no timing noise."""

    def test_medial_12_success(self):
        bd = build_band(band_spec_of(bench_gen().medial_band("m12", 12)))
        result = hull_constructive_band(bd)
        assert result.size == bd.n - 1
        assert result.examined == 18_618

    def test_medial_twisted_plane_success_and_torus_dead_end(self, tmp_path):
        bands = medial_twisted_bands(0, tmp_path)
        assert hull_constructive_band(bands["p6"]).examined == 6_381
        with pytest.raises(ConstructionStuck) as err:
            hull_constructive_band(bands["t6"])
        assert err.value.examined == 147_856

    def test_no_start_face_costs_nothing(self, triangle):
        bd = build_band(BandSpec(triangle, (0, 0, 0), ((0,), (0,), (0,))))
        bare = BandDiagram(bd.diagram, bd.crossing_kind, (None,) * len(bd.face_provenance))
        with pytest.raises(ConstructionStuck, match="no base-derived faces") as err:
            hull_constructive_band(bare)
        assert err.value.examined == 0


class TestConstructiveAgainstRescan:
    """Same witness, log and stuck message as the walk that rescanned every
    base face after each pick, before the face frontier replaced it."""

    @staticmethod
    def outcome(walk, bd):
        try:
            result = walk(bd)
        except ConstructionStuck as err:
            return "stuck", str(err), err.log
        return "ok", result.witness, result.log

    def assert_same(self, bd) -> str:
        got = self.outcome(hull_constructive_band, bd)
        assert got == self.outcome(reference_walk, bd)
        return got[0]

    def test_relabelled_chains(self):
        rng = random.Random(91)
        kinds = []
        for k in (2, 3, 5, 6, 9, 12, 20, 40):
            spec = chain_spec(k)
            for _ in range(4):
                base = relabel(rng, spec.base)
                bd = build_band(BandSpec(base, spec.subdivisions, spec.twists))
                kinds.append(self.assert_same(bd))
        assert {"ok", "stuck"} <= set(kinds)

    @pytest.mark.parametrize("genus, runs", [(0, 40), (1, 20)])
    def test_fuzzed_bands(self, genus, runs):
        rng = random.Random(93 + genus)
        for _ in range(runs):
            self.assert_same(build_band(random_spec(rng, cap=30, want_genus=genus)))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_medial_twisted_bands(self, seed, tmp_path):
        kinds = [self.assert_same(bd) for bd in medial_twisted_bands(seed, tmp_path).values()]
        assert kinds[2:] == ["stuck"] * 3

    def test_torus_fixture(self, torus_band):
        assert self.assert_same(torus_band) == "stuck"

    def test_oversized_witness(self):
        # A walk that colors everything returns its picks, however many:
        # judging them against n - 1 is the bounds report's job.
        bd = oversized_witness_band()
        assert self.assert_same(bd) == "ok"
        _, witness, log = self.outcome(hull_constructive_band, bd)
        assert witness == (3, 10, 11)
        assert log[-3:] == ("start face 16: color 11", "face 12: color 10", "face 6: color 3")
        assert hull_exact(bd.diagram).size == bd.n - 1 == 2

    def test_face_test_on_every_flag_list(self):
        # Every face of up to 12 corners, read as its colored flags: the walk
        # extends where the oracle's run test does, at the same positions.
        checked = 0
        for n in range(1, 13):
            corners = list(range(n))
            for mask in range(1 << n):
                flags = [bool(mask >> i & 1) for i in range(n)]
                run = _one_cyclic_run(flags)
                want = None
                if run is not None:
                    start, length = run
                    want = [(start + length + j) % n for j in range(n - length)]
                assert extension_positions(flags, corners) == want, flags
                checked += 1
        assert checked == 8190


class TestHigherGenus:
    def test_torus_band_exceeds_the_chain_bound(self, torus_band):
        exact = hull_exact(torus_band.diagram)
        assert exact.size == 3
        assert exact.size > torus_band.n - 1

    def test_torus_band_walk_reports_stuck(self, torus_band):
        with pytest.raises(ConstructionStuck) as err:
            hull_constructive_band(torus_band)
        assert err.value.exit_code == 4
        assert err.value.log
        assert any("dead end" in line for line in err.value.log)


class TestDisconnected:
    def test_spec_refuses_disconnected_base(self, loop1):
        base = disjoint_union(loop1, loop1)
        with pytest.raises(BandlinkError, match="the map has 2 components") as err:
            BandSpec(base, (0, 0), ((0,), (0,)))
        assert err.value.exit_code == 2

    def test_walk_requires_connected_diagram(self, triangle):
        # Two built bands side by side, put together by hand: no face spans
        # both, so no walk from one colors the other.
        one = build_band(BandSpec(triangle, (0, 0, 0), ((0,), (0,), (0,))))
        shift = sum(origin is not None for origin in one.face_provenance)
        bd = BandDiagram(
            disjoint_union(one.diagram, one.diagram),
            one.crossing_kind * 2,
            one.face_provenance
            + tuple(None if origin is None else origin + shift for origin in one.face_provenance),
        )
        assert bd.n == 2 * one.n
        with pytest.raises(ConstructionStuck, match="every start face led to a dead end"):
            hull_constructive_band(bd)
