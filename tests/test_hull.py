import random

import pytest

from bandlink import (
    BandSpec,
    build_band,
    hull_constructive_band,
    hull_exact,
    verify_witness,
)
from bandlink.errors import BudgetExceeded, ConstructionStuck
from helpers import (
    chain_spec,
    random_map,
    random_spec,
    reference_exact,
    reference_hull,
    relabel,
)


class TestVerifyWitness:
    def test_triangle(self, triangle):
        assert verify_witness(triangle, [1, 3])
        assert not verify_witness(triangle, [2])
        assert verify_witness(triangle, [1, 2, 3])


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
        assert err.value.best_known is None

    def test_budget_reports_last_finished_size(self, chain3_band):
        with pytest.raises(BudgetExceeded) as err:
            hull_exact(chain3_band.diagram, budget=40)
        assert err.value.best_known in (0, 1)

    def test_examined_is_reported(self, triangle):
        result = hull_exact(triangle)
        assert result.examined > 0


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
    def test_walk_requires_connected_diagram(self, loop1):
        shift = loop1.dart_count
        alpha = list(loop1.alpha) + [d + shift for d in loop1.alpha]
        sigma = list(loop1.sigma) + [d + shift for d in loop1.sigma]
        base = type(loop1)(2 * shift, tuple(alpha), tuple(sigma), 0)
        bd = build_band(BandSpec(base, (0, 0), ((0,), (0,))))
        with pytest.raises(ConstructionStuck):
            hull_constructive_band(bd)
