import json

import pytest

from bandlink import (
    band_diagram_from_provenance,
    format_report,
    hull_constructive_band,
    hull_exact,
    report,
)
from bandlink.bounds import report_to_json
from bandlink.errors import BandlinkError
from bandlink.hull import HullResult
from helpers import TORUS_SIDECAR


class TestConclusiveReports:
    def test_three_chain(self, chain3_band):
        rep = report(chain3_band, hull_constructive_band(chain3_band))
        assert rep.conclusive
        assert (rep.tunnel_number, rep.splitting_genus, rep.group_rank) == (2, 3, 3)
        assert rep.lower == rep.upper == 2

    def test_curl_band(self, curl_band):
        rep = report(curl_band, hull_exact(curl_band.diagram))
        assert rep.conclusive
        assert (rep.tunnel_number, rep.splitting_genus, rep.group_rank) == (1, 2, 2)

    def test_text_layout(self, chain3_band):
        rep = report(chain3_band, hull_constructive_band(chain3_band))
        assert format_report(rep) == (
            "n=3\n"
            "lower=2 upper=2 witness=1 3 method=constructive\n"
            "tunnel=2 genus=3 rank=3\n"
        )

    def test_lower_bound_is_flagged_as_trusted(self, chain3_band):
        rep = report(chain3_band, hull_constructive_band(chain3_band))
        assert any("taken on trust" in note for note in rep.notes)


class TestInconclusiveReports:
    def test_undercut_upper_bound_is_a_contradiction(self, torus):
        bd = band_diagram_from_provenance(torus, TORUS_SIDECAR)
        rep = report(bd, hull_exact(torus))
        assert not rep.conclusive
        assert (rep.n, rep.lower, rep.upper) == (2, 1, 0)
        assert format_report(rep).endswith(
            "contradiction: upper=0 is below the trusted lower=1; no conclusion\n"
        )
        assert not any("gap" in note for note in rep.notes)

    def test_torus_band_stays_honest(self, torus_band):
        rep = report(torus_band, hull_exact(torus_band.diagram))
        assert not rep.conclusive
        assert (rep.n, rep.lower, rep.upper) == (2, 1, 3)
        assert rep.tunnel_number is None
        assert format_report(rep).endswith("gap=2 no conclusion\n")


class TestWitnessChecks:
    def test_claimed_witness_is_rechecked(self, chain3_band):
        bogus = HullResult(witness=(2,), method="exact")
        with pytest.raises(BandlinkError, match="witness 2 does not percolate"):
            report(chain3_band, bogus)


class TestJson:
    def test_layout(self, chain3_band):
        rep = report(chain3_band, hull_constructive_band(chain3_band))
        doc = json.loads(report_to_json(rep))
        assert doc["n"] == 3
        assert doc["hull"] == {"size": 2, "method": "constructive", "witness": [1, 3]}
        assert doc["tunnel"] == {"lower": 2, "upper": 2}
        assert doc["conclusion"] == {"t": 2, "genus": 3, "rank": 3}

    def test_conclusion_is_nullable(self, torus_band):
        rep = report(torus_band, hull_exact(torus_band.diagram))
        doc = json.loads(report_to_json(rep))
        assert doc["conclusion"] is None
        assert doc["tunnel"] == {"lower": 1, "upper": 3}
