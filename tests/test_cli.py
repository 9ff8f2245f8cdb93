import atexit
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import bandlink
import bandlink.hull
from bandlink import (
    build_band, format_cmap, hull_constructive_band, load_band_spec, load_cmap, parse_trace,
    provenance_to_json, trace_to_json, validate,
)
from bandlink.band import MAX_CROSSINGS
from bandlink.cli import main, run
from bandlink.errors import ConstructionStuck
from bandlink.percolation import format_trace
from helpers import (
    FIXTURES, HUGE, LOOP1_SIDECAR, OVERLONG, TORUS_SIDECAR, oversized_witness_band, random_spec,
    sidecar,
)

TRIANGLE = str(FIXTURES / "triangle.cmap")
CURL = str(FIXTURES / "curl.cmap")
TORUS = str(FIXTURES / "torus.cmap")
LOOP1 = str(FIXTURES / "loop1.cmap")
CHAIN3 = str(FIXTURES / "chain3.json")
CURLBAND = str(FIXTURES / "curlband.json")
# A JSON array nested far deeper than the decoder's recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000
EMPTY_CMAP = "cmap v1\ngenus 0\ndarts 0\nalpha\nsigma\n"

# The top-level --help and every subcommand's, as CPython 3.10-3.13 all
# print them at 80 columns.
TOP_HELP = """\
usage: bandlink [-h]
                {validate,faces,strands,build-band,percolate,hull,report,render}
                ...

Command line front end.

positional arguments:
  {validate,faces,strands,build-band,percolate,hull,report,render}
    validate            check a map or band spec and print counts
    faces               list faces as dart and vertex walks
    strands             list straight-ahead strands
    build-band          build a band diagram from a spec
    percolate           close a coloring and report coverage
    hull                find a minimum percolating set
    report              bounds and conclusions from a hull
    render              draw a genus zero map as SVG

options:
  -h, --help            show this help message and exit
"""
HELP = {
    "validate": """\
usage: bandlink validate [-h] path

positional arguments:
  path

options:
  -h, --help  show this help message and exit
""",
    "faces": """\
usage: bandlink faces [-h] [--provenance PROVENANCE] path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --provenance PROVENANCE
                        sidecar JSON to annotate base faces
""",
    "strands": """\
usage: bandlink strands [-h] path

positional arguments:
  path

options:
  -h, --help  show this help message and exit
""",
    "build-band": """\
usage: bandlink build-band [-h] [-o OUT] [--provenance PROVENANCE] path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  -o OUT                write the diagram as a .cmap file
  --provenance PROVENANCE
                        write the provenance sidecar JSON
""",
    "percolate": """\
usage: bandlink percolate [-h] [--manual MANUAL] [--trace TRACE] path

positional arguments:
  path

options:
  -h, --help       show this help message and exit
  --manual MANUAL  starting vertices, e.g. '1,4'
  --trace TRACE    write the coloring trace (.json for JSON)
""",
    "hull": """\
usage: bandlink hull [-h] [--provenance PROVENANCE] [--constructive] path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --provenance PROVENANCE
                        sidecar JSON giving band context
  --constructive        band chain walk
""",
    "report": """\
usage: bandlink report [-h] [--provenance PROVENANCE] [--exact] [--json] path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --provenance PROVENANCE
                        sidecar JSON giving band context
  --exact               force the exhaustive search
  --json                print the report as JSON
""",
    "render": """\
usage: bandlink render [-h] [--provenance PROVENANCE]
                       [--trace TRACE | --manual MANUAL] [-o OUT]
                       path

positional arguments:
  path

options:
  -h, --help            show this help message and exit
  --provenance PROVENANCE
                        sidecar JSON to mark crossing kinds
  --trace TRACE         tint from a saved trace, checked by reclosing it
  --manual MANUAL       tint a fresh percolation run
  -o OUT                output file (default stdout)
""",
}


@pytest.fixture()
def built(tmp_path):
    """Build the 3-chain once per test: (map path, provenance path)."""
    out = tmp_path / "dl.cmap"
    prov = tmp_path / "dl.prov.json"
    code = main(["build-band", CHAIN3, "-o", str(out), "--provenance", str(prov)])
    assert code == 0
    return str(out), str(prov)


@pytest.fixture()
def torus_spec(tmp_path):
    """A band spec over fixtures/torus.cmap, one subdivision per edge: n=2, h=3."""
    (tmp_path / "torus.cmap").write_text(Path(TORUS).read_text())
    spec = tmp_path / "torus.json"
    spec.write_text(json.dumps({"map": "torus.cmap", "edges": [
        {"edge": 1, "subdivisions": 1}, {"edge": 2, "subdivisions": 1},
    ]}))
    return str(spec)


class TestValidate:
    def test_triangle(self, capsys):
        assert main(["validate", TRIANGLE]) == 0
        assert capsys.readouterr().out == "V=3 E=3 F=2 g=0\n"

    def test_band_spec_shows_components(self, capsys):
        assert main(["validate", CHAIN3]) == 0
        assert capsys.readouterr().out == "V=6 E=12 F=8 g=0 n=3\n"

    def test_torus(self, capsys):
        assert main(["validate", TORUS]) == 0
        assert capsys.readouterr().out == "V=1 E=2 F=1 g=1\n"

    def test_empty_map(self, tmp_path, capsys):
        (tmp_path / "empty.cmap").write_text(EMPTY_CMAP)
        assert main(["validate", str(tmp_path / "empty.cmap")]) == 0
        assert capsys.readouterr().out == "V=0 E=0 F=0 g=0\n"

    def test_disconnected_band_spec(self, tmp_path, capsys):
        (tmp_path / "two.cmap").write_text(
            "cmap v1\ngenus 0\ndarts 4\nalpha 2 1 4 3\nsigma 2 1 4 3\n"
        )
        spec = tmp_path / "two.json"
        spec.write_text('{"map": "two.cmap"}')
        assert main(["validate", str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the map has 2 components; it must be connected\n"

    def test_genera_is_a_usage_error(self, capsys):
        assert main(["validate", "--genera", "0", TRIANGLE]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --genera" in captured.err

    def test_non_integer_vertex_id_named(self, capsys):
        assert main(["percolate", TRIANGLE, "--manual", "x"]) == 2
        assert capsys.readouterr().err == "error: vertex id 'x' is not an integer\n"

    def test_missing_file(self, capsys):
        assert main(["validate", "no-such.cmap"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cmap"
        bad.write_text("cmap v1\ndarts 2\nalpha 2 1\nsigma 2 2\n")
        assert main(["validate", str(bad)]) == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        ["validate", "faces", "strands", "percolate", "hull", "report", "render"],
    )
    def test_wrong_genus_rejected_at_load(self, tmp_path, command, capsys):
        bad = tmp_path / "bad.cmap"
        bad.write_text(Path(TRIANGLE).read_text().replace("genus 0", "genus 1"))
        assert main([command, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: declared genus 1")

    @pytest.mark.parametrize("command,name", [
        (command, name)
        for command in ("validate", "faces", "strands", "percolate", "hull", "report", "render")
        for name in ("two.cmap", "two.json")
    ] + [("build-band", "two.json")])
    def test_disconnected_rejected_at_load(self, tmp_path, command, name, capsys):
        # Two one-edge circles, and a band spec over them.
        (tmp_path / "two.cmap").write_text("cmap v1\ndarts 4\nalpha 2 1 4 3\nsigma 2 1 4 3\n")
        (tmp_path / "two.json").write_text('{"map": "two.cmap"}')
        assert main([command, str(tmp_path / name)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the map has 2 components; it must be connected\n"


class TestFacesAndStrands:
    def test_faces(self, capsys):
        assert main(["faces", TRIANGLE]) == 0
        assert capsys.readouterr().out == (
            "face 1: darts 1 3 2 vertices 1 3 2\n"
            "face 2: darts 4 6 5 vertices 1 2 3\n"
        )

    def test_faces_of_a_band_spec_name_their_base_faces(self, capsys):
        assert main(["faces", CHAIN3]) == 0
        assert capsys.readouterr().out == (
            "face 1: darts 1 19 23 5 vertices 1 5 6 2\n"
            "face 2: darts 2 10 18 vertices 1 3 5 origin=2\n"
            "face 3: darts 3 7 13 9 vertices 1 2 4 3\n"
            "face 4: darts 4 6 vertices 1 2\n"
            "face 5: darts 8 24 16 vertices 2 6 4 origin=1\n"
            "face 6: darts 11 15 21 17 vertices 3 4 6 5\n"
            "face 7: darts 12 14 vertices 3 4\n"
            "face 8: darts 20 22 vertices 5 6\n"
        )

    def test_faces_with_provenance(self, built, capsys):
        path, prov = built
        assert main(["faces", path, "--provenance", prov]) == 0
        out = capsys.readouterr().out
        assert out.count("origin=") == 2

    def test_strands(self, capsys):
        assert main(["strands", CURL]) == 0
        assert capsys.readouterr().out == "strand 1: 1 2 4 3\n"

    def test_strands_need_valence_two_or_four(self, tmp_path, capsys):
        theta = tmp_path / "theta.cmap"
        theta.write_text("cmap v1\ndarts 6\nalpha 2 1 4 3 6 5\nsigma 3 6 5 2 1 4\n")
        assert main(["strands", str(theta)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vertex 1 has valence 3; strands need 2 or 4\n"


class TestBuildBand:
    def test_reports_counts(self, built, capsys):
        assert main(["build-band", CHAIN3]) == 0
        assert capsys.readouterr().out == "n=3 crossings=6\n"

    def test_written_map_revalidates(self, built, capsys):
        path, prov = built
        m = load_cmap(path)
        validate(m)
        doc = json.loads(Path(prov).read_text())
        assert doc["format"] == "bandlink-provenance v1"
        assert doc["n"] == 3

    def test_bad_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text("{}")
        assert main(["build-band", str(spec)]) == 2


class TestPercolate:
    def test_full_closure(self, built, capsys):
        path, _ = built
        assert main(["percolate", path, "--manual", "1,3"]) == 0
        assert capsys.readouterr().out == "percolates=true colored=6/6\n"

    def test_partial_closure_exits_three(self, built, capsys):
        path, _ = built
        assert main(["percolate", path]) == 3
        assert capsys.readouterr().out == "percolates=false colored=0/6\n"

    def test_unknown_vertex(self, capsys):
        assert main(["percolate", TRIANGLE, "--manual", "9"]) == 2

    def test_trace_files(self, built, tmp_path, capsys):
        path, _ = built
        text_path = tmp_path / "trace.txt"
        json_path = tmp_path / "trace.json"
        assert main(["percolate", path, "--manual", "1 3", "--trace", str(text_path)]) == 0
        assert main(["percolate", path, "--manual", "1 3", "--trace", str(json_path)]) == 0
        text_trace = parse_trace(text_path.read_text())
        json_trace = parse_trace(json_path.read_text())
        assert text_trace == json_trace
        assert text_trace.manual == (1, 3)


class TestHull:
    def test_exact_default(self, built, capsys):
        path, _ = built
        assert main(["hull", path]) == 0
        assert capsys.readouterr().out == "h=2 method=exact witness=1 3\n"

    def test_constructive_via_provenance(self, built, capsys):
        path, prov = built
        assert main(["hull", path, "--constructive", "--provenance", prov]) == 0
        assert capsys.readouterr().out == "h=2 method=constructive witness=1 3\n"

    def test_constructive_via_spec(self, capsys):
        assert main(["hull", CURLBAND, "--constructive"]) == 0
        assert capsys.readouterr().out == "h=1 method=constructive witness=2\n"

    def test_constructive_needs_band_context(self, built, capsys):
        path, _ = built
        assert main(["hull", path, "--constructive"]) == 2
        assert "provenance" in capsys.readouterr().err

    def test_empty_witness_prints_dash(self, capsys):
        assert main(["hull", CURL]) == 0
        assert capsys.readouterr().out == "h=0 method=exact witness=-\n"

    def test_budget_exit(self, built, monkeypatch, capsys):
        path, _ = built
        monkeypatch.setattr(bandlink.hull, "DEFAULT_BUDGET", 3)
        assert main(["hull", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: hull search spent ")
        assert captured.err.endswith(" face visits (budget 3)\n")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["hull", "report"])
    def test_budget_is_a_usage_error(self, command, capsys):
        assert main([command, CHAIN3, "--budget", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: unrecognized arguments: --budget 3\n")

    @pytest.mark.parametrize(
        "finder,flags",
        [("hull_exact", []), ("hull_constructive_band", ["--constructive"])],
        ids=["exact", "constructive"],
    )
    def test_unverified_witness_refused(self, finder, flags, monkeypatch, capsys):
        # Whatever produced it, a witness is printed only once a fresh
        # closure has checked it; vertex 1 alone does not percolate the 3-chain.
        monkeypatch.setattr(
            bandlink.hull, finder, lambda *a, **k: bandlink.hull.HullResult((1,), "stub")
        )
        assert main(["hull", CHAIN3, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: witness 1 does not percolate\n"

    @pytest.mark.parametrize(
        "command", [["hull", "--constructive"], ["report"]], ids=["hull", "report"]
    )
    def test_no_base_faces_to_walk(self, built, tmp_path, command, capsys):
        path, prov = built
        doc = json.loads(Path(prov).read_text())
        doc["face_provenance"] = [
            {"face": entry["face"], "kind": "internal"} for entry in doc["face_provenance"]
        ]
        internal = tmp_path / "internal.json"
        internal.write_text(json.dumps(doc))
        assert main([command[0], path, *command[1:], "--provenance", str(internal)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no base-derived faces to walk\n"

    def test_stuck_walk_prints_its_log(self, torus_spec, capsys):
        assert main(["hull", torus_spec, "--constructive"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        first, *log = captured.err.splitlines()
        assert first == "error: every start face led to a dead end"
        assert log and all(line.startswith("  ") for line in log)
        assert any("dead end" in line for line in log)

    @pytest.mark.parametrize(
        "command", [["hull", "--constructive"], ["report"]], ids=["hull", "report"]
    )
    def test_stuck_output_bytes(self, torus_spec, command, capsys):
        # The library's own error and log, written byte for byte.
        with pytest.raises(ConstructionStuck) as stuck:
            hull_constructive_band(build_band(load_band_spec(torus_spec)))
        exc = stuck.value
        assert main([command[0], torus_spec, *command[1:]]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: " + str(exc) + "\n" + "".join(
            "  " + line + "\n" for line in exc.log
        )

    def test_oversized_witness_is_logged(self, tmp_path, capsys):
        # report's walk concedes a start face whose witness has the wrong size.
        bd = oversized_witness_band()
        (tmp_path / "b.cmap").write_text(format_cmap(bd.diagram))
        (tmp_path / "edited.json").write_text(provenance_to_json(bd))
        args = ["report", str(tmp_path / "b.cmap"), "--provenance", str(tmp_path / "edited.json")]
        assert main(args) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: every start face led to a dead end\n")
        assert "  witness from face 16 has 3 vertices, expected 2\n" in captured.err


class TestReport:
    def test_conclusive(self, built, capsys):
        path, prov = built
        assert main(["report", path, "--provenance", prov]) == 0
        assert capsys.readouterr().out == (
            "n=3\n"
            "lower=2 upper=2 witness=1 3 method=constructive\n"
            "tunnel=2 genus=3 rank=3\n"
        )

    def test_exact_flag(self, built, capsys):
        path, prov = built
        assert main(["report", path, "--provenance", prov, "--exact"]) == 0
        assert "method=exact" in capsys.readouterr().out

    def test_gap_exits_three(self, torus_spec, capsys):
        assert main(["report", torus_spec, "--exact"]) == 3
        out = capsys.readouterr().out
        assert out.endswith("gap=2 no conclusion\n")

    def test_undercut_exits_three(self, tmp_path, capsys):
        prov = tmp_path / "torus.prov.json"
        prov.write_text(TORUS_SIDECAR)
        assert main(["report", TORUS, "--provenance", str(prov), "--exact"]) == 3
        assert capsys.readouterr().out == (
            "n=2\n"
            "lower=1 upper=0 witness=- method=exact\n"
            "contradiction: upper=0 is below the trusted lower=1; no conclusion\n"
        )

    def test_json_output(self, built, capsys):
        path, prov = built
        assert main(["report", path, "--provenance", prov, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["conclusion"] == {"t": 2, "genus": 3, "rank": 3}

    @pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["walk", "exact"])
    @pytest.mark.parametrize("path", [TRIANGLE, LOOP1], ids=["triangle", "loop1"])
    def test_plain_map_refused(self, path, exact, capsys):
        # A map alone has no circles to count, so no lower bound to report.
        assert main(["report", path, *exact]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: report needs a band spec or --provenance\n"

    @pytest.mark.parametrize("command", ["report", "build-band"])
    def test_edgeless_base_refused(self, tmp_path, command, capsys):
        # An empty band has no circles, so n - 1 certifies nothing.
        (tmp_path / "empty.cmap").write_text(EMPTY_CMAP)
        spec = tmp_path / "empty.json"
        spec.write_text('{"map": "empty.cmap"}')
        assert main([command, str(spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the base map has no edges; a band needs at least one\n"
        )

    @pytest.mark.parametrize("exact", [[], ["--exact"]], ids=["walk", "exact"])
    def test_dartless_sidecar_map_refused(self, tmp_path, exact, capsys):
        (tmp_path / "empty.cmap").write_text(EMPTY_CMAP)
        prov = tmp_path / "empty.prov.json"
        prov.write_text(sidecar(0, False, [], []))
        argv = ["report", str(tmp_path / "empty.cmap"), "--provenance", str(prov), *exact]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the map has no darts; a band diagram has at least one crossing\n"
        )

    def test_sidecar_of_a_map_that_is_not_4_regular(self, tmp_path, capsys):
        prov = tmp_path / "loop1.prov.json"
        prov.write_text(LOOP1_SIDECAR)
        assert main(["report", LOOP1, "--provenance", str(prov), "--exact"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: vertex 1 has valence 2; a band diagram is 4-regular\n"
        )


class TestRender:
    def test_stdout_svg(self, capsys):
        assert main(["render", TRIANGLE]) == 0
        assert capsys.readouterr().out.startswith("<svg")

    def test_file_output_with_trace(self, built, tmp_path, capsys):
        path, prov = built
        trace = tmp_path / "t.json"
        assert main(["percolate", path, "--manual", "1 3", "--trace", str(trace)]) == 0
        svg = tmp_path / "out.svg"
        assert (
            main(
                ["render", path, "--provenance", prov, "--trace", str(trace), "-o", str(svg)]
            )
            == 0
        )
        body = svg.read_text()
        assert body.count("#f4a261") == 2
        assert "#c0392b" in body

    def test_empty_map(self, tmp_path, capsys):
        (tmp_path / "empty.cmap").write_text(EMPTY_CMAP)
        assert main(["render", str(tmp_path / "empty.cmap")]) == 0
        assert capsys.readouterr().out == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="80" height="80" '
            'viewBox="0 0 80 80"></svg>\n'
        )

    def test_manual_tints_a_fresh_run(self, capsys):
        assert main(["render", TRIANGLE, "--manual", "1,3"]) == 0
        svg = capsys.readouterr().out
        assert svg.count("#f4a261") == 2 and "#ffffff" not in svg

    def test_trace_vertex_out_of_range(self, built, tmp_path, capsys):
        path, _ = built
        trace = tmp_path / "t.txt"
        trace.write_text("manual: 1 3\nstep 1 vertex 99 face 1\n")
        svg = tmp_path / "out.svg"
        assert main(["render", path, "--trace", str(trace), "-o", str(svg)]) == 2
        assert capsys.readouterr().err == (
            "error: trace has 'step 1 vertex 99 face 1' where the reclosure of its "
            "manual set has 'step 1 vertex 2 face 4'\n"
        )
        assert not svg.exists()

    # What percolate --trace writes for the 3-chain and manual set {1, 3}.
    C3_TRACE = [
        "manual: 1 3",
        "step 1 vertex 2 face 4",
        "step 1 vertex 4 face 7",
        "step 1 vertex 5 face 2",
        "step 2 vertex 6 face 1",
    ]
    M, E1, E2, E3, E4 = C3_TRACE
    # (id, edited trace, its first line that differs, what that line should be)
    EDITS = [
        ("manual-unsorted", ["manual: 3 1", E1, E2, E3, E4], "manual: 3 1", M),
        ("manual-repeated", ["manual: 1 1 3", E1, E2, E3, E4], "manual: 1 1 3", M),
        ("entry-dropped", [M, E1, E3, E4], E3, E2),
        ("entries-swapped", [M, E2, E1, E3, E4], E2, E1),
        ("wrong-face", [M, E1, E2, E3, "step 2 vertex 6 face 3"], "step 2 vertex 6 face 3", E4),
        ("wrong-step", [M, E1, E2, E3, "step 1 vertex 6 face 1"], "step 1 vertex 6 face 1", E4),
        ("truncated", [M, E1, E2, E3], "end of trace", E4),
        ("extra-entry", [*C3_TRACE, "step 3 vertex 1 face 1"], "step 3 vertex 1 face 1", "end of trace"),
    ]

    @pytest.mark.parametrize("suffix", [".txt", ".json"])
    @pytest.mark.parametrize(
        "lines,got,want", [pytest.param(*e[1:], id=e[0]) for e in EDITS]
    )
    def test_edited_trace_refused(self, built, tmp_path, suffix, lines, got, want, capsys):
        path, _ = built
        good = tmp_path / "good.txt"
        assert main(["percolate", path, "--manual", "1,3", "--trace", str(good)]) == 0
        assert good.read_text().splitlines() == self.C3_TRACE
        edited = parse_trace("\n".join(lines))
        trace = tmp_path / ("t" + suffix)
        trace.write_text(trace_to_json(edited) if suffix == ".json" else format_trace(edited))
        svg = tmp_path / "out.svg"
        assert main(["render", path, "--trace", str(trace), "-o", str(svg)]) == 2
        assert capsys.readouterr().err == (
            f"error: trace has {got!r} where the reclosure of its manual set has {want!r}\n"
        )
        assert not svg.exists()

    # Traces parse_trace reads and whose entries match the reclosure, but
    # which are not the text percolate --trace writes.
    LOOSE = [
        ("foreign-manual-line", "t.txt", lambda text: "manual: 99 100\n" + text,
         "manual: 99 100", "manual: 1 3"),
        ("trailing-blank-lines", "t.txt", lambda text: text + "\n\n", "", "end of trace"),
        ("interior-blank-line", "t.txt", lambda text: "{}\n{}\n\n{}".format(*text.split("\n", 2)),
         "", "step 1 vertex 4 face 7"),
        ("extra-json-fields", "t.json", lambda text: json.dumps(
            dict(json.loads(text), note="x",
                 steps=[dict(s, extra=0) for s in json.loads(text)["steps"]]),
            indent=2, sort_keys=True) + "\n",
         '  "note": "x",', '  "steps": ['),
    ]

    @pytest.mark.parametrize(
        "name,edit,got,want", [pytest.param(*e[1:], id=e[0]) for e in LOOSE]
    )
    def test_trace_must_be_written_text(self, built, tmp_path, name, edit, got, want, capsys):
        path, _ = built
        trace = tmp_path / name
        assert main(["percolate", path, "--manual", "1,3", "--trace", str(trace)]) == 0
        assert main(["render", path, "--trace", str(trace)]) == 0
        capsys.readouterr()
        trace.write_text(edit(trace.read_text()))
        svg = tmp_path / "out.svg"
        assert main(["render", path, "--trace", str(trace), "-o", str(svg)]) == 2
        assert capsys.readouterr().err == (
            f"error: trace has {got!r} where percolate --trace writes {want!r}\n"
        )
        assert not svg.exists()

    def test_one_tint_source(self, built, tmp_path, capsys):
        path, _ = built
        trace = tmp_path / "t.txt"
        assert main(["percolate", path, "--manual", "1,3", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["render", path, "--trace", str(trace), "--manual", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "error: argument --manual: not allowed with argument --trace\n"
        )

    def test_torus_rejected(self, capsys):
        assert main(["render", TORUS]) == 2
        assert "genus" in capsys.readouterr().err


class TestBadInputFiles:
    @pytest.mark.parametrize(
        "name,body",
        [
            pytest.param(name, body, id=name)
            for name, body in [
                ("manual-string.json", '{"manual": "x"}'),
                ("truncated.json", '{"manual": [1, 3], "steps": ['),
                ("manual-infinite.json", '{"manual": [Infinity]}'),
                ("no-vertex.json", '{"manual": [1], "steps": [{"step": 1, "face": 1}]}'),
                ("manual-word.txt", "manual: x\n"),
                ("step-word.txt", "manual: 1\nstep a vertex 2 face 1\n"),
                ("step-keyword.txt", "manual: 1\nstep 1 vert 2 face 1\n"),
                ("manual-digits.json", '{"manual": "13"}'),
                ("manual-float.json", '{"manual": [1.9, 3]}'),
                ("manual-bool.json", '{"manual": [true, 3]}'),
                ("manual-object.json", '{"manual": {"1": 3}}'),
                ("steps-object.json", '{"manual": [1], "steps": {}}'),
                (
                    "step-vertex-string.json",
                    '{"manual": [1], "steps": [{"step": 1, "vertex": "2", "face": 1}]}',
                ),
                (
                    "step-float.json",
                    '{"manual": [1], "steps": [{"step": 1.0, "vertex": 2, "face": 1}]}',
                ),
                (
                    "step-face-bool.json",
                    '{"manual": [1], "steps": [{"step": 1, "vertex": 2, "face": true}]}',
                ),
                ("manual-nested-deep.json", '{"manual": %s}' % DEEP),
                ("manual-long-string.json", json.dumps({"manual": [1, 2, "x" * 5000]})),
                ("step-long-line.txt", "manual: 1\nstep " + "x" * 5000 + "\n"),
                ("manual-huge-id.txt", f"manual: 1 {HUGE}\n"),
                ("manual-huge-id.json", f'{{"manual": [1, {HUGE}]}}'),
                ("manual-overlong-id.txt", f"manual: 1 {OVERLONG}\n"),
                ("manual-overlong-id.json", f'{{"manual": [1, {OVERLONG}]}}'),
                ("manual-fullwidth.txt", "manual: \uff13\n"),
                ("step-underscore.txt", "manual: 1 3\nstep 1 vertex 2 face 0_1\n"),
            ]
        ],
    )
    def test_bad_trace(self, tmp_path, name, body, capsys):
        trace = tmp_path / name
        trace.write_text(body)
        assert main(["render", TRIANGLE, "--trace", str(trace)]) == 2
        self.assert_one_error_line(capsys.readouterr(), tmp_path)

    @pytest.mark.parametrize(
        "body",
        [
            json.dumps({"map": 5}),
            json.dumps({"map": "base.cmap", "edges": 3}),
            json.dumps({"map": "base.cmap", "edges": [{"edge": 1.7, "subdivisions": 1}]}),
            json.dumps({"map": "base.cmap", "edges": [{"edge": 1, "twists": "0"}]}),
            '{"map": "base.cmap", "edges": %s}' % DEEP,
            '{"map": "base.cmap", "edges": [%s]}' % ("[" * 900 + "]" * 900),
            '{"map": "base.cmap", "edges": [{"edge": %s}]}' % HUGE,
            '{"map": "base.cmap", "edges": [{"edge": 1, "subdivisions": -%s}]}' % HUGE,
            '{"map": "base.cmap", "edges": [{"edge": 1, "twists": [-%s]}]}' % HUGE,
            '{"map": "base.cmap", "edges": [{"edge": %s}]}' % OVERLONG,
            # Over the crossing cap; nothing may be allocated or built first.
            json.dumps({"map": "base.cmap", "edges": [{"edge": 1, "subdivisions": 10**30}]}),
            json.dumps({"map": "base.cmap", "edges": [
                {"edge": 1, "subdivisions": 0, "twists": [10**30]}]}),
            # The triangle's three clasps are 6 crossings.
            json.dumps({"map": "base.cmap", "edges": [
                {"edge": 1, "twists": [MAX_CROSSINGS - 6 + 1]}]}),
            # "twists" misspelt: refused, not built untwisted.
            json.dumps({"map": "base.cmap", "edges": [
                {"edge": 1, "subdivisions": 1, "twist": [3, 0]}]}),
        ],
        ids=[
            "map-number", "edges-number", "edge-float", "twists-string",
            "edges-nested-deep", "edge-entry-nested-900", "edge-huge",
            "subdivisions-huge", "twist-huge", "edge-overlong", "subdivisions-over-cap",
            "twists-over-cap", "one-over-cap", "twist",
        ],
    )
    def test_bad_spec(self, tmp_path, body, capsys):
        (tmp_path / "base.cmap").write_text(Path(TRIANGLE).read_text())
        spec = tmp_path / "spec.json"
        spec.write_text(body)
        assert main(["build-band", str(spec)]) == 2
        self.assert_one_error_line(capsys.readouterr(), tmp_path)

    @pytest.mark.parametrize(
        "subdivisions,total",
        [
            ((49_998,), 100_002), ((50_000,), 100_006), ((50_001,), 100_002),
            ((0, 0, 49_999), 100_004),
        ],
        ids=["spec-over", "early-at-cap", "early-over", "early-counts-points-only"],
    )
    def test_crossing_cap_boundary(self, tmp_path, capsys, subdivisions, total):
        # load_band_spec counts 2 crossings per subdivision point before it
        # makes the default twist lists; BandSpec then adds the triangle's 6
        # clasp crossings.  The total in the message says which check fired:
        # the early one only at 50,001 points (100,002), where BandSpec
        # would have said 100,008.  An edge with no points adds nothing to
        # the early count.
        (tmp_path / "base.cmap").write_text(Path(TRIANGLE).read_text())
        spec = tmp_path / "spec.json"
        edges = [{"edge": e, "subdivisions": k} for e, k in enumerate(subdivisions, start=1)]
        spec.write_text(json.dumps({"map": "base.cmap", "edges": edges}))
        assert main(["build-band", str(spec)]) == 2
        assert capsys.readouterr() == (
            "", f"error: the spec asks for {total} crossings; at most 100000 are built\n"
        )

    def test_crossing_cap_admits_its_own_count(self, tmp_path):
        # 49,997 points: 100,000 crossings, loaded (and not built here).
        (tmp_path / "base.cmap").write_text(Path(TRIANGLE).read_text())
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"map": "base.cmap", "edges": [{"edge": 1, "subdivisions": 49_997}]}))
        assert load_band_spec(spec).subdivisions == (49_997, 0, 0)

    @pytest.mark.parametrize(
        "argv,name,body",
        [
            (["validate", "{}"], "bad.cmap", b"cmap v1\n\xff\n"),
            (["validate", "{}"], "bad.json", b'{"map": "\xff"}'),
            (["validate", "{}"], "nul.json", b'{"map": "base\\u0000.cmap"}'),
            (["faces", "{map}", "--provenance", "{}"], "bad.json", b'{"n": "\xff"}'),
            (["render", "{map}", "--trace", "{}"], "bad.txt", b"manual: 1\xff\n"),
        ],
        ids=["cmap", "spec", "spec-map-nul", "provenance", "trace"],
    )
    def test_undecodable_input(self, built, tmp_path, argv, name, body, capsys):
        (tmp_path / name).write_bytes(body)
        argv = [a.format(str(tmp_path / name), map=built[0]) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        self.assert_one_error_line(captured, tmp_path)
        # The line names the file at fault.
        assert captured.err.startswith(f"error: {tmp_path / name}: ")

    @pytest.mark.parametrize("via_spec", [False, True], ids=["cmap", "spec"])
    def test_parse_error_names_the_map(self, tmp_path, via_spec, capsys):
        bad = tmp_path / "bad.cmap"
        bad.write_text("cmap v1\ndarts x\n")
        path = bad
        if via_spec:
            path = tmp_path / "spec.json"
            path.write_text('{"map": "bad.cmap"}')
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        self.assert_one_error_line(captured, tmp_path)
        # The line names the map file, also when a spec points at it.
        assert captured.err.startswith(f"error: {bad}: line 2: ")

    @pytest.mark.parametrize("command", ["faces", "hull", "report", "render"])
    def test_provenance_with_band_spec_refused(self, tmp_path, command, capsys):
        # The sidecar is refused before it is opened, so it need not exist.
        missing = str(tmp_path / "missing.json")
        assert main([command, CHAIN3, "--provenance", missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --provenance goes with a .cmap path, not a band spec\n"

    @pytest.mark.parametrize("command", ["percolate", "render"])
    @pytest.mark.parametrize(
        "manual",
        [f"1,{HUGE}", "1," + "x" * 3000, "\uff13", "0_3"],
        ids=["huge-id", "long-word", "fullwidth-id", "underscore-id"],
    )
    def test_bad_manual(self, tmp_path, command, manual, capsys):
        assert main([command, TRIANGLE, "--manual", manual]) == 2
        self.assert_one_error_line(capsys.readouterr(), tmp_path)

    @staticmethod
    def assert_one_error_line(captured, tmp_path):
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        # Echoed input values are clipped; only the file's own path is not.
        assert len(captured.err.replace(str(tmp_path), "").encode()) < 200


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["validate", TRIANGLE, "--frob"]) == 1

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_text(self, command, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert main([command, "--help"]) == 0
        assert capsys.readouterr().out == HELP[command]

    def test_top_level_help_text(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["--help"]) == 0
        assert capsys.readouterr().out == TOP_HELP


def _fresh_modules(cwd, argv=None) -> set[str]:
    """The modules a fresh interpreter holds after ``bandlink <argv>``, or
    after nothing at all when ``argv`` is None."""
    run = "from bandlink.cli import main; main(sys.argv[1:]); " if argv is not None else ""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; {run}print(*sys.modules)", *(argv or ())],
        cwd=cwd, capture_output=True, text=True, timeout=60, check=True,
        env=dict(os.environ, PYTHONPATH=str(Path(bandlink.__file__).parents[1])),
    )
    return set(proc.stdout.splitlines()[-1].split())


class TestStartup:
    """A call imports only the layers its command runs, and never dataclasses."""

    CMAP_ONLY = {"bandlink", "bandlink.cli", "bandlink.cmap", "bandlink.errors"}
    COMMANDS = [
        (["--help"], CMAP_ONLY - {"bandlink.cmap"}),
        (["validate", TRIANGLE], CMAP_ONLY),
        (["faces", CURL], CMAP_ONLY),
        (["strands", TRIANGLE], None),
        (["build-band", CHAIN3, "-o", "out.cmap"], None),
        (["percolate", TRIANGLE, "--manual", "1,3"], None),
        (["hull", CHAIN3, "--constructive"], None),
        (["report", CHAIN3], None),
        (["render", TRIANGLE, "-o", "out.svg"], CMAP_ONLY | {"bandlink.render"}),
    ]

    @pytest.fixture(scope="class")
    def bare(self, tmp_path_factory):
        return _fresh_modules(tmp_path_factory.mktemp("bare"))

    # A hull on a map, not a band, never loads the band layer.
    HULL_CMAP = CMAP_ONLY | {"bandlink.hull", "bandlink.percolation"}

    @pytest.mark.parametrize(
        "argv,own",
        [pytest.param(argv, own, id=argv[0]) for argv, own in COMMANDS]
        + [
            pytest.param(["hull", TORUS], HULL_CMAP, id="hull-cmap"),
            # A walk that dead-ends has no report to make, so no bounds layer.
            pytest.param(
                ["report", "torus.json"],
                HULL_CMAP | {"bandlink.band"},
                id="report-dead-end",
            ),
        ],
    )
    @pytest.mark.usefixtures("torus_spec")
    def test_extra_modules(self, argv, own, bare, tmp_path):
        extra = _fresh_modules(tmp_path, argv) - bare
        assert "bandlink.cli" in extra and "dataclasses" not in extra
        if own is not None:
            assert {name for name in extra if name.startswith("bandlink")} == own

    @pytest.mark.parametrize("argv", [
        ["hull", TRIANGLE],
        ["percolate", TRIANGLE, "--manual", "1,3"],
        ["render", TRIANGLE, "--manual", "1"],
    ], ids=lambda a: a[0])
    def test_json_loaded_only_to_read_or_write_it(self, argv, tmp_path):
        assert "json" not in _fresh_modules(tmp_path, argv)


# The two ways into a fresh interpreter: through run, and through main.
VIA_RUN = ["-m", "bandlink.cli"]
VIA_MAIN = ["-c", "import sys; from bandlink.cli import main; sys.exit(main(sys.argv[1:]))"]


def _process(head, argv, cwd, stdout=subprocess.PIPE, unbuffered=False):
    """``python <head> <argv>`` in ``cwd``, with this package importable."""
    env = dict(os.environ, PYTHONPATH=str(Path(bandlink.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, *head, *argv], cwd=cwd, env=env, stdout=stdout,
        stderr=subprocess.PIPE, timeout=60,
    )


class TestProcessExit:
    """A process leaves through ``run``: the exit handlers, a flush, then
    ``os._exit``.  Seen from outside it is ``sys.exit(main())``."""

    @pytest.mark.parametrize("argv,code", [
        pytest.param(["--help"], 0, id="help"),
        pytest.param(["frobnicate"], 1, id="usage"),
        pytest.param(["validate", "missing.cmap"], 2, id="missing-file"),
        pytest.param(["percolate", CHAIN3, "--manual", "1"], 3, id="no-percolation"),
        pytest.param(["report", "torus.json"], 4, id="stuck-walk"),
    ])
    @pytest.mark.usefixtures("torus_spec")
    def test_same_output_and_exit_code_as_main(self, argv, code, tmp_path):
        via_run = _process(VIA_RUN, argv, tmp_path)
        via_main = _process(VIA_MAIN, argv, tmp_path)
        assert via_run.returncode == code
        assert via_run.stdout or via_run.stderr
        assert (via_run.stdout, via_run.stderr, via_run.returncode) == (
            via_main.stdout, via_main.stderr, via_main.returncode,
        )

    def test_written_file_is_whole(self, tmp_path):
        argv = ["render", CHAIN3, "--manual", "1", "-o"]
        assert _process(VIA_RUN, [*argv, "run.svg"], tmp_path).returncode == 0
        assert main([*argv, str(tmp_path / "main.svg")]) == 0
        assert (tmp_path / "run.svg").read_bytes() == (tmp_path / "main.svg").read_bytes()

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_reader(self, unbuffered, tmp_path):
        # Unbuffered, the write fails inside main (exit 2, one error line);
        # buffered, the flush at exit fails and the interpreter reports it.
        seen = []
        for head in (VIA_RUN, VIA_MAIN):
            reader, writer = os.pipe()
            os.close(reader)
            try:
                proc = _process(head, ["faces", CURL], tmp_path, writer, unbuffered)
            finally:
                os.close(writer)
            seen.append((proc.stderr, proc.returncode))
        assert seen[0] == seen[1]
        assert seen[0][1] == (2 if unbuffered else 120)
        assert b"Broken pipe" in seen[0][0]

    def test_exit_handlers_run_once(self, tmp_path):
        code = (
            "import atexit; from bandlink.cli import run; "
            "atexit.register(print, 'handler ran'); run()"
        )
        proc = _process(["-c", code], ["validate", TRIANGLE], tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, b"V=3 E=3 F=2 g=0\nhandler ran\n", b"",
        )

    @pytest.mark.parametrize("flush_fails", [False, True], ids=["flushed", "flush-fails"])
    def test_steps_in_order(self, flush_fails, monkeypatch):
        # In process, with every way out recorded: main's code leaves through
        # os._exit, or through sys.exit when a flush raises.
        steps = []

        class Stream(io.StringIO):
            def flush(self):
                steps.append("flush")
                if flush_fails:
                    raise BrokenPipeError(32, "Broken pipe")

        class Left(Exception):
            pass

        def leave(how):
            def record(code):
                steps.append((how, code))
                raise Left
            return record

        monkeypatch.setattr(sys, "argv", ["bandlink", "percolate", CHAIN3, "--manual", "1"])
        monkeypatch.setattr(sys, "stdout", Stream())
        monkeypatch.setattr(sys, "stderr", Stream())
        monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: steps.append("atexit"))
        monkeypatch.setattr(os, "_exit", leave("os._exit"))
        monkeypatch.setattr(sys, "exit", leave("sys.exit"))
        with pytest.raises(Left):
            run()
        assert sys.stdout.getvalue() == "percolates=false colored=2/6\n"
        if flush_fails:
            assert steps == ["atexit", "flush", ("sys.exit", 3)]
        else:
            assert steps == ["atexit", "flush", "flush", ("os._exit", 3)]

    def test_console_script_enters_through_run(self):
        text = (FIXTURES.parent / "pyproject.toml").read_text(encoding="utf-8")
        assert re.search(r'^bandlink = "bandlink\.cli:run"$', text, re.M)


class TestDeterminism:
    COMMANDS = [
        ["validate", TRIANGLE],
        ["faces", TRIANGLE],
        ["strands", TRIANGLE],
        ["build-band", CHAIN3],
        ["hull", CHAIN3],
        ["hull", CHAIN3, "--constructive"],
        ["report", CHAIN3, "--json"],
        ["render", TRIANGLE],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a[:2]))
    def test_repeat_runs_match(self, argv, capsys):
        assert main(list(argv)) in (0, 3)
        first = capsys.readouterr()
        assert main(list(argv)) in (0, 3)
        second = capsys.readouterr()
        assert first.out == second.out


class TestMutationFuzz:
    """Seeded mutations (character edits, JSON value swaps) of every file the CLI reads.

    Each mutated file goes through ``main()``; whatever it does to the
    input, the command must end with a documented exit code.  A spec with a
    mangled key is refused, so few mutated specs build; the two spec sources
    and 1,500 cases keep more than 100 mutations reaching past the parsers.
    """

    CASES = 1500
    CMAPS = ("triangle.cmap", "curl.cmap", "loop1.cmap", "chain2_base.cmap", "torus.cmap")
    SPECS = ("chain3.json", "curlband.json")
    ALPHABET = "0123456789-+.eE[]{}\",: \nabcgnrsvx"
    # A "value" edit swaps one number, string or literal for one of these,
    # so that the document stays valid while a field gets the wrong type.
    SCALAR = re.compile(r'-?\d+|"[^"\n]*"|true|false|null')
    TOKENS = ("1.5", "-1", "0", "1e9", "true", "null", '"1"', "[]", "{}", "[1]")
    CMAP_COMMANDS = (
        ["validate"],
        ["faces"],
        ["report"],
        ["render", "-o", "out.svg"],
        ["percolate", "--manual", "1"],
    )

    @classmethod
    def mutate(cls, rng, text: str) -> str:
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(("insert", "delete", "replace", "value"))
            if op == "value":
                spans = [m.span() for m in cls.SCALAR.finditer(text)]
                if spans:
                    a, b = rng.choice(spans)
                    text = text[:a] + rng.choice(cls.TOKENS) + text[b:]
                continue
            i = rng.randrange(len(text) + 1)
            if op == "insert" or i == len(text):
                text = text[:i] + rng.choice(cls.ALPHABET) + text[i:]
            elif op == "delete":
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + rng.choice(cls.ALPHABET) + text[i + 1:]
        return text

    def test_mutated_inputs_exit_cleanly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name in self.CMAPS + self.SPECS:
            (tmp_path / name).write_text((FIXTURES / name).read_text())
        assert main(["build-band", "chain3.json", "-o", "c3.cmap",
                     "--provenance", "c3.prov.json"]) == 0
        assert main(["percolate", "c3.cmap", "--manual", "1,3", "--trace", "t.txt"]) == 0
        assert main(["percolate", "c3.cmap", "--manual", "1,3", "--trace", "t.json"]) == 0

        # (file to mutate, the commands that read it, the mutated file's name)
        sources = [
            (name, [cmd[:1] + ["m.cmap"] + cmd[1:] for cmd in self.CMAP_COMMANDS], "m.cmap")
            for name in self.CMAPS
        ]
        sources += [
            (name,
             [["build-band", "m.json", "-o", "o.cmap", "--provenance", "o.json"],
              ["report", "m.json"]],
             "m.json")
            for name in self.SPECS
        ]
        sources += [
            ("c3.prov.json",
             [["faces", "c3.cmap", "--provenance", "m.json"],
              ["report", "c3.cmap", "--provenance", "m.json"],
              ["render", "c3.cmap", "--provenance", "m.json", "-o", "out.svg"]],
             "m.json"),
            ("t.txt", [["render", "c3.cmap", "--trace", "m.txt", "-o", "out.svg"]], "m.txt"),
            ("t.json", [["render", "c3.cmap", "--trace", "m.json", "-o", "out.svg"]], "m.json"),
        ]
        texts = {name: (tmp_path / name).read_text() for name, _, _ in sources}
        rng = random.Random(2024)
        codes = Counter()
        for case in range(self.CASES):
            name, commands, target = sources[case % len(sources)]
            text = self.mutate(rng, texts[name])
            (tmp_path / target).write_text(text)
            argv = commands[(case // len(sources)) % len(commands)]
            try:
                code = main(argv)
            except Exception as exc:  # report which input let it escape
                pytest.fail(f"{' '.join(argv)} on mutated {name} raised {exc!r}: {text!r}")
            capsys.readouterr()
            assert code in (0, 2, 3, 4), (argv, name, text)
            codes[code] += 1
        # The mutations reach past the parsers as well as into their errors.
        assert codes[0] > 100 and codes[2] > 100


class TestSpecValueFuzz:
    """Seeded value edits of band specs that stay valid JSON with known keys.

    Unlike a character edit, each edit keeps the document readable, so every
    case reaches the spec checks and many reach the builder and the walk.
    One edit per case: one edge's ``subdivisions`` or one twist count set
    within -1..3, one twist list an entry short or long, one ``edge`` id
    moved within 0..E+1, or one entry listed twice.  ``build-band`` and
    ``report`` must each end with a documented exit code and no traceback,
    an exit 2 with exactly one ``error:`` line.
    """

    CASES = 200
    SPECS = ("chain3.json", "curlband.json")

    @staticmethod
    def edit(rng, doc: dict) -> dict:
        doc = json.loads(json.dumps(doc))
        edges = doc["edges"]
        entry = rng.choice(edges)
        op = rng.choice(("subdivisions", "twist", "twists", "edge", "duplicate"))
        if op == "subdivisions":
            # Half the time the twists go too, so that their default fits.
            entry["subdivisions"] = rng.randint(-1, 3)
            if rng.random() < 0.5:
                del entry["twists"]
        elif op == "twist":
            entry["twists"][rng.randrange(len(entry["twists"]))] = rng.randint(-1, 3)
        elif op == "twists":
            if rng.random() < 0.5:
                entry["twists"].pop()
            else:
                entry["twists"].append(rng.randint(0, 3))
        elif op == "edge":
            entry["edge"] = rng.randint(0, len(edges) + 1)
        else:
            edges.insert(rng.randrange(len(edges) + 1), dict(entry))
        return doc

    def test_edited_specs_exit_cleanly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        docs = []
        for name in self.SPECS:
            doc = json.loads((FIXTURES / name).read_text())
            (tmp_path / doc["map"]).write_text((FIXTURES / doc["map"]).read_text())
            docs.append(doc)
        rng = random.Random(2025)
        for i, genus in enumerate((0, 0, 0, 0, 1, 1)):
            spec = random_spec(rng, cap=rng.randint(14, 22), want_genus=genus)
            (tmp_path / f"r{i}.cmap").write_text(format_cmap(spec.base))
            docs.append({"map": f"r{i}.cmap", "edges": [
                {"edge": e, "subdivisions": k, "twists": list(t)}
                for e, (k, t) in enumerate(zip(spec.subdivisions, spec.twists), start=1)
            ]})
        codes = Counter()
        for case in range(self.CASES):
            doc = self.edit(rng, docs[case % len(docs)])
            (tmp_path / "m.json").write_text(json.dumps(doc))
            for argv in (["build-band", "m.json", "-o", "o.cmap"], ["report", "m.json"]):
                try:
                    code = main(argv)
                except Exception as exc:  # report which spec let it escape
                    pytest.fail(f"{' '.join(argv)} on {doc} raised {exc!r}")
                err = capsys.readouterr().err
                assert code in (0, 2, 3, 4) and "Traceback" not in err, (argv, doc, err)
                if code == 2:
                    assert err.startswith("error: ") and err.count("\n") == 1, (argv, doc, err)
                codes[argv[0], code] += 1
        # The edits reach the builder and the walk, not only the spec checks:
        # 106 of the 400 runs exit 0, 3 or 4 (53 builds; 41 reports exit 0
        # and 12 dead-end).
        assert sum(n for (_, code), n in codes.items() if code != 2) > 80
