"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import checks
import gen
import workloads
from reference import Diagram
from run import ROOT, SRC, run_child, tail

sys.path.insert(0, SRC)
from bandlink import (  # noqa: E402
    BandSpec,
    CombinatorialMap,
    build_band,
    close,
    derived_genus,
    faces,
    format_cmap,
    hull_exact,
    load_band_spec,
)


def _map(alpha, sigma, genus):
    return CombinatorialMap(len(alpha), tuple(alpha), tuple(sigma), genus)


@pytest.mark.parametrize("w", [3, 5, 12])
def test_medial_grids_have_the_grid_genus(w):
    for torus, genus in ((False, 0), (True, 1)):
        alpha, sigma = gen.medial(*gen.grid(w, torus))
        assert gen.genus_of(alpha, sigma) == genus
        assert derived_genus(_map(alpha, sigma, genus)) == genus
        assert all(len(ring) == 4 for ring in gen.orbits(sigma))


def test_medial_12_band_has_the_roadmap_size():
    spec = gen.medial_band("m12", 12)
    assert (spec.n, spec.crossings) == (528, 2112)


def _built(spec: gen.Spec, tmp_path):
    spec.write(tmp_path)
    return build_band(load_band_spec(tmp_path / f"{spec.name}.json"))


def test_relabelled_specs_build_the_same_band(tmp_path):
    rng = random.Random(3)
    template = random.Random(workloads.EXACT_TEMPLATE_SEED)
    for spec in [gen.small_spec("s", template, g, 18) for g in (0, 1, 0, 1)] + [
        gen.medial_band("p", 3, False, rng, 2, 4)
    ]:
        copy = spec.relabelled(rng)
        a, b = _built(spec, tmp_path), _built(copy, tmp_path)
        assert (a.n, a.diagram.vertex_count) == (b.n, b.diagram.vertex_count)
        assert (a.n, a.diagram.vertex_count) == (spec.n, spec.crossings)
        if spec.crossings <= 14:
            assert hull_exact(a.diagram).size == hull_exact(b.diagram).size


def _fixture_band(name):
    return build_band(load_band_spec(os.path.join(ROOT, "fixtures", name)))


@pytest.mark.parametrize("band", ["chain3.json", "curlband.json", 4, 5])
def test_reference_closure_matches_the_program_on_every_subset(band, tmp_path):
    bd = (_fixture_band(band) if isinstance(band, str)
          else _built(gen.chain(f"chain{band}", band), tmp_path))
    ref = Diagram.from_text(format_cmap(bd.diagram))
    m, fl = bd.diagram, faces(bd.diagram)
    vertices = range(1, m.vertex_count + 1)
    for size in range(m.vertex_count + 1):
        for subset in itertools.combinations(vertices, size):
            coloring, _ = close(m, fl, subset)
            assert ref.closure(subset) == set(coloring.colored)


def test_reference_faces_and_strands_match_the_program():
    bd = _fixture_band("curlband.json")
    ref = Diagram.from_text(format_cmap(bd.diagram))
    assert ref.face_walks == [list(f.vertex_list) for f in faces(bd.diagram)]
    assert ref.strand_count() == bd.n


def test_report_check_rejects_a_witness_that_does_not_percolate():
    bd = build_band(BandSpec(_map(*gen.circle(3), 0), (0, 0, 0), ((0,), (0,), (0,))))
    ref = Diagram.from_text(format_cmap(bd.diagram))
    op = workloads.Op("r", ["report", "x.json"])
    good = "n=3\nlower=2 upper=2 witness=1 3 method=constructive\ntunnel=2 genus=3 rank=3\n"
    assert checks.check(op, op.argv, 0, good, "", {}, ref, 3, "constructive").problems == []
    bad = good.replace("witness=1 3", "witness=1 2")
    problems = checks.check(op, op.argv, 0, bad, "", {}, ref, 3, "constructive").problems
    assert any("does not percolate" in p for p in problems)
    wrong_cert = good.replace("genus=3", "genus=2")
    assert checks.check(op, op.argv, 0, wrong_cert, "", {}, ref, 3, "constructive").problems


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(range(100)) == (89, 90.0)
    assert tail(range(10)) == (9, 100.0)


def test_an_op_past_its_timeout_is_killed_and_reaped(tmp_path):
    elapsed, code, _, _, _ = run_child(["--help"], str(tmp_path), 0.001)
    assert code is None and elapsed < 5
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_output_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = _bench("--workload", "cli-small", "--seed", "5", "--seconds", "1",
                     "--trace", str(trace))
        assert res.returncode == 0, res.stderr
        result = json.loads(res.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert {m["name"]: m["unit"] for m in doc[key]} == {
            name: m["unit"] for name, m in result["metrics"].items()
        }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = _bench("--workload", "medial-12", "--seed", "0", "--seconds", "25", "--trace", "0",
                 cwd=str(tmp_path))
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
