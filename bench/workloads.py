"""The four workloads: seeded inputs written to a work directory, plus the
CLI operations a closed-loop client runs over them, in order.

An op's argv may hold ``@witness:<key>``, replaced at run time by the
witness the op with that key printed last.
"""

from __future__ import annotations

import json
import os
import random
import shutil
from dataclasses import dataclass, field

import gen
from reference import read_cmap

# The exact-small specs are drawn once from this fixed stream; the workload
# seed only relabels them.  Relabelling keeps every hull number, so a
# seed changes which subsets the search meets first but not how big the
# search is.  Drawing fresh shapes per seed moved the batch's search time
# from 5 s to 16 s between seeds.
EXACT_TEMPLATE_SEED = 7


@dataclass
class Band:
    """A band spec input and what its report must satisfy."""

    spec: gen.Spec
    method: str  # hull method the workload's report uses: constructive or exact
    expect: tuple[int, ...]  # allowed report exit codes
    exact_budget: int | None = None  # cap for the traced exact search, if any

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass
class Op:
    key: str
    argv: list[str]
    expect: tuple[int, ...] = (0,)
    band: str | None = None  # name of the band the op is about
    target: str | None = None  # map file the output refers to
    writes: tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    bands: list[Band] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    fixtures: tuple[str, ...] = ()  # files copied from fixtures/
    files: dict[str, str] = field(default_factory=dict)  # other input files

    def band(self, name: str) -> Band:
        return next(b for b in self.bands if b.name == name)


def _pipeline(w: Workload, b: str, trace: str = ".trace"):
    """build-band, then report/percolate/render over the written diagram."""
    cm, prov, tr = f"{b}.cmap", f"{b}.prov.json", f"{b}{trace}"
    w.ops += [
        Op(f"{b}:build", ["build-band", f"{b}.json", "-o", cm, "--provenance", prov],
           band=b, target=cm, writes=(cm, prov)),
        Op(f"{b}:report", ["report", cm, "--provenance", prov], band=b, target=cm),
        Op(f"{b}:percolate", ["percolate", cm, "--manual", f"@witness:{b}:report",
                              "--trace", tr], band=b, target=cm, writes=(tr,)),
        Op(f"{b}:render", ["render", cm, "--provenance", prov, "--trace", tr,
                           "-o", f"{b}.svg"], band=b, target=cm, writes=(f"{b}.svg",)),
    ]


def medial_12(seed: int, root: str) -> Workload:
    """The ROADMAP's target instance, fixed: relabelling it moves the walk
    between 7 and 14 s, which would swamp any change being measured."""
    w = Workload("medial-12")
    w.bands.append(Band(gen.medial_band("m12", 12), "constructive", (0,), 200_000))
    _pipeline(w, "m12", trace=".trace.json")
    # Cheap reads of the written diagram: with them the median op falls among
    # five similar short calls, not on the mean of two percolate calls.
    w.ops += [
        Op("m12:validate", ["validate", "m12.cmap"], band="m12", target="m12.cmap"),
        Op("m12:faces", ["faces", "m12.cmap", "--provenance", "m12.prov.json"],
           band="m12", target="m12.cmap"),
        Op("m12:strands", ["strands", "m12.cmap"], band="m12", target="m12.cmap"),
    ]
    return w


def medial_twisted(seed: int, root: str) -> Workload:
    rng = random.Random(seed)
    w = Workload("medial-twisted")
    # Two relabellings of the 5x5 torus put the median op among the torus
    # walks, whose cost hardly moves with the seed; the plane walks' cost
    # does (0.03 to 0.7 s at 5x5).
    for name, size, torus, double, twisted in (
        ("p5", 5, False, 3, 8),
        ("p6", 6, False, 4, 12),
        ("t5a", 5, True, 0, 0),
        ("t5b", 5, True, 0, 0),
        ("t6", 6, True, 0, 0),
    ):
        spec = gen.medial_band(name, size, torus, rng, double, twisted).relabelled(rng)
        # A stuck walk (exit 4) on the plane is a weakness to count, not a
        # failure; on the torus it is the documented answer.
        w.bands.append(Band(spec, "constructive", (4,) if torus else (0, 4), 100_000))
    for b in w.bands:
        w.ops.append(Op(f"{b.name}:report", ["report", f"{b.name}.json"], b.expect, band=b.name))
    return w


def exact_small(seed: int, root: str) -> Workload:
    template = random.Random(EXACT_TEMPLATE_SEED)
    specs = [gen.small_spec(f"s0_{i:02d}", template, 0, 24) for i in range(12)]
    specs += [gen.small_spec(f"s1_{i:02d}", template, 1, 22) for i in range(12)]
    specs += [gen.chain(f"chain{k}", k) for k in (7, 8, 9)]
    rng = random.Random(seed)
    w = Workload("exact-small")
    for spec in specs:
        # Genus 0 must reach h = n - 1; genus 1 may exceed it (exit 3).
        expect = (0,) if spec.genus == 0 else (0, 3)
        w.bands.append(Band(spec.relabelled(rng), "exact", expect))
    for b in w.bands:
        w.ops.append(Op(f"{b.name}:report", ["report", f"{b.name}.json", "--exact"],
                        b.expect, band=b.name))
    return w


FIXTURE_FILES = (
    "chain3.json", "curlband.json", "triangle.cmap", "curl.cmap",
    "torus.cmap", "loop1.cmap", "chain2_base.cmap",
)


def _fixture(root: str, name: str) -> gen.Spec:
    """The spec a fixture band JSON describes, read without ``bandlink``."""
    directory = os.path.join(root, "fixtures")
    with open(os.path.join(directory, name + ".json")) as fh:
        doc = json.load(fh)
    with open(os.path.join(directory, doc["map"])) as fh:
        alpha, sigma, genus = read_cmap(fh.read())
    edges = gen.edge_pairs(alpha)
    extra = {
        edges[e["edge"] - 1]: (e["subdivisions"], e["twists"]) for e in doc["edges"]
    }
    return gen.Spec(name, alpha, sigma, genus, extra)


def cli_small(seed: int, root: str) -> Workload:
    rng = random.Random(seed)
    w = Workload("cli-small", fixtures=FIXTURE_FILES,
                 files={"bad.cmap": "cmap v1\ndarts 3\nalpha 1 2 3\nsigma 1 2 3\n"})
    small, mid, k1, k2 = rng.randint(3, 6), *rng.sample(range(7, 41), 3)
    piped = [_fixture(root, "chain3"), _fixture(root, "curlband"),
             gen.chain(f"chain{small}", small), gen.chain(f"chain{mid}", mid),
             gen.medial_band("medial3", 3)]
    w.bands = [Band(s, "constructive", (0,), 100_000) for s in piped]
    # Relabelled copies: the walk's success depends on the dart labels (a
    # relabelled 12-chain gets stuck more often than not), so a stuck walk
    # here is counted as uncertified, not as a failure.
    for spec in (gen.chain(f"rchain{k1}", k1), gen.chain(f"rchain{k2}", k2),
                 gen.medial_band("rmedial3", 3)):
        w.bands.append(Band(spec.relabelled(rng), "constructive", (0, 4), 100_000))
    # fixtures/torus.cmap: one 4-valent vertex whose loops cross on the torus.
    torus = gen.Spec("torusband", [3, 4, 1, 2], [2, 3, 4, 1], 1).relabelled(rng)
    w.bands.append(Band(torus, "constructive", (4,), 100_000))

    op = w.ops.append
    op(Op("help", ["--help"]))
    for path in ("triangle.cmap", "torus.cmap", "loop1.cmap", "chain2_base.cmap"):
        op(Op(f"validate:{path}", ["validate", path], target=path))
    for path in ("triangle.cmap", "curl.cmap", "torus.cmap"):
        op(Op(f"faces:{path}", ["faces", path], target=path))
        op(Op(f"strands:{path}", ["strands", path], target=path))
    op(Op("validate:bad", ["validate", "bad.cmap"], (2,)))
    op(Op("render:triangle", ["render", "triangle.cmap"], target="triangle.cmap"))
    op(Op("render:curl", ["render", "curl.cmap"], target="curl.cmap"))
    for b in w.bands[:len(piped)]:
        _pipeline(w, b.name)
        cm, prov = f"{b.name}.cmap", f"{b.name}.prov.json"
        op(Op(f"{b.name}:faces", ["faces", cm, "--provenance", prov], band=b.name, target=cm))
        op(Op(f"{b.name}:hull", ["hull", cm, "--constructive", "--provenance", prov],
              band=b.name, target=cm))
        op(Op(f"{b.name}:validate", ["validate", f"{b.name}.json"], band=b.name))
    for b in w.bands[len(piped):]:
        op(Op(f"{b.name}:report", ["report", f"{b.name}.json"], b.expect, band=b.name))
        op(Op(f"{b.name}:hull-spec", ["hull", f"{b.name}.json", "--constructive"],
              b.expect, band=b.name))
    op(Op("torusband:report-exact", ["report", "torusband.json", "--exact"], (3,),
          band="torusband"))
    first = f"chain{small}"
    cm = f"{first}.cmap"
    op(Op(f"{first}:hull-exact", ["hull", cm], band=first, target=cm))
    op(Op(f"{first}:report-exact", ["report", f"{first}.json", "--exact"], band=first))
    op(Op(f"{first}:percolate-partial", ["percolate", cm, "--manual", "1"], (3,),
          band=first, target=cm))
    op(Op(f"{first}:percolate-json", ["percolate", cm, "--manual", f"@witness:{first}:report",
                                      "--trace", f"{first}.trace.json"],
          band=first, target=cm, writes=(f"{first}.trace.json",)))
    op(Op(f"{first}:render-manual", ["render", cm, "--manual", f"@witness:{first}:report"],
          band=first, target=cm))
    op(Op("chain3:report-json", ["report", "chain3.json", "--json"], band="chain3"))
    op(Op("medial3:strands", ["strands", "medial3.cmap"], band="medial3", target="medial3.cmap"))
    op(Op("medial3:report-json", ["report", "medial3.cmap", "--provenance",
                                  "medial3.prov.json", "--json"], band="medial3",
          target="medial3.cmap"))
    return w


WORKLOADS = {
    "medial-12": medial_12,
    "medial-twisted": medial_twisted,
    "exact-small": exact_small,
    "cli-small": cli_small,
}


def prepare(name: str, seed: int, root: str, workdir: str) -> Workload:
    """Generate a workload's inputs into a fresh ``workdir``."""
    w = WORKLOADS[name](seed, root)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for fname in w.fixtures:
        shutil.copy(os.path.join(root, "fixtures", fname), workdir)
    for b in w.bands:
        if b.name + ".json" not in w.fixtures:
            b.spec.write(workdir)
    for fname, text in w.files.items():
        with open(os.path.join(workdir, fname), "w") as fh:
            fh.write(text)
    return w
