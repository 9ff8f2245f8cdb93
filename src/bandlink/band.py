"""Band diagrams: thicken a 4-valent projection into a chain of circles.

Subdivide every edge of a base projection with 2-valent vertices, then blow
the graph up into a link diagram: each 2-valent vertex becomes a *clasp*
(two crossings joining the circles of the two adjacent band arcs), each
4-valent vertex becomes a *hash* (four crossings where two bands cross), and
each segment may carry *twist* crossings (self-crossings of one band).  The
result is one circle per 2-valent vertex, chained along the strands of the
base, living on the same surface as the base map.

Gadget bookkeeping: every crossing owns four darts in a fixed rotation, and
each base dart exposes two strand ports, L on its counterclockwise flank and
R on the clockwise one.  Corridors glue L to R because walking an edge flips
the flank.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .cmap import CombinatorialMap, load_cmap, validate
from .errors import (
    BadValence,
    BandSpecError,
    GenusMismatch,
    ProvenanceError,
    ZeroSubdivision,
    clip_repr,
    json_typed,
)

KIND_CLASP = "clasp"
KIND_HASH = "hash"
KIND_TWIST = "twist"
KINDS = (KIND_CLASP, KIND_HASH, KIND_TWIST)
# The most crossings a spec may ask for, checked before anything is built;
# far above the 3,840 of a 16x16 medial band.
MAX_CROSSINGS = 10**6


@dataclass(frozen=True)
class Crossing:
    """Where a diagram vertex came from.

    clasp: owner = the 2-valent vertex, slot 1..2 along the first band arc.
    hash: owner = the 4-valent vertex, slot 1..4 by rotation corner.
    twist: owner = the segment's edge id, slot = position along the segment.
    """

    kind: str
    owner: int
    slot: int


@dataclass(frozen=True)
class BandSpec:
    """Recipe for a band diagram.

    ``subdivisions[e]`` counts the 2-valent vertices inserted into canonical
    edge e+1 of the base; ``twists[e]`` gives one twist count per resulting
    segment (so it has subdivisions[e] + 1 entries).  Construction checks
    the spec and its base once, so every BandSpec is buildable, with at
    most ``MAX_CROSSINGS`` crossings.
    """

    base: CombinatorialMap
    subdivisions: tuple[int, ...]
    twists: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "subdivisions", tuple(self.subdivisions))
        object.__setattr__(self, "twists", tuple(tuple(t) for t in self.twists))
        base = self.base
        validate(base)
        two, four = _check_valences(base)
        e_count = base.edge_count
        if len(self.subdivisions) != e_count:
            raise BandSpecError(
                f"{len(self.subdivisions)} subdivision counts for {e_count} edges"
            )
        if len(self.twists) != e_count:
            raise BandSpecError(f"{len(self.twists)} twist lists for {e_count} edges")
        for eid, (d, dp) in enumerate(base.edge_pairs, start=1):
            k = self.subdivisions[eid - 1]
            if k < 0:
                raise BandSpecError(f"edge {eid}: negative subdivision count {clip_repr(k)}")
            ends = (base.vertex_of[d - 1], base.vertex_of[dp - 1])
            if k == 0 and all(base.valence(v) == 4 for v in ends):
                raise ZeroSubdivision(
                    f"edge {eid} joins two 4-valent vertices and needs at least "
                    "one subdivision point"
                )
            ts = self.twists[eid - 1]
            if len(ts) != k + 1:
                raise BandSpecError(
                    f"edge {eid}: {len(ts)} twist counts for {clip_repr(k + 1)} segments"
                )
            for t in ts:
                if t < 0:
                    raise BandSpecError(f"edge {eid}: negative twist count {clip_repr(t)}")
        # A clasp (2 crossings) per 2-valent vertex after subdivision, a hash
        # (4) per 4-valent vertex, and the twists.
        clasps = len(two) + sum(self.subdivisions)
        _check_crossings(2 * clasps + 4 * len(four) + sum(map(sum, self.twists)))


@dataclass(frozen=True)
class BandDiagram:
    """A built band diagram plus the provenance of its parts.

    Circles are the diagram's strands: circle i is strand i.  The circle
    count ``n``, ``circles_of_vertex`` and ``degenerate`` are derived from
    the diagram on first use, never stored.
    """

    diagram: CombinatorialMap
    crossing_kind: tuple[Crossing, ...]
    face_provenance: tuple[int | None, ...]

    @property
    def n(self) -> int:
        return len(self.diagram.strands)

    @cached_property
    def circles_of_vertex(self) -> tuple[tuple[int, int], ...]:
        """The two circles meeting at each crossing (equal for self-crossings)."""
        circle_of_dart = [0] * (self.diagram.dart_count + 1)
        for s in self.diagram.strands:
            for d in s.darts:
                circle_of_dart[d] = s.id
        out = []
        for cyc in self.diagram.vertex_cycles:
            a, b = circle_of_dart[cyc[0]], circle_of_dart[cyc[1]]
            out.append((a, b) if a <= b else (b, a))
        return tuple(out)

    @cached_property
    def degenerate(self) -> bool:
        """Whether some clasp joins a circle to itself."""
        return any(
            cr.kind == KIND_CLASP and a == b
            for cr, (a, b) in zip(self.crossing_kind, self.circles_of_vertex)
        )


def _check_crossings(total: int) -> None:
    if total > MAX_CROSSINGS:
        raise BandSpecError(
            f"the spec asks for {clip_repr(total)} crossings; at most "
            f"{MAX_CROSSINGS} are built"
        )


def _check_valences(m: CombinatorialMap) -> tuple[list[int], list[int]]:
    two, four = [], []
    for vid, cyc in enumerate(m.vertex_cycles, start=1):
        if len(cyc) == 2:
            two.append(vid)
        elif len(cyc) == 4:
            four.append(vid)
        else:
            raise BadValence(
                f"vertex {vid} has valence {len(cyc)}; band bases need 2 or 4"
            )
    return two, four


def _subdivide(
    m: CombinatorialMap, subdivisions: Sequence[int]
) -> tuple[CombinatorialMap, tuple[tuple[tuple[int, int], ...], ...]]:
    """Insert 2-valent vertices; also return each edge's segment dart pairs."""
    total = m.dart_count + 2 * sum(subdivisions)
    alpha = [0] * (total + 1)
    sigma = [0] * (total + 1)
    for d in range(1, m.dart_count + 1):
        sigma[d] = m.sigma[d - 1]
    nxt = m.dart_count + 1
    segments: list[tuple[tuple[int, int], ...]] = []
    for eid, (d, dp) in enumerate(m.edge_pairs, start=1):
        k = subdivisions[eid - 1]
        pairs = []
        prev = d
        for _ in range(k):
            a, b = nxt, nxt + 1
            nxt += 2
            sigma[a], sigma[b] = b, a
            alpha[prev], alpha[a] = a, prev
            pairs.append((min(prev, a), max(prev, a)))
            prev = b
        alpha[prev], alpha[dp] = dp, prev
        pairs.append((min(prev, dp), max(prev, dp)))
        segments.append(tuple(pairs))
    return (
        CombinatorialMap(total, alpha[1:], sigma[1:], m.declared_genus),
        tuple(segments),
    )


# Gadget dart offsets within a crossing's rotation (darts 4c+1 .. 4c+4).
# Clasp pair: p = [NE, NW, MA, MB], q = [MB, MA, SW, SE]; the two middle
# segments MA/MB join p to q so the two U-turn arcs cross twice.
# Hash: four crossings slot 1..4, each rotated [E, N, W, S] in its own frame.
# Twist: [NE, NW, SW, SE]; straight strands swap upper and lower.


class _Builder:
    def __init__(self):
        self.crossings: list[Crossing] = []
        self.pairs: list[tuple[int, int]] = []
        self.ports: dict[tuple[int, str], int] = {}

    def new_crossing(self, kind: str, owner: int, slot: int) -> int:
        """Allocate four darts; returns the id of the first (offset base)."""
        self.crossings.append(Crossing(kind, owner, slot))
        return (len(self.crossings) - 1) * 4

    def pair(self, x: int, y: int) -> None:
        self.pairs.append((x, y))

    def clasp(self, w: int, a: int, b: int) -> None:
        p = self.new_crossing(KIND_CLASP, w, 1)
        q = self.new_crossing(KIND_CLASP, w, 2)
        self.pair(p + 3, q + 2)
        self.pair(p + 4, q + 1)
        self.ports[(a, "L")] = p + 1
        self.ports[(a, "R")] = q + 4
        self.ports[(b, "L")] = q + 3
        self.ports[(b, "R")] = p + 2

    def hash_vertex(self, v: int, rotation: Sequence[int]) -> None:
        d1, d2, d3, d4 = rotation
        s1 = self.new_crossing(KIND_HASH, v, 1)
        s2 = self.new_crossing(KIND_HASH, v, 2)
        s3 = self.new_crossing(KIND_HASH, v, 3)
        s4 = self.new_crossing(KIND_HASH, v, 4)
        self.pair(s1 + 3, s2 + 1)
        self.pair(s1 + 4, s4 + 2)
        self.pair(s2 + 4, s3 + 2)
        self.pair(s3 + 1, s4 + 3)
        self.ports[(d1, "L")] = s1 + 1
        self.ports[(d1, "R")] = s4 + 1
        self.ports[(d2, "L")] = s2 + 2
        self.ports[(d2, "R")] = s1 + 2
        self.ports[(d3, "L")] = s3 + 3
        self.ports[(d3, "R")] = s2 + 3
        self.ports[(d4, "L")] = s4 + 4
        self.ports[(d4, "R")] = s3 + 4

    def corridor(self, seg_id: int, d: int, dp: int, t: int) -> None:
        if t == 0:
            self.pair(self.ports[(d, "L")], self.ports[(dp, "R")])
            self.pair(self.ports[(d, "R")], self.ports[(dp, "L")])
            return
        xs = [self.new_crossing(KIND_TWIST, seg_id, i + 1) for i in range(t)]
        self.pair(self.ports[(d, "L")], xs[0] + 2)
        self.pair(self.ports[(d, "R")], xs[0] + 3)
        for k in range(t - 1):
            self.pair(xs[k] + 1, xs[k + 1] + 2)
            self.pair(xs[k] + 4, xs[k + 1] + 3)
        self.pair(xs[-1] + 1, self.ports[(dp, "R")])
        self.pair(xs[-1] + 4, self.ports[(dp, "L")])

    def finish(self, genus: int) -> CombinatorialMap:
        total = 4 * len(self.crossings)
        sigma = [0] * (total + 1)
        for c in range(len(self.crossings)):
            base = 4 * c
            sigma[base + 1] = base + 2
            sigma[base + 2] = base + 3
            sigma[base + 3] = base + 4
            sigma[base + 4] = base + 1
        alpha = [0] * (total + 1)
        for x, y in self.pairs:
            if alpha[x] or alpha[y]:
                raise RuntimeError(f"dart glued twice: {x} or {y}")
            alpha[x], alpha[y] = y, x
        if any(a == 0 for a in alpha[1:]):
            raise RuntimeError("unglued dart left over")
        return CombinatorialMap(total, alpha[1:], sigma[1:], genus)


def build_band(spec: BandSpec) -> BandDiagram:
    """Build the band diagram a spec describes, on the same surface.

    The builder checks its own output: Euler/genus per component of the
    subdivided map and of the diagram, the vertex census 2C + 4H + sum(t),
    one circle per 2-valent vertex, twists as self-crossings, and a bijection
    between base faces and the diagram faces inherited from them.
    """
    base = spec.base
    m, segments = _subdivide(base, spec.subdivisions)
    validate(m, base.component_genera if len(base.components) > 1 else None)
    two, four = _check_valences(m)

    seg_twist: dict[tuple[int, int], int] = {}
    for eid in range(1, base.edge_count + 1):
        for pair, t in zip(segments[eid - 1], spec.twists[eid - 1]):
            seg_twist[pair] = t

    b = _Builder()
    for w in two:
        a, bb = m.vertex_cycles[w - 1]
        b.clasp(w, a, bb)
    for v in four:
        b.hash_vertex(v, m.vertex_cycles[v - 1])
    twist_total = 0
    for eid, (d, dp) in enumerate(m.edge_pairs, start=1):
        t = seg_twist.get((d, dp), 0)
        twist_total += t
        b.corridor(eid, d, dp, t)
    dl = b.finish(base.declared_genus)

    if dl.vertex_count != 2 * len(two) + 4 * len(four) + twist_total:
        raise RuntimeError("crossing census does not add up")

    # Genus preservation, component by component: each diagram component
    # must carry the genus of the subdivided component its crossings came from.
    if len(dl.components) != len(m.components):
        raise GenusMismatch(
            f"band diagram has {len(dl.components)} components but the base "
            f"has {len(m.components)}"
        )
    genus_of_dart = [0] * (m.dart_count + 1)
    for comp, g in zip(m.components, m.component_genera):
        for d in comp:
            genus_of_dart[d] = g

    def owner_genus(dl_dart: int) -> int:
        cr = b.crossings[(dl_dart - 1) // 4]
        if cr.kind == KIND_TWIST:
            return genus_of_dart[m.edge_pairs[cr.owner - 1][0]]
        return genus_of_dart[m.vertex_cycles[cr.owner - 1][0]]

    expected_genera = tuple(owner_genus(comp[0]) for comp in dl.components)
    validate(dl, expected_genera if len(dl.components) > 1 else None)

    face_of_dart = {}
    for f in dl.faces:
        for d in f.boundary:
            face_of_dart[d] = f.id
    provenance: list[int | None] = [None] * len(dl.faces)
    for mf in m.faces:
        dl_dart = b.ports[(mf.boundary[0], "R")]
        fid = face_of_dart[dl_dart]
        if provenance[fid - 1] is not None:
            raise RuntimeError(
                f"faces {provenance[fid - 1]} and {mf.id} of the base map to "
                f"the same diagram face"
            )
        provenance[fid - 1] = mf.id

    bd = BandDiagram(dl, tuple(b.crossings), tuple(provenance))
    if bd.n != len(two):
        raise RuntimeError(f"{bd.n} circles for {len(two)} 2-valent vertices")
    for vid, (cr, (c0, c1)) in enumerate(
        zip(bd.crossing_kind, bd.circles_of_vertex), start=1
    ):
        if cr.kind == KIND_TWIST and c0 != c1:
            raise RuntimeError(f"twist crossing {vid} is not a self-crossing")
    return bd


# ---------------------------------------------------------------------------
# Census: who crosses whom, and how.


@dataclass(frozen=True)
class CensusEntry:
    other: int
    points: int
    kind: str


@dataclass(frozen=True)
class CensusReport:
    entries: tuple[tuple[CensusEntry, ...], ...]
    self_crossings: tuple[int, ...]
    warnings: tuple[str, ...]


def census(bd: BandDiagram) -> CensusReport:
    """Tally inter-circle crossing points per circle.

    Clasps contribute 2 points to each of their two circles, hashes 4; twist
    crossings are self-crossings and are tallied separately.  Deviations from
    the generic picture (a circle meeting fewer than two distinct clasp
    partners, or a clasp joining a circle to itself) are flagged as warnings,
    not errors, because small diagrams genuinely produce them.
    """
    per_circle: list[list[CensusEntry]] = [[] for _ in range(bd.n)]
    self_cross = [0] * bd.n
    warnings: list[str] = []
    groups: dict[tuple[str, int], list[int]] = {}
    for vid, cr in enumerate(bd.crossing_kind, start=1):
        groups.setdefault((cr.kind, cr.owner), []).append(vid)
    for (kind, owner), vids in sorted(groups.items()):
        circ = {bd.circles_of_vertex[v - 1] for v in vids}
        if len(circ) != 1:
            raise ProvenanceError(
                f"{kind} {owner} mixes circle pairs {sorted(circ)}"
            )
        a, c = circ.pop()
        if kind == KIND_TWIST:
            self_cross[a - 1] += len(vids)
            continue
        points = 2 if kind == KIND_CLASP else 4
        if a == c:
            warnings.append(f"{kind} {owner} joins circle {a} to itself")
            per_circle[a - 1].append(CensusEntry(a, points, kind))
            continue
        per_circle[a - 1].append(CensusEntry(c, points, kind))
        per_circle[c - 1].append(CensusEntry(a, points, kind))
    for cid in range(1, bd.n + 1):
        clasp_partners = [
            e.other for e in per_circle[cid - 1] if e.kind == KIND_CLASP
        ]
        if len(clasp_partners) != 2:
            warnings.append(
                f"circle {cid} has {len(clasp_partners)} clasp ends instead of 2"
            )
        elif clasp_partners[0] == clasp_partners[1]:
            warnings.append(
                f"circle {cid} meets circle {clasp_partners[0]} at both clasp ends"
            )
    return CensusReport(
        tuple(tuple(sorted(lst, key=lambda e: (e.kind, e.other))) for lst in per_circle),
        tuple(self_cross),
        tuple(warnings),
    )


# ---------------------------------------------------------------------------
# Band spec files and provenance sidecars.

PROVENANCE_FORMAT = "bandlink-provenance v1"


def load_band_spec(path) -> BandSpec:
    """Read a band spec JSON document; the base map path is relative to it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise BandSpecError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or "map" not in doc:
        raise BandSpecError(f"{path}: missing 'map' entry")
    map_path = doc["map"]
    if not isinstance(map_path, str):
        raise BandSpecError(f"{path}: 'map' must be a path string")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise BandSpecError(f"{path}: 'edges' must be a list")
    if not os.path.isabs(map_path):
        map_path = os.path.join(os.path.dirname(os.path.abspath(path)), map_path)
    base = load_cmap(map_path)
    e_count = base.edge_count
    subdivisions = [0] * e_count
    twists: list[tuple[int, ...]] = [(0,)] * e_count
    seen = set()
    crossings = 0  # asked for by the subdivisions read so far
    for entry in edges:
        try:
            eid = json_typed(entry["edge"], int, "edge")
            k = json_typed(entry.get("subdivisions", 0), int, "subdivisions")
            # Capped before the default twists are allocated.  A negative
            # count gets no default twists; BandSpec reports it.
            crossings += 2 * max(k, 0)
            _check_crossings(crossings)
            twists_in = json_typed(entry.get("twists", [0] * max(k + 1, 0)), list, "twists")
            ts = tuple(json_typed(t, int, "twist") for t in twists_in)
        except (KeyError, TypeError) as exc:
            raise BandSpecError(f"bad edge entry {clip_repr(entry)}") from exc
        if not 1 <= eid <= e_count:
            raise BandSpecError(f"edge id {clip_repr(eid)} outside 1..{e_count}")
        if eid in seen:
            raise BandSpecError(f"edge {eid} listed twice")
        seen.add(eid)
        subdivisions[eid - 1] = k
        twists[eid - 1] = ts
    return BandSpec(base, tuple(subdivisions), tuple(twists))


def provenance_to_json(bd: BandDiagram) -> str:
    doc = {
        "format": PROVENANCE_FORMAT,
        "n": bd.n,
        "degenerate": bd.degenerate,
        "crossing_kind": [
            {"vertex": vid, "kind": cr.kind, "owner": cr.owner, "slot": cr.slot}
            for vid, cr in enumerate(bd.crossing_kind, start=1)
        ],
        "circle_of_strand": list(range(1, bd.n + 1)),
        "face_provenance": [
            {"face": fid, "kind": "internal"}
            if origin is None
            else {"face": fid, "kind": "base", "base_face": origin}
            for fid, origin in enumerate(bd.face_provenance, start=1)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _slot(entry: dict, key: str, slots: list) -> int:
    """The 1-based id ``entry[key]``, checked to name a free slot of ``slots``."""
    i = json_typed(entry[key], int, key)
    if not 1 <= i <= len(slots):
        raise ProvenanceError(f"{key} {clip_repr(i)} outside 1..{len(slots)}")
    if slots[i - 1] is not None:
        raise ProvenanceError(f"{key} {i} listed twice")
    return i


def band_diagram_from_provenance(m: CombinatorialMap, text: str) -> BandDiagram:
    """Rebuild a BandDiagram from a map plus its provenance sidecar.

    The map must be 4-regular, as every built diagram is.  Crossing and face
    entries must cover each vertex and face id once, and the recorded ``n``,
    ``degenerate`` and ``circle_of_strand`` must equal the values derived
    from the map.
    """
    for vid, cyc in enumerate(m.vertex_cycles, start=1):
        if len(cyc) != 4:
            raise ProvenanceError(
                f"vertex {vid} has valence {len(cyc)}; a band diagram is 4-regular"
            )
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ProvenanceError(f"bad provenance JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProvenanceError("provenance document is not a JSON object")
    if doc.get("format") != PROVENANCE_FORMAT:
        raise ProvenanceError(
            f"unknown provenance format {clip_repr(doc.get('format'))}"
        )
    try:
        kinds: list[Crossing | None] = [None] * m.vertex_count
        for entry in json_typed(doc["crossing_kind"], list, "crossing_kind"):
            vid = _slot(entry, "vertex", kinds)
            if entry["kind"] not in KINDS:
                raise ProvenanceError(
                    f"vertex {vid}: unknown kind {clip_repr(entry['kind'])}"
                )
            kinds[vid - 1] = Crossing(
                entry["kind"],
                json_typed(entry["owner"], int, "owner"),
                json_typed(entry["slot"], int, "slot"),
            )
        listed: list[dict | None] = [None] * len(m.faces)
        for entry in json_typed(doc["face_provenance"], list, "face_provenance"):
            fid = _slot(entry, "face", listed)
            if entry["kind"] not in ("base", "internal"):
                raise ProvenanceError(
                    f"face {fid}: unknown kind {clip_repr(entry['kind'])}"
                )
            listed[fid - 1] = entry
        if any(entry is None for entry in listed):
            raise ProvenanceError("face list does not match the map's faces")
        provenance = tuple(
            json_typed(entry["base_face"], int, "base_face")
            if entry["kind"] == "base"
            else None
            for entry in listed
        )
        recorded = {key: doc[key] for key in ("n", "degenerate", "circle_of_strand")}
    except (KeyError, TypeError) as exc:
        raise ProvenanceError(f"incomplete provenance document: {exc}") from exc
    if any(k is None for k in kinds):
        raise ProvenanceError("provenance does not cover every vertex")
    bd = BandDiagram(m, tuple(kinds), provenance)
    derived = {
        "n": bd.n,
        "degenerate": bd.degenerate,
        "circle_of_strand": list(range(1, bd.n + 1)),
    }
    for key, want in derived.items():
        if recorded[key] != want:
            raise ProvenanceError(
                f"provenance {key} {clip_repr(recorded[key])} does not match "
                f"the map's {clip_repr(want)}"
            )
    return bd
