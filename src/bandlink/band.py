"""Band diagrams: thicken a 4-valent projection into a chain of circles.

Subdivide every edge of a base projection with 2-valent vertices, then blow
the graph up into a link diagram: each 2-valent vertex becomes a *clasp*
(two crossings joining the circles of the two adjacent band arcs), each
4-valent vertex becomes a *hash* (four crossings where two bands cross), and
each segment may carry *twist* crossings (self-crossings of one band).  The
result is one circle per 2-valent vertex, chained along the strands of the
base, living on the same surface as the base map.

The subdivided base is numbered from the base, never built as a map.  With
D darts and V vertices in the base, subdivision point i (edges in base
order, points in order along each edge) is vertex V + i with darts
D + 2i - 1 and D + 2i.  A segment runs between two consecutive points of an
edge, or a point and an end, and segments are numbered by their low dart.

Gadget bookkeeping: every crossing owns four darts in a fixed rotation, and
each subdivided-base dart exposes two strand ports, L on its
counterclockwise flank and R on the clockwise one.  Corridors glue L to R
because walking an edge flips the flank.
"""

from __future__ import annotations

import os
from functools import cached_property
from typing import NamedTuple, Sequence

from .cmap import CombinatorialMap, load_cmap, validate
from .errors import BandlinkError, clip_repr, dump_json, json_typed, parse_json, read_text

KIND_CLASP = "clasp"
KIND_HASH = "hash"
KIND_TWIST = "twist"
KINDS = (KIND_CLASP, KIND_HASH, KIND_TWIST)
# The most crossings a spec may ask for, checked before anything is built:
# 26 times the 3,840 of a 16x16 medial band, about 2 s and 150 MB to build.
MAX_CROSSINGS = 10**5


class Crossing(NamedTuple):
    """Where a diagram vertex came from, in the module docstring's numbering.

    clasp: owner = the 2-valent vertex (a base vertex, or V + i for point i),
    slot 1..2 along the first band arc.
    hash: owner = the 4-valent base vertex, slot 1..4 by rotation corner.
    twist: owner = the segment id, slot = position along the segment.
    Crossings are numbered clasps first (base vertices, then points), then
    hashes, then each segment's twists in segment order.
    """

    kind: str
    owner: int
    slot: int


class BandSpec:
    """Recipe for a band diagram.

    ``subdivisions[e]`` counts the 2-valent vertices inserted into canonical
    edge e+1 of the base; ``twists[e]`` gives one twist count per resulting
    segment (so it has subdivisions[e] + 1 entries).  Construction checks
    the spec and its base once, so every BandSpec is buildable, with at
    most ``MAX_CROSSINGS`` crossings.
    """

    def __init__(self, base: CombinatorialMap, subdivisions: Sequence[int],
                 twists: Sequence[Sequence[int]]):
        self.base = base
        self.subdivisions = tuple(subdivisions)
        self.twists = tuple(tuple(t) for t in twists)
        if base.dart_count == 0:
            raise BandlinkError("the base map has no edges; a band needs at least one")
        validate(base)
        valences = [len(cyc) for cyc in base.vertex_cycles]
        for vid, valence in enumerate(valences, start=1):
            if valence not in (2, 4):
                raise BandlinkError(
                    f"vertex {vid} has valence {valence}; band bases need 2 or 4"
                )
        e_count = base.edge_count
        if len(self.subdivisions) != e_count:
            raise BandlinkError(
                f"{len(self.subdivisions)} subdivision counts for {e_count} edges"
            )
        if len(self.twists) != e_count:
            raise BandlinkError(f"{len(self.twists)} twist lists for {e_count} edges")
        for eid, (d, dp) in enumerate(base.edge_pairs, start=1):
            k = self.subdivisions[eid - 1]
            if k < 0:
                raise BandlinkError(f"edge {eid}: negative subdivision count {clip_repr(k)}")
            ends = (base.vertex_of[d - 1], base.vertex_of[dp - 1])
            if k == 0 and all(valences[v - 1] == 4 for v in ends):
                raise BandlinkError(
                    f"edge {eid} joins two 4-valent vertices and needs at least "
                    "one subdivision point"
                )
            ts = self.twists[eid - 1]
            if len(ts) != k + 1:
                raise BandlinkError(
                    f"edge {eid}: {len(ts)} twist counts for {clip_repr(k + 1)} segments"
                )
            for t in ts:
                if t < 0:
                    raise BandlinkError(f"edge {eid}: negative twist count {clip_repr(t)}")
        # A clasp (2 crossings) per 2-valent vertex after subdivision, a hash
        # (4) per 4-valent vertex, and the twists.
        clasps = valences.count(2) + sum(self.subdivisions)
        _check_crossings(2 * clasps + 4 * valences.count(4) + sum(map(sum, self.twists)))


class BandDiagram:
    """A built band diagram plus the provenance of its parts.

    Circles are the diagram's strands: circle i is strand i.  The circle
    count ``n``, ``circles_of_vertex`` and ``degenerate`` are derived from
    the diagram on first use, never stored.  Two diagrams are equal when
    their map, crossings and face provenance are.
    """

    def __init__(self, diagram: CombinatorialMap, crossing_kind: tuple[Crossing, ...],
                 face_provenance: tuple[int | None, ...]):
        self.diagram = diagram
        self.crossing_kind = crossing_kind
        self.face_provenance = face_provenance

    def __eq__(self, other):
        if type(other) is not BandDiagram:
            return NotImplemented
        return (self.diagram, self.crossing_kind, self.face_provenance) == (
            other.diagram, other.crossing_kind, other.face_provenance
        )

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
        raise BandlinkError(
            f"the spec asks for {clip_repr(total)} crossings; at most "
            f"{MAX_CROSSINGS} are built"
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
        s1, s2, s3, s4 = s = [self.new_crossing(KIND_HASH, v, i) for i in (1, 2, 3, 4)]
        self.pair(s1 + 3, s2 + 1)
        self.pair(s1 + 4, s4 + 2)
        self.pair(s2 + 4, s3 + 2)
        self.pair(s3 + 1, s4 + 3)
        # Rotation dart i (1..4) has L at corner i of crossing i and R at
        # corner i of crossing i - 1, cyclically.
        for i, d in enumerate(rotation):
            self.ports[(d, "L")] = s[i] + i + 1
            self.ports[(d, "R")] = s[i - 1] + i + 1

    def corridor(self, seg_id: int, d: int, dp: int, t: int) -> None:
        # Carry d's (L, R) ports through the t twists, then glue them to dp's.
        left, right = self.ports[(d, "L")], self.ports[(d, "R")]
        for slot in range(1, t + 1):
            x = self.new_crossing(KIND_TWIST, seg_id, slot)
            self.pair(left, x + 2)
            self.pair(right, x + 3)
            left, right = x + 1, x + 4
        self.pair(left, self.ports[(dp, "R")])
        self.pair(right, self.ports[(dp, "L")])

    def finish(self, genus: int) -> CombinatorialMap:
        total = 4 * len(self.crossings)
        # Crossing c rotates its darts 4c+1 -> 4c+2 -> 4c+3 -> 4c+4 -> 4c+1.
        sigma = [d - 3 if d % 4 == 0 else d + 1 for d in range(1, total + 1)]
        # A dart glued twice or left unglued fails the constructor's alpha
        # checks.
        alpha = [0] * (total + 1)
        for x, y in self.pairs:
            alpha[x], alpha[y] = y, x
        return CombinatorialMap(total, alpha[1:], sigma, genus)


def build_band(spec: BandSpec) -> BandDiagram:
    """Build the band diagram a spec describes, on the same surface.

    One pass over the base: the subdivided base is numbered as the module
    docstring says, never built.  The builder checks its own output: the
    diagram is connected and has the base's genus, the vertex count is
    2C + 4H + sum(t), one circle per 2-valent vertex, twists as
    self-crossings, and a bijection between base faces and the diagram faces
    inherited from them.
    """
    base = spec.base
    darts, rotations = base.dart_count, base.vertex_cycles
    clasps = [(w, cyc) for w, cyc in enumerate(rotations, start=1) if len(cyc) == 2]
    clasps += [
        (len(rotations) + i, (darts + 2 * i - 1, darts + 2 * i))
        for i in range(1, sum(spec.subdivisions) + 1)
    ]
    hashes = [(v, cyc) for v, cyc in enumerate(rotations, start=1) if len(cyc) == 4]
    # An edge (d, dp) with k points runs d, a1, b1, ..., ak, bk, dp; each
    # consecutive pair of those darts bounds one segment.
    segments = []
    nxt = darts + 1
    for (d, dp), k, twists in zip(base.edge_pairs, spec.subdivisions, spec.twists):
        ends = [d, *range(nxt, nxt + 2 * k), dp]
        nxt += 2 * k
        for j, t in enumerate(twists):
            x, y = ends[2 * j], ends[2 * j + 1]
            segments.append((min(x, y), max(x, y), t))
    segments.sort()

    b = _Builder()
    for w, (x, y) in clasps:
        b.clasp(w, x, y)
    for v, rotation in hashes:
        b.hash_vertex(v, rotation)
    for sid, (x, y, t) in enumerate(segments, start=1):
        b.corridor(sid, x, y, t)
    dl = b.finish(base.declared_genus)

    twist_total = sum(t for _, _, t in segments)
    if dl.vertex_count != 2 * len(clasps) + 4 * len(hashes) + twist_total:
        raise RuntimeError("crossing count does not add up")

    # The base is connected and has its declared genus (BandSpec validated
    # it), and so must the diagram be.
    validate(dl)

    # A subdivided face runs through its base face's darts in the same cyclic
    # order, and every point's dart is numbered above them, so base face ids
    # and least darts carry over.
    face_of_dart = [0] * (dl.dart_count + 1)
    for f in dl.faces:
        for d in f.boundary:
            face_of_dart[d] = f.id
    provenance: list[int | None] = [None] * len(dl.faces)
    for bf in base.faces:
        fid = face_of_dart[b.ports[(bf.boundary[0], "R")]]
        if provenance[fid - 1] is not None:
            raise RuntimeError(
                f"faces {provenance[fid - 1]} and {bf.id} of the base map to "
                f"the same diagram face"
            )
        provenance[fid - 1] = bf.id

    bd = BandDiagram(dl, tuple(b.crossings), tuple(provenance))
    if bd.n != len(clasps):
        raise RuntimeError(f"{bd.n} circles for {len(clasps)} 2-valent vertices")
    for vid, (cr, (c0, c1)) in enumerate(
        zip(bd.crossing_kind, bd.circles_of_vertex), start=1
    ):
        if cr.kind == KIND_TWIST and c0 != c1:
            raise RuntimeError(f"twist crossing {vid} is not a self-crossing")
    return bd


# ---------------------------------------------------------------------------
# Band spec files and provenance sidecars.

PROVENANCE_FORMAT = "bandlink-provenance v1"


def _refuse_unknown_keys(doc: dict, known: tuple[str, ...], where: str) -> None:
    """Refuse a key of ``doc`` outside ``known``, so a misspelt key never
    falls back to its default."""
    for key in doc:
        if key not in known:
            raise BandlinkError(
                f"{where}: unknown key {clip_repr(key)}; known keys are "
                + ", ".join(map(repr, known))
            )


def load_band_spec(path) -> BandSpec:
    """Read a band spec JSON document; the base map path is relative to it.

    Only the keys ``map`` and ``edges``, and ``edge``, ``subdivisions`` and
    ``twists`` in an edge entry, are read; any other key is refused.
    """
    doc = parse_json(read_text(path), str(path))
    if not isinstance(doc, dict) or "map" not in doc:
        raise BandlinkError(f"{path}: missing 'map' entry")
    _refuse_unknown_keys(doc, ("map", "edges"), str(path))
    map_path = doc["map"]
    if not isinstance(map_path, str) or "\0" in map_path:
        raise BandlinkError(f"{path}: 'map' must be a path string without NUL")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise BandlinkError(f"{path}: 'edges' must be a list")
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
            _refuse_unknown_keys(entry, ("edge", "subdivisions", "twists"), f"edge {eid}")
            k = json_typed(entry.get("subdivisions", 0), int, "subdivisions")
            # Capped before the default twists are allocated.  A negative
            # count gets no default twists; BandSpec reports it.
            crossings += 2 * max(k, 0)
            _check_crossings(crossings)
            twists_in = json_typed(entry.get("twists", [0] * max(k + 1, 0)), list, "twists")
            ts = tuple(json_typed(t, int, "twist") for t in twists_in)
        except (KeyError, TypeError) as exc:
            raise BandlinkError(f"bad edge entry {clip_repr(entry)}") from exc
        if not 1 <= eid <= e_count:
            raise BandlinkError(f"edge id {clip_repr(eid)} outside 1..{e_count}")
        if eid in seen:
            raise BandlinkError(f"edge {eid} listed twice")
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
    return dump_json(doc)


def _slot(entry: dict, key: str, slots: list) -> int:
    """The 1-based id ``entry[key]``, checked to name a free slot of ``slots``."""
    i = json_typed(entry[key], int, key)
    if not 1 <= i <= len(slots):
        raise BandlinkError(f"{key} {clip_repr(i)} outside 1..{len(slots)}")
    if slots[i - 1] is not None:
        raise BandlinkError(f"{key} {i} listed twice")
    return i


def band_diagram_from_provenance(m: CombinatorialMap, text: str) -> BandDiagram:
    """Rebuild a BandDiagram from a map plus its provenance sidecar.

    The map must be 4-regular, as every built diagram is.  Crossing and face
    entries must cover each vertex and face id once, and the recorded ``n``,
    ``degenerate`` and ``circle_of_strand`` must equal the values derived
    from the map and have their JSON types: they are compared by ``repr``,
    so ``3.0`` is not ``3`` and ``0`` is not ``false``.
    """
    if m.dart_count == 0:
        raise BandlinkError("the map has no darts; a band diagram has at least one crossing")
    for vid, cyc in enumerate(m.vertex_cycles, start=1):
        if len(cyc) != 4:
            raise BandlinkError(
                f"vertex {vid} has valence {len(cyc)}; a band diagram is 4-regular"
            )
    doc = parse_json(text, "bad provenance JSON")
    if not isinstance(doc, dict):
        raise BandlinkError("provenance document is not a JSON object")
    if doc.get("format") != PROVENANCE_FORMAT:
        raise BandlinkError(
            f"unknown provenance format {clip_repr(doc.get('format'))}"
        )
    try:
        kinds: list[Crossing | None] = [None] * m.vertex_count
        for entry in json_typed(doc["crossing_kind"], list, "crossing_kind"):
            vid = _slot(entry, "vertex", kinds)
            if entry["kind"] not in KINDS:
                raise BandlinkError(
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
                raise BandlinkError(
                    f"face {fid}: unknown kind {clip_repr(entry['kind'])}"
                )
            listed[fid - 1] = entry
        if any(entry is None for entry in listed):
            raise BandlinkError("face list does not match the map's faces")
        provenance = tuple(
            json_typed(entry["base_face"], int, "base_face")
            if entry["kind"] == "base"
            else None
            for entry in listed
        )
        recorded = {key: doc[key] for key in ("n", "degenerate", "circle_of_strand")}
    except (KeyError, TypeError) as exc:
        raise BandlinkError(f"incomplete provenance document: {exc}") from exc
    if any(k is None for k in kinds):
        raise BandlinkError("provenance does not cover every vertex")
    bd = BandDiagram(m, tuple(kinds), provenance)
    derived = {
        "n": bd.n,
        "degenerate": bd.degenerate,
        "circle_of_strand": list(range(1, bd.n + 1)),
    }
    for key, want in derived.items():
        if repr(recorded[key]) != repr(want):
            raise BandlinkError(
                f"provenance {key} {clip_repr(recorded[key])} does not match "
                f"the map's {clip_repr(want)}"
            )
    return bd
