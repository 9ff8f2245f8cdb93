"""Shared fixture builders and seeded generators for the tests.

Every generator takes an explicit rng; nothing here touches global state.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
from itertools import combinations
from pathlib import Path
from typing import Sequence

from bandlink import BandSpec, CombinatorialMap, build_band, derived_genus, faces, validate
from bandlink.band import KIND_TWIST, BandDiagram, _Builder
from bandlink.errors import BandlinkError, BudgetExceeded, ConstructionStuck
from bandlink.hull import DEFAULT_BUDGET, HullResult
from bandlink.percolation import Closure
from bandlink.render import RADIUS, ROUNDS

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# An integer whose repr alone is far longer than an error line may be.
HUGE = int("9" * 4000)
# A JSON integer of 5,001 digits: more than the 4,300 that int() converts by
# default (sys.set_int_max_str_digits), unlike HUGE.
OVERLONG = "1" + "0" * 5000


def disjoint_union(a: CombinatorialMap, b: CombinatorialMap, genus: int = 0) -> CombinatorialMap:
    """``a`` and ``b`` side by side, with ``b``'s darts shifted past ``a``'s."""
    shift = a.dart_count
    alpha = list(a.alpha) + [d + shift for d in b.alpha]
    sigma = list(a.sigma) + [d + shift for d in b.sigma]
    return CombinatorialMap(a.dart_count + b.dart_count, alpha, sigma, genus)


def sidecar(n: int, degenerate: bool, crossings, face_kinds) -> str:
    """A hand-written provenance sidecar: ``crossings`` holds one
    (kind, owner, slot) per vertex and ``face_kinds`` one kind per face."""
    return json.dumps({
        "format": "bandlink-provenance v1",
        "n": n,
        "degenerate": degenerate,
        "crossing_kind": [
            {"vertex": v, "kind": kind, "owner": owner, "slot": slot}
            for v, (kind, owner, slot) in enumerate(crossings, start=1)
        ],
        "circle_of_strand": list(range(1, n + 1)),
        "face_provenance": [
            {"face": f, "kind": kind} for f, kind in enumerate(face_kinds, start=1)
        ],
    })


# fixtures/torus.cmap read as one hash: 4-valent, so a sidecar may describe it,
# and its two strands put the trusted lower bound above its hull of 0.
TORUS_SIDECAR = sidecar(2, False, [("hash", 1, 1)], ["internal"])
# fixtures/loop1.cmap read as one clasp: its vertex is 2-valent, so no band
# diagram has this shape.
LOOP1_SIDECAR = sidecar(1, True, [("clasp", 1, 1)], ["internal", "internal"])


def circle_map(n: int) -> CombinatorialMap:
    """Circle with n 2-valent vertices; vertex i joins edges i-1 and i."""
    if n == 1:
        return CombinatorialMap(2, (2, 1), (2, 1), 0)
    darts = 2 * n
    alpha = [0] * darts
    sigma = [0] * darts
    for i in range(1, n + 1):
        a, b = 2 * i - 1, 2 * i
        alpha[a - 1], alpha[b - 1] = b, a
        prev = 2 * (i - 1) if i > 1 else darts
        sigma[a - 1], sigma[prev - 1] = prev, a
    return CombinatorialMap(darts, tuple(alpha), tuple(sigma), 0)


def chain_spec(n: int) -> BandSpec:
    """Closed n-chain over the unknot: n clasps, no extra twists."""
    return BandSpec(circle_map(n), (0,) * n, ((0,),) * n)


def random_four_valent(rng, h: int, want_genus: int = 0) -> CombinatorialMap:
    """Connected map with h 4-valent vertices on a surface of the wanted genus."""
    while True:
        darts = 4 * h
        sigma = []
        for v in range(h):
            first = 4 * v
            rot = [first + 2, first + 3, first + 4]
            rng.shuffle(rot)
            cyc = [first + 1] + rot
            images = {cyc[i]: cyc[(i + 1) % 4] for i in range(4)}
            sigma.extend(images[d] for d in sorted(images))
        pool = list(range(1, darts + 1))
        rng.shuffle(pool)
        alpha = [0] * darts
        for i in range(0, darts, 2):
            a, b = pool[i], pool[i + 1]
            alpha[a - 1], alpha[b - 1] = b, a
        try:
            m = CombinatorialMap(darts, tuple(alpha), tuple(sigma), want_genus)
            validate(m)
        except BandlinkError:
            continue
        return m


def random_spec(rng, cap: int = 18, want_genus: int = 0) -> BandSpec:
    """Band spec with 0-2 four-valent base vertices and |V(D_L)| <= cap.

    The budget below equals cap minus the smallest diagram the base admits
    (all k = 1, no twists), so every k = 2 upgrade costs 2 and every twist
    costs 1 against it.
    """
    h = rng.choice([0, 1, 2]) if want_genus == 0 else rng.choice([1, 2])
    base = circle_map(1) if h == 0 else random_four_valent(rng, h, want_genus)
    e = base.edge_count
    two_valent = base.vertex_count if h == 0 else 0
    budget = cap - 4 * h - 2 * (e + two_valent)
    subs = []
    for _ in range(e):
        k = 2 if budget >= 2 and rng.random() < 0.4 else 1
        if k == 2:
            budget -= 2
        subs.append(k)
    twists = []
    for k in subs:
        row = []
        for _ in range(k + 1):
            t = min(rng.choice([0, 0, 1, 2, 3]), budget)
            budget -= t
            row.append(t)
        twists.append(tuple(row))
    return BandSpec(base, tuple(subs), tuple(twists))


def oversized_witness_band() -> BandDiagram:
    """A band diagram whose walk colors everything from one start face with
    one pick too many.

    The seeded spec has V = 16 and n = 3, with base faces 2, 5 and 11.  Its
    provenance is rewritten to mark faces 6, 12, 16 and 18 as base and the
    rest as internal.  From face 16 the walk colors every vertex with three
    picks where n - 1 = 2 are expected; every other start dead-ends.
    """
    bd = build_band(random_spec(random.Random(11), 22, 0))
    provenance = tuple(
        fid if fid in (6, 12, 16, 18) else None
        for fid in range(1, len(bd.face_provenance) + 1)
    )
    return BandDiagram(bd.diagram, bd.crossing_kind, provenance)


def bench_gen():
    """bench/gen.py, the benchmark's own input generator, imported by path."""
    path = FIXTURES.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def band_spec_of(spec) -> BandSpec:
    """The BandSpec of a ``bench/gen.py`` spec, without writing its files."""
    base = CombinatorialMap(len(spec.alpha), spec.alpha, spec.sigma, spec.genus)
    return BandSpec(
        base, [k for _, _, k, _ in spec.edges], [t for _, _, _, t in spec.edges]
    )


def random_map(rng, max_edges: int = 10) -> CombinatorialMap:
    """Connected map of any valence profile, declared genus set to derived."""
    while True:
        e = rng.randint(1, max_edges)
        darts = 2 * e
        pool = list(range(1, darts + 1))
        rng.shuffle(pool)
        alpha = [0] * darts
        for i in range(0, darts, 2):
            a, b = pool[i], pool[i + 1]
            alpha[a - 1], alpha[b - 1] = b, a
        sigma = list(range(1, darts + 1))
        rng.shuffle(sigma)
        m = CombinatorialMap(darts, tuple(alpha), tuple(sigma), 0)
        try:
            g = derived_genus(m)
        except BandlinkError:
            continue
        return CombinatorialMap(darts, tuple(alpha), tuple(sigma), g)


def relabel(rng, m: CombinatorialMap) -> CombinatorialMap:
    """Isomorphic copy of m under a random dart relabeling."""
    perm = list(range(1, m.dart_count + 1))
    rng.shuffle(perm)
    alpha = [0] * m.dart_count
    sigma = [0] * m.dart_count
    for d in range(1, m.dart_count + 1):
        alpha[perm[d - 1] - 1] = perm[m.alpha[d - 1] - 1]
        sigma[perm[d - 1] - 1] = perm[m.sigma[d - 1] - 1]
    return CombinatorialMap(
        m.dart_count, tuple(alpha), tuple(sigma), m.declared_genus
    )


def sequential_close(rng, faces_list, manual) -> set[int]:
    """One-vertex-per-step reference closure with a random schedule."""
    colored = set(manual)
    while True:
        candidates = set()
        for face in faces_list:
            left = [v for v in face.distinct_vertices if v not in colored]
            if len(left) == 1:
                candidates.add(left[0])
        if not candidates:
            return colored
        colored.add(rng.choice(sorted(candidates)))


def close_mask(masks, start: int) -> int:
    """Bitmask fixpoint of the percolation rule: vertex v is bit v-1."""
    colored = start
    changed = True
    while changed:
        changed = False
        for mask in masks:
            left = mask & ~colored
            if left and not (left & (left - 1)):
                colored |= left
                changed = True
    return colored


def reference_hull(m: CombinatorialMap) -> tuple[int, tuple[int, ...]]:
    """(size, witness) of the lexicographically least minimum percolating set.

    The bitmask search ``hull_exact`` used before the incremental closure
    engine: subsets in ascending size, lexicographic within a size, each
    closed from scratch.  Kept as a differential oracle for small maps.
    """
    masks = []
    for face in faces(m):
        mask = 0
        for v in face.distinct_vertices:
            mask |= 1 << (v - 1)
        masks.append(mask)
    full = (1 << m.vertex_count) - 1
    for size in range(m.vertex_count + 1):
        for subset in combinations(range(1, m.vertex_count + 1), size):
            start = 0
            for v in subset:
                start |= 1 << (v - 1)
            if close_mask(masks, start) == full:
                return size, subset
    raise AssertionError("the full vertex set failed to percolate")


def reference_exact(m: CombinatorialMap) -> tuple[int, tuple[int, ...], int]:
    """(size, witness, face visits) of the unpruned lexicographic search.

    The prefix-sharing depth-first walk ``hull_exact`` ran before it skipped
    candidates by closure: every subset of each size is closed, in
    lexicographic order.  Kept as the differential oracle for the skip rules
    and as the visit count the pruning is measured against.
    """
    nv = m.vertex_count
    engine = Closure(nv, faces(m))
    engine.add(())
    for size in range(nv + 1):
        prefix: list[int] = []
        marks: list[int] = []
        nxt = 1
        while True:
            if len(prefix) == size and len(engine.order) == nv:
                return size, tuple(prefix), engine.visits
            if len(prefix) < size and nxt <= nv - size + len(prefix) + 1:
                marks.append(len(engine.order))
                engine.add((nxt,))
                prefix.append(nxt)
                nxt += 1
            elif prefix:
                engine.undo(marks.pop())
                nxt = prefix.pop() + 1
            else:
                break
    raise AssertionError("the full vertex set failed to percolate")


def iterative_exact(m: CombinatorialMap, budget: int | None = None) -> HullResult:
    """``hull_exact`` as it ran before it became a recursive search: the
    same two skip rules, stepped with hand-kept stacks (``prefix``,
    ``marks``, a ``covered`` set per depth and an ``nxt`` cursor).  Kept as
    the differential oracle for the witness, the face visits and
    ``BudgetExceeded``'s fields.
    """
    nv = m.vertex_count
    limit = DEFAULT_BUDGET if budget is None else budget
    engine = Closure(nv, faces(m))
    engine.add(())
    colored, order = engine.colored, engine.order
    for size in range(nv + 1):
        # Lexicographic depth-first walk; backtracking undoes to the mark.
        # covered[d] holds the vertices the earlier siblings at depth d
        # colored beyond the prefix's closure.
        prefix: list[int] = []
        marks: list[int] = []
        covered = [set() for _ in range(size + 1)]
        nxt = 1
        while True:
            depth = len(prefix)
            if depth == size:
                if engine.visits > limit:
                    raise BudgetExceeded(
                        f"hull search spent {engine.visits} face visits "
                        f"(budget {limit})",
                        engine.visits,
                    )
                if len(order) == nv:
                    return HullResult(tuple(prefix), "exact", engine.visits)
            if depth < size and nxt <= nv - size + depth + 1:
                if colored[nxt] or nxt in covered[depth]:
                    nxt += 1
                    continue
                mark = len(order)
                marks.append(mark)
                engine.add((nxt,))
                covered[depth].update(order[mark:])
                covered[depth + 1].clear()
                prefix.append(nxt)
                nxt += 1
            elif prefix:
                engine.undo(marks.pop())
                nxt = prefix.pop() + 1
            else:
                break
    raise RuntimeError("the full vertex set failed to percolate")


def _one_cyclic_run(flags: list[bool]) -> tuple[int, int] | None:
    """If the True positions form one nonempty cyclic run, return (start, length)."""
    n = len(flags)
    total = sum(flags)
    if total == 0 or total == n:
        return None
    start = next(
        i for i in range(n) if flags[i] and not flags[(i - 1) % n]
    )
    if all(flags[(start + j) % n] for j in range(total)):
        return start, total
    return None


def reference_walk(bd):
    """The constructive walk as ``hull_constructive_band`` ran it before the
    face frontier: after every pick it rescans every base face in id order,
    and each attempt undoes the engine back to the empty coloring.  It reads
    a face's colored corners with its own ``_one_cyclic_run``.  Kept as the
    differential oracle for the frontier's witnesses, logs and stuck
    messages.
    """
    m = bd.diagram
    derived_genus(m)  # a disconnected diagram raises BandlinkError
    if m.vertex_count == 0:
        return HullResult((), "constructive")

    faces_list = faces(m)
    base_faces = [f for f in faces_list if bd.face_provenance[f.id - 1] is not None]
    if not base_faces:
        raise ConstructionStuck("no base-derived faces to walk", ())

    circle_vertices: list[list[int]] = [[] for _ in range(bd.n)]
    for v in range(1, m.vertex_count + 1):
        for c in bd.circles_of_vertex[v - 1]:
            circle_vertices[c - 1].append(v)
    # One engine serves every start face: each attempt grows it with add()
    # and is undone back to the empty coloring before the next.
    engine = Closure(m.vertex_count, faces_list)
    colored = engine.colored

    def picks_along(face, positions, excluded: int | None) -> list[int]:
        picks: list[int] = []
        for pos in positions:
            v = face.vertex_list[pos]
            if v == excluded or colored[v] or v in picks:
                continue
            if any(
                not any(colored[u] or u in picks for u in circle_vertices[c - 1])
                for c in bd.circles_of_vertex[v - 1]
            ):
                picks.append(v)
        return picks

    def attempt(f0, log: list[str]) -> set[int] | None:
        """One pass of the walk from f0; None signals a dead end."""
        engine.undo(0)
        picks = picks_along(
            f0, range(len(f0.vertex_list)), max(f0.distinct_vertices)
        )
        manual = set(picks)
        log.append(
            f"start face {f0.id}: color " + " ".join(str(v) for v in picks)
        )
        engine.add(picks)
        while len(engine.order) < m.vertex_count:
            progressed = False
            for f in base_faces:
                flags = [colored[v] for v in f.vertex_list]
                if all(flags):
                    continue
                run = _one_cyclic_run(flags)
                if run is None:
                    continue
                start, length = run
                nf = len(f.vertex_list)
                positions = [
                    (start + length + j) % nf for j in range(nf - length)
                ]
                picks = picks_along(f, positions, None)
                if not picks:
                    continue
                manual.update(picks)
                log.append(
                    f"face {f.id}: color " + " ".join(str(v) for v in picks)
                )
                engine.add(picks)
                progressed = True
                break
            if not progressed:
                log.append(f"dead end from face {f0.id}")
                return None
        if len(manual) != bd.n - 1:
            log.append(
                f"witness from face {f0.id} has {len(manual)} vertices, "
                f"expected {bd.n - 1}"
            )
            return None
        return manual

    # A start face whose corners all lie on distinct circles matches the
    # generic picture ("m vertices, m circle components"); try those first,
    # then every remaining start before conceding.
    def generic(f) -> bool:
        circles = {
            c for v in f.distinct_vertices for c in bd.circles_of_vertex[v - 1]
        }
        return (
            len(f.vertex_list) == len(f.distinct_vertices) == len(circles)
        )

    ordered = [f for f in base_faces if generic(f)] + [
        f for f in base_faces if not generic(f)
    ]
    log: list[str] = []
    for f0 in ordered:
        manual = attempt(f0, log)
        if manual is not None:
            return HullResult(tuple(sorted(manual)), "constructive", 0, tuple(log))
    raise ConstructionStuck(
        "every start face led to a dead end", tuple(log)
    )


def reference_layout(m: CombinatorialMap, comp, faces_list) -> dict[int, tuple[float, float]]:
    """Vertex positions of one component, as ``render`` computed them on dicts.

    The relaxation ``render._layout`` (then ``_component_layout``) used
    before it moved to complex points in flat rows: rim on a circle, then ``ROUNDS``
    Gauss-Seidel rounds in ascending vertex id, each vertex set to the mean
    of its neighbours in rotation order.  Kept as a differential oracle.

    Each mean adds the neighbours' x (and, apart, their y) left to right in
    an explicit loop, not with the builtin ``sum``: from CPython 3.12 on
    ``sum`` compensates float sums, so its floats would depend on the
    interpreter, while plain left-to-right doubles are the same on all.
    """
    comp_set = set(comp)
    comp_faces = [f for f in faces_list if f.boundary[0] in comp_set]
    outer = max(comp_faces, key=lambda f: (len(f.boundary), -f.id))
    rim: list[int] = []
    for v in outer.vertex_list:
        if v not in rim:
            rim.append(v)
    pos: dict[int, tuple[float, float]] = {}
    for i, v in enumerate(rim):
        ang = -math.pi / 2 + 2 * math.pi * i / len(rim)
        pos[v] = (RADIUS * math.cos(ang), RADIUS * math.sin(ang))
    inner = sorted({m.vertex_of[d - 1] for d in comp} - set(rim))
    for v in inner:
        pos[v] = (0.0, 0.0)
    neighbors: dict[int, list[int]] = {v: [] for v in inner}
    for v in inner:
        for d in m.vertex_cycles[v - 1]:
            neighbors[v].append(m.vertex_of[m.alpha[d - 1] - 1])
    for _ in range(ROUNDS):
        for v in inner:
            x = y = 0.0
            for u in neighbors[v]:
                x += pos[u][0]
                y += pos[u][1]
            pos[v] = (x / len(neighbors[v]), y / len(neighbors[v]))
    return pos


def _check_valences(m: CombinatorialMap) -> tuple[list[int], list[int]]:
    two, four = [], []
    for vid, cyc in enumerate(m.vertex_cycles, start=1):
        if len(cyc) == 2:
            two.append(vid)
        elif len(cyc) == 4:
            four.append(vid)
        else:
            raise BandlinkError(
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


class _ReferenceBuilder(_Builder):
    """``_Builder`` with the ``corridor`` it had before a corridor carried
    its ports through one loop: untwisted segments were a special case."""

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


def reference_build(spec: BandSpec) -> BandDiagram:
    """``build_band`` as it ran before it built in one pass: it built the
    subdivided base as a map, checked it, and read the clasps, hashes,
    segments and faces back from it.  It shares today's ``_Builder`` gadgets
    but threads twists with the old ``corridor``.  Kept as the differential
    oracle for the one-pass numbering of points, segments, crossings and
    faces, and for the corridor's twist chains.
    """
    base = spec.base
    m, segments = _subdivide(base, spec.subdivisions)
    validate(m)
    two, four = _check_valences(m)

    seg_twist: dict[tuple[int, int], int] = {}
    for eid in range(1, base.edge_count + 1):
        for pair, t in zip(segments[eid - 1], spec.twists[eid - 1]):
            seg_twist[pair] = t

    b = _ReferenceBuilder()
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
        raise RuntimeError("crossing count does not add up")

    # Genus preservation: validate refuses a disconnected map, so the base,
    # its subdivision and the diagram are each one surface of the genus
    # the base declares.
    validate(base)
    validate(dl)

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
