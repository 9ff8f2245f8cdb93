"""Shared fixture builders and seeded generators for the tests.

Every generator takes an explicit rng; nothing here touches global state.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

from bandlink import BandSpec, CombinatorialMap, derived_genus, faces
from bandlink.errors import BandlinkError, ConstructionStuck
from bandlink.hull import HullResult, _one_cyclic_run
from bandlink.percolation import Closure
from bandlink.render import RADIUS, ROUNDS

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# An integer whose repr alone is far longer than an error line may be.
HUGE = int("9" * 4000)


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
        except BandlinkError:
            continue
        if m.is_connected() and derived_genus(m) == want_genus:
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
        if not m.is_connected():
            continue
        g = derived_genus(m)
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


def reference_walk(bd):
    """The constructive walk as ``hull_constructive_band`` ran it before the
    face frontier: after every pick it rescans every base face in id order,
    and each attempt undoes the engine back to the empty coloring.  Kept as
    the differential oracle for the frontier's witnesses, logs and stuck
    messages.
    """
    m = bd.diagram
    if not m.is_connected():
        raise ConstructionStuck(
            "the chain walk needs a connected diagram", ("diagram is disconnected",)
        )
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

    The relaxation ``render._component_layout`` used before it moved to two
    flat float lists, one for x and one for y: rim on a circle, then ``ROUNDS``
    Gauss-Seidel rounds in ascending vertex id, each vertex set to the mean
    of its neighbours in rotation order.  Kept as a differential oracle.
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
            xs = [pos[u][0] for u in neighbors[v]]
            ys = [pos[u][1] for u in neighbors[v]]
            pos[v] = (sum(xs) / len(xs), sum(ys) / len(ys))
    return pos
