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
from bandlink.band import KIND_CLASP, KIND_TWIST, BandDiagram, _Builder
from bandlink.cmap import Strand
from bandlink.errors import BandlinkError, BudgetExceeded, ConstructionStuck
from bandlink.hull import DEFAULT_BUDGET, HullResult
from bandlink.percolation import Closure
from bandlink.render import MARGIN, RADIUS, ROUNDS, _blend, _fmt

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
    one pick more than n - 1.

    The seeded spec has V = 16 and n = 3, with base faces 2, 5 and 11.  Its
    provenance is rewritten to mark faces 6, 12, 16 and 18 as base and the
    rest as internal.  Faces 6 and 12 dead-end as start faces; from face 16
    the walk colors every vertex with three picks, where h = n - 1 = 2.
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


def _matchings(darts: list[int]):
    """Every perfect matching of ``darts``, as a list of pairs."""
    if not darts:
        yield []
        return
    first, rest = darts[0], darts[1:]
    for i, d in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:]):
            yield [(first, d), *tail]


def _rooted_code(alpha, sigma, root: int) -> tuple[int, ...] | None:
    """The map relabelled breadth first from ``root``, following sigma then
    alpha, as its sigma images then its alpha images; None when that search
    misses a dart."""
    label = {root: 1}
    order = [root]
    for d in order:
        for e in (sigma[d - 1], alpha[d - 1]):
            if e not in label:
                label[e] = len(order) + 1
                order.append(e)
    if len(order) < len(alpha):
        return None
    return tuple(label[sigma[d - 1]] for d in order) + tuple(label[alpha[d - 1]] for d in order)


def census_bases(max_edges: int):
    """Every connected map with 2- and 4-valent vertices and at most
    ``max_edges`` edges, once per orientation-preserving isomorphism class,
    as ``(alpha, sigma, genus)`` in canonical numbering.

    Per valence sequence sigma is fixed and alpha runs over every perfect
    matching.  An orientation-preserving isomorphism commutes with sigma and
    alpha, so it carries the breadth-first relabelling from a root to the one
    from the root's image: the least relabelling over all roots is a complete
    invariant, and it is the canonical numbering.  Bases come by edge count,
    then by that code.
    """
    for e in range(1, max_edges + 1):
        darts = list(range(1, 2 * e + 1))
        found = set()
        for fours in range(e // 2 + 1):
            sigma: list[int] = []
            for k in [4] * fours + [2] * (e - 2 * fours):
                sigma += [len(sigma) + (i + 1) % k + 1 for i in range(k)]
            for pairs in _matchings(darts):
                alpha = [0] * (2 * e)
                for a, b in pairs:
                    alpha[a - 1], alpha[b - 1] = b, a
                if _rooted_code(alpha, sigma, 1) is not None:
                    found.add(min(_rooted_code(alpha, sigma, r) for r in darts))
        for code in sorted(found):
            sigma, alpha = code[:2 * e], code[2 * e:]
            yield alpha, sigma, derived_genus(CombinatorialMap(2 * e, alpha, sigma, 0))


def census_specs(max_edges: int):
    """The census bands, as ``bench/gen.py`` Specs whose ``genus`` is their
    base's.  Base i (from 1, in :func:`census_bases` order) gives ``b<i>``,
    with the least subdivisions and no twists; ``b<i>+s<j>``, with one more
    subdivision point on edge j; and ``b<i>+t<j>``, with one twist on the
    first segment of edge j."""
    gen = bench_gen()
    for i, (alpha, sigma, genus) in enumerate(census_bases(max_edges), start=1):
        least = gen.Spec(f"b{i}", alpha, sigma, genus)
        yield least
        for j, (d, dp, k, _) in enumerate(least.edges, start=1):
            yield gen.Spec(f"b{i}+s{j}", alpha, sigma, genus, {(d, dp): (k + 1, [0] * (k + 2))})
        for j, (d, dp, k, _) in enumerate(least.edges, start=1):
            yield gen.Spec(f"b{i}+t{j}", alpha, sigma, genus, {(d, dp): (k, [1] + [0] * k)})


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


def reference_strands(m: CombinatorialMap) -> tuple[Strand, ...]:
    """The strands as ``CombinatorialMap.strands`` walked them before it
    became ``cycles_of_images(alpha, opposite)``: one loop of its own that
    looks each arrival's valence up again.  Kept as the oracle for the
    orbit walker; it names the first bad vertex its walk reaches, not the
    lowest one.
    """
    n = m.dart_count
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        walk: list[int] = []
        d = start
        while True:
            arrive = m.alpha[d - 1]
            walk.append(d)
            walk.append(arrive)
            seen[d] = True
            seen[arrive] = True
            d = _opposite(m, arrive)
            if d == start:
                break
        out.append(Strand(len(out) + 1, tuple(walk)))
    return tuple(out)


def _opposite(m: CombinatorialMap, d: int) -> int:
    """The dart opposite d in its vertex rotation; valence must be 2 or 4."""
    val = len(m.vertex_cycles[m.vertex_of[d - 1] - 1])
    if val == 2:
        return m.sigma[d - 1]
    if val == 4:
        return m.sigma[m.sigma[d - 1] - 1]
    raise BandlinkError(
        f"vertex {m.vertex_of[d - 1]} has valence {val}; strands need 2 or 4"
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


def reference_svg(m: CombinatorialMap, pos, coloring=None, band=None) -> str:
    """The SVG text ``render_svg`` wrote from the positions ``pos`` before it
    formatted each vertex once.

    Every coordinate goes through ``_fmt`` where it is written, and every
    tinted vertex gets its own ``_blend``.  Kept as a differential oracle for
    the SVG bytes; ``pos`` is ``render._layout(m)`` of a connected, non-empty
    genus 0 map.
    """
    min_x = min(x for x, _ in pos.values()) - MARGIN
    max_x = max(x for x, _ in pos.values()) + MARGIN
    min_y = min(y for _, y in pos.values()) - MARGIN
    max_y = max(y for _, y in pos.values()) + MARGIN
    width, height = max_x - min_x, max_y - min_y

    def at(v: int) -> tuple[float, float]:
        x, y = pos[v]
        return x - min_x, y - min_y

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    ]

    by_pair: dict[tuple[int, int], list[int]] = {}
    for eid, (d, dp) in enumerate(m.edge_pairs, start=1):
        u, v = m.vertex_of[d - 1], m.vertex_of[dp - 1]
        by_pair.setdefault((min(u, v), max(u, v)), []).append(eid)

    def edge(eid: int, tag: str, shape: str) -> None:
        lines.append(
            f'<{tag} {shape} stroke="#555" stroke-width="1.5">'
            f"<title>edge {eid}</title></{tag}>"
        )

    for (u, v), eids in sorted(by_pair.items()):
        ux, uy = at(u)
        vx, vy = at(v)
        if u == v:
            for k, eid in enumerate(eids):
                ang = 2 * math.pi * k / len(eids)
                c1 = (ux + 90.0 * math.cos(ang - 0.5), uy + 90.0 * math.sin(ang - 0.5))
                c2 = (ux + 90.0 * math.cos(ang + 0.5), uy + 90.0 * math.sin(ang + 0.5))
                edge(eid, "path", (
                    f'd="M {_fmt(ux)} {_fmt(uy)} '
                    f"C {_fmt(c1[0])} {_fmt(c1[1])}, {_fmt(c2[0])} {_fmt(c2[1])}, "
                    f'{_fmt(ux)} {_fmt(uy)}" fill="none"'
                ))
        elif len(eids) == 1:
            edge(eids[0], "line", (
                f'x1="{_fmt(ux)}" y1="{_fmt(uy)}" x2="{_fmt(vx)}" y2="{_fmt(vy)}"'
            ))
        else:
            dx, dy = vx - ux, vy - uy
            norm = math.hypot(dx, dy) or 1.0
            nx, ny = -dy / norm, dx / norm
            for k, eid in enumerate(eids):
                off = 26.0 * (k - (len(eids) - 1) / 2)
                cx = (ux + vx) / 2 + nx * off
                cy = (uy + vy) / 2 + ny * off
                edge(eid, "path", (
                    f'd="M {_fmt(ux)} {_fmt(uy)} '
                    f'Q {_fmt(cx)} {_fmt(cy)}, {_fmt(vx)} {_fmt(vy)}" fill="none"'
                ))

    kind_stroke = {KIND_CLASP: "#c0392b", KIND_TWIST: "#8e44ad"}
    max_step = 0
    if coloring is not None and coloring.auto:
        max_step = max(coloring.auto.values())
    for v in range(1, m.vertex_count + 1):
        x, y = at(v)
        fill = "#ffffff"
        if coloring is not None:
            step = coloring.step_of(v)
            if step == 0:
                fill = "#f4a261"
            elif step is not None:
                fill = _blend(step, max_step)
        stroke = "#333333"
        title = f"vertex {v}"
        if band is not None:
            cr = band.crossing_kind[v - 1]
            stroke = kind_stroke.get(cr.kind, stroke)
            title = f"vertex {v}: {cr.kind} {cr.owner} slot {cr.slot}"
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="6" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1.5">'
            f"<title>{title}</title></circle>"
        )
        lines.append(
            f'<text x="{_fmt(x + 9)}" y="{_fmt(y - 9)}" '
            f'font-size="11" font-family="monospace">{v}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


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
