"""Percolation hulls: smallest vertex sets whose closure colors everything.

Two strategies, both on the closure engine of :mod:`bandlink.percolation`.
``hull_exact`` tries subsets in ascending size, lexicographic within a size,
so the first hit is the canonical minimum witness.  A recursive depth-first
search grows a prefix one vertex at a time, so subsets that share a prefix
share its closure.  With prefix P, it skips candidate c and every extension:

- when the closure of P already colors c.  A set holding P and c has the
  closure of the same set without c, which is one smaller, and that size
  failed.
- when an earlier sibling c' < c colored c beyond the closure of P.  Then
  cl(P + c) lies inside cl(P + c'), so P + c + T percolates only if the
  lexicographically earlier P + c' + T does, and that set came first.

A skipped set cannot be the lexicographically first percolating set of its
size, so the witness is the one the unpruned search finds.  Neither rule
uses the circle count.  The search meters its work in face visits against a
budget because the space is binomial; a skipped set costs none.

``hull_constructive_band`` walks a band diagram face by face and returns the
picks of the first walk that colors every vertex, whatever their number; it
never searches, so it scales, but it only applies to band diagrams.  Whether
a witness meets the circle count's bound is for :mod:`bandlink.bounds` to say.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, NamedTuple

from .cmap import CombinatorialMap, faces
from .errors import BandlinkError, BudgetExceeded, ConstructionStuck
from .percolation import Closure, close

if TYPE_CHECKING:
    from .band import BandDiagram

DEFAULT_BUDGET = 10**8


class HullResult(NamedTuple):
    """A witness set and how it was found; ``report`` and the ``hull`` command
    re-verify the witness by ``close``'s rounds, not the loop that found it.

    ``examined`` counts the closure engine's face visits the search or the
    walk spent, over every start face the walk tried; subsets the exhaustive
    search skips cost none.  ``log`` narrates constructive decisions.
    """

    witness: tuple[int, ...]
    method: str
    examined: int = 0
    log: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return len(self.witness)


def verify_witness(m: CombinatorialMap, witness) -> bool:
    """Whether a vertex set of ids in 1..V percolates, by the rounds of
    :func:`close`: a loop neither search runs, sharing only per-face tables."""
    return close(m, faces(m), witness)[0].complete


def witness_text(witness) -> str:
    """A witness as every output prints it: its ids, or ``-`` when empty."""
    return " ".join(map(str, witness)) or "-"


def check_witness(m: CombinatorialMap, witness) -> None:
    """Refuse a witness that :func:`verify_witness` finds does not percolate."""
    if not verify_witness(m, witness):
        raise BandlinkError(f"witness {witness_text(witness)} does not percolate")


def hull_exact(m: CombinatorialMap, budget: int | None = None) -> HullResult:
    """Find a minimum percolating set by exhaustive ascending search.

    The witness is the lexicographically smallest minimum set, the one the
    unpruned search finds; the module docstring gives the two skip rules and
    why they keep it.  ``extend`` tries each candidate after the prefix's
    last vertex, recurses on the longer prefix and undoes the engine to its
    mark.  The budget is measured in face visits of the closure engine and
    checked after each full subset; skipped subsets cost none.
    """
    nv = m.vertex_count
    limit = DEFAULT_BUDGET if budget is None else budget
    engine = Closure(nv, faces(m))
    engine.add(())
    colored, order = engine.colored, engine.order

    def extend(prefix: tuple[int, ...], size: int) -> tuple[int, ...] | None:
        # The first percolating set of this size that extends prefix, whose
        # closure the engine holds.  The recursion is as deep as the set is
        # large: at most 8 on any search the tests or the benchmark run.
        if len(prefix) == size:
            if engine.visits > limit:
                raise BudgetExceeded(
                    f"hull search spent {engine.visits} face visits (budget {limit})",
                    engine.visits,
                )
            return prefix if len(order) == nv else None
        covered: set[int] = set()  # colored by earlier siblings beyond cl(prefix)
        first = prefix[-1] + 1 if prefix else 1
        for c in range(first, nv - size + len(prefix) + 2):
            if colored[c] or c in covered:
                continue
            mark = len(order)
            engine.add((c,))
            covered.update(order[mark:])
            found = extend(prefix + (c,), size)
            if found is not None:
                return found
            engine.undo(mark)
        return None

    for size in range(nv + 1):
        witness = extend((), size)
        if witness is not None:
            return HullResult(witness, "exact", engine.visits)
    raise RuntimeError("the full vertex set failed to percolate")


def extension_positions(colored, corners) -> list[int] | None:
    """The pick positions of a face with corners ``corners``, or None when
    it does not extend: the uncolored corners that run on from the one
    position p with a colored corner at p - 1 and an uncolored one at p."""
    n = len(corners)
    flags = [colored[v] for v in corners]
    steps = [p for p in range(n) if flags[p - 1] and not flags[p]]
    if len(steps) != 1:
        return None
    return [q % n for q in range(steps[0], steps[0] + n) if not flags[q % n]]


def hull_constructive_band(bd: BandDiagram) -> HullResult:
    """Build a witness by walking base-derived faces.

    Starts from a base-derived face and colors its corners, skipping the
    largest-id one.  Corners are read in order, and one with a circle that
    is neither touched nor claimed by an earlier pick on that face is picked
    and claims both its circles.  So a clasp corner whose two circles are
    claimed is skipped even when it would join two separate groups of
    circles, and a face can get fewer picks than all corners but one.  Then
    repeatedly extends along the lowest-id base-derived face whose colored
    corners form one nonempty cyclic run and that still has a pick, and
    recloses.  Each run ends where a colored corner is followed by an
    uncolored one, so one such step is the same test.  Twist crossings
    are never picked; they fill in once their circle is touched.  The picks
    of the first walk that colors every vertex are the witness, whatever
    their number.  Raises ConstructionStuck with the decision log only when
    no start face colors everything.  Either way ``examined`` holds the
    engine's face visits.

    Candidate faces sit on a heap, pushed when a corner of theirs is colored
    and another is not.  A face that does not extend is dropped until then:
    its run and picks depend only on its own corners and on the touched
    circles, which only grow, and a face with every corner colored never
    extends again.
    Two per-vertex tables, built once for all start faces, serve each newly
    colored vertex: its pair of circles and its base-derived faces.
    """
    m = bd.diagram
    faces_list = faces(m)
    is_base = [p is not None for p in bd.face_provenance]
    base_faces = [f for f, base in zip(faces_list, is_base) if base]
    if not base_faces:
        raise ConstructionStuck("no base-derived faces to walk", ())

    # One engine serves every start face: each attempt grows it with add()
    # and resets it to the empty coloring before the next.  touched[c]
    # says whether circle c has a colored vertex, and uncolored[i], the
    # engine's own count, how many distinct corners of face i are uncolored.
    engine = Closure(m.vertex_count, faces_list)
    colored, order, uncolored = engine.colored, engine.order, engine.count
    touched = [False] * (bd.n + 1)
    # Indexed by vertex id, with an unused entry at 0, like engine.faces_of.
    circles = [(0, 0), *bd.circles_of_vertex]
    base_faces_of = [[i for i in fs if is_base[i]] for fs in engine.faces_of]

    def picks_along(face, positions) -> list[int]:
        # No position holds a colored corner: pick one with a circle that
        # is neither touched nor claimed by an earlier pick.
        picks: list[int] = []
        claimed: set[int] = set()
        for pos in positions:
            v = face.vertex_list[pos]
            a, b = circles[v]
            if (not touched[a] and a not in claimed) or (not touched[b] and b not in claimed):
                picks.append(v)
                claimed.add(a)
                claimed.add(b)
        return picks

    def attempt(f0, log: list[str]) -> set[int] | None:
        """One pass of the walk from f0: its picks, or None at a dead end."""
        engine.reset()
        touched[:] = [False] * len(touched)
        heap: list[int] = []
        queued = [False] * len(faces_list)
        manual: set[int] = set()
        top = max(f0.distinct_vertices)
        picks = picks_along(
            f0, [p for p, v in enumerate(f0.vertex_list) if v != top]
        )
        log.append(f"start face {f0.id}: color " + " ".join(map(str, picks)))
        while True:
            manual.update(picks)
            mark = len(order)
            engine.add(picks)
            for v in order[mark:]:
                a, b = circles[v]
                touched[a] = touched[b] = True
                for i in base_faces_of[v]:
                    if not queued[i] and uncolored[i]:
                        queued[i] = True
                        heappush(heap, i)
            if len(order) == m.vertex_count:
                return manual
            while heap:
                i = heappop(heap)
                queued[i] = False
                f = faces_list[i]
                positions = extension_positions(colored, f.vertex_list)
                if positions is None:
                    continue
                picks = picks_along(f, positions)
                if picks:
                    break
            else:
                log.append(f"dead end from face {f0.id}")
                return None
            log.append(f"face {f.id}: color " + " ".join(map(str, picks)))

    # A start face whose corners all lie on distinct circles matches the
    # generic picture ("m vertices, m circle components"); try those first,
    # then every remaining start before conceding.
    def generic(f) -> bool:
        touching = {c for v in f.distinct_vertices for c in circles[v]}
        return len(f.vertex_list) == len(f.distinct_vertices) == len(touching)

    log: list[str] = []
    for f0 in sorted(base_faces, key=lambda f: not generic(f)):
        manual = attempt(f0, log)
        if manual is not None:
            return HullResult(tuple(sorted(manual)), "constructive", engine.visits, tuple(log))
    raise ConstructionStuck(
        "every start face led to a dead end", tuple(log), engine.visits
    )
