"""Percolation hulls: smallest vertex sets whose closure colors everything.

Two strategies, both on the closure engine of :mod:`bandlink.percolation`.
``hull_exact`` tries subsets in ascending size, lexicographic within a size,
so the first hit is the canonical minimum witness; subsets that share a prefix
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

``hull_constructive_band`` walks a band diagram face by face and assembles a
witness of size n - 1 directly, where n is the number of circles; it never
searches, so it scales, but it only applies to band diagrams.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, NamedTuple

from .cmap import CombinatorialMap, faces
from .errors import BudgetExceeded, ConstructionStuck
from .percolation import Closure, check_vertices

if TYPE_CHECKING:
    from .band import BandDiagram

DEFAULT_BUDGET = 10**8


class HullResult(NamedTuple):
    """A witness set and how it was found; ``report`` re-verifies the witness.

    ``examined`` counts the closure engine's face visits spent by the
    exhaustive search (0 for the constructive route); subsets it skips cost
    none.  ``log`` narrates constructive decisions.
    """

    witness: tuple[int, ...]
    method: str
    examined: int = 0
    log: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return len(self.witness)


def verify_witness(m: CombinatorialMap, witness) -> bool:
    """Check on a fresh closure that a vertex set of ids in 1..V percolates."""
    engine = Closure(m.vertex_count, faces(m))
    engine.add(check_vertices(witness, m.vertex_count))
    return len(engine.order) == m.vertex_count


def hull_exact(m: CombinatorialMap, budget: int | None = None) -> HullResult:
    """Find a minimum percolating set by exhaustive ascending search.

    The witness is the lexicographically smallest minimum set, the one the
    unpruned search finds; the module docstring gives the two skip rules and
    why they keep it.  The budget is measured in face visits of the closure
    engine and checked after each full subset; skipped subsets cost none.
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
                        examined=engine.visits,
                        best_known=size - 1 if size else None,
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


def hull_constructive_band(bd: BandDiagram) -> HullResult:
    """Build an (n - 1)-vertex witness by walking base-derived faces.

    Starts from a base-derived face and colors its corners, skipping the
    largest-id one.  Corners are read in order, and one with a circle that
    is neither touched nor claimed by an earlier pick on that face is picked
    and claims both its circles.  So a clasp corner whose two circles are
    claimed is skipped even when it would join two separate groups of
    circles, and a face can get fewer picks than all corners but one.  Then
    repeatedly extends along the lowest-id base-derived face whose colored
    corners form one nonempty cyclic run and that still has a pick, and
    recloses.  Twist crossings are never picked; they fill in once their
    circle is touched.  Raises ConstructionStuck with the decision log when
    no start face leads to a full coloring with an n - 1 vertex witness.

    Candidate faces sit on a heap, pushed when a corner of theirs is colored.
    A face that does not extend is dropped until then: its run and picks
    depend only on its own corners and on the touched circles, which only grow.
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

    circles_of = bd.circles_of_vertex
    base_of: list[list[int]] = [[] for _ in range(m.vertex_count + 1)]
    for i, f in enumerate(base_faces):
        for v in f.distinct_vertices:
            base_of[v].append(i)
    # One engine serves every start face: each attempt grows it with add()
    # and resets it to the empty coloring before the next.  touched[c]
    # says whether circle c has a colored vertex.
    engine = Closure(m.vertex_count, faces_list)
    colored, order = engine.colored, engine.order
    touched = [False] * (bd.n + 1)

    def picks_along(face, positions, excluded: int | None) -> list[int]:
        # No position holds a colored corner: pick one with a circle that
        # is neither touched nor claimed by an earlier pick.
        picks: list[int] = []
        claimed: set[int] = set()
        for pos in positions:
            v = face.vertex_list[pos]
            if v != excluded and any(
                not touched[c] and c not in claimed for c in circles_of[v - 1]
            ):
                picks.append(v)
                claimed.update(circles_of[v - 1])
        return picks

    def attempt(f0, log: list[str]) -> set[int] | None:
        """One pass of the walk from f0; None signals a dead end."""
        engine.reset()
        touched[:] = [False] * len(touched)
        heap: list[int] = []
        queued = [False] * len(base_faces)
        manual: set[int] = set()
        picks = picks_along(
            f0, range(len(f0.vertex_list)), max(f0.distinct_vertices)
        )
        log.append(
            f"start face {f0.id}: color " + " ".join(str(v) for v in picks)
        )
        while True:
            manual.update(picks)
            mark = len(order)
            engine.add(picks)
            for v in order[mark:]:
                for c in circles_of[v - 1]:
                    touched[c] = True
                for i in base_of[v]:
                    if not queued[i]:
                        queued[i] = True
                        heappush(heap, i)
            if len(order) == m.vertex_count:
                break
            while heap:
                i = heappop(heap)
                queued[i] = False
                f = base_faces[i]
                run = _one_cyclic_run([colored[v] for v in f.vertex_list])
                if run is None:
                    continue
                start, length = run
                nf = len(f.vertex_list)
                positions = [
                    (start + length + j) % nf for j in range(nf - length)
                ]
                picks = picks_along(f, positions, None)
                if picks:
                    break
            else:
                log.append(f"dead end from face {f0.id}")
                return None
            log.append(
                f"face {f.id}: color " + " ".join(str(v) for v in picks)
            )
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
