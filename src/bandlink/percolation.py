"""Face percolation: spreading a coloring of the vertices across faces.

The rule: a vertex is colored automatically at step s+1 when some face
contains it and every *other* distinct vertex of that face is already
colored.  A face with a single distinct vertex therefore colors that vertex
unconditionally.  Rounds are simultaneous; the closed set is independent of
scheduling, which the test suite checks against a one-vertex-per-step
reference.

The rule is written once, in the incremental engine :class:`Closure`.  Its
work unit is the face visit: one per face when the engine is built, plus one
per face a newly colored vertex touches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .cmap import CombinatorialMap, Face
from .errors import CmapFormatError, UnknownVertex, clip_repr, json_typed


@dataclass(frozen=True)
class Coloring:
    """Result of a percolation run.

    ``auto`` maps each automatically colored vertex to the step it was
    colored at (manual vertices are step 0).  Values are frozen after
    construction and safe to share.
    """

    manual: frozenset[int]
    auto: Mapping[int, int]
    vertex_count: int

    @property
    def colored(self) -> frozenset[int]:
        return self.manual | frozenset(self.auto)

    @property
    def complete(self) -> bool:
        return len(self.colored) == self.vertex_count

    def step_of(self, v: int) -> int | None:
        if v in self.manual:
            return 0
        return self.auto.get(v)


@dataclass(frozen=True)
class TraceEntry:
    step: int
    vertex: int
    face: int


@dataclass(frozen=True)
class PercolationTrace:
    manual: tuple[int, ...]
    entries: tuple[TraceEntry, ...] = field(default_factory=tuple)


def check_vertices(vertices: Iterable[int], vertex_count: int) -> frozenset[int]:
    """The distinct vertex ids given, each checked to lie in 1..vertex_count."""
    out = frozenset(vertices)
    for v in out:
        if not 1 <= v <= vertex_count:
            raise UnknownVertex(f"vertex {clip_repr(v)} outside 1..{vertex_count}")
    return out


class Closure:
    """Incremental percolation state over one map's faces (internal).

    Each face keeps the count of its uncolored distinct vertices and the sum
    of their ids.  When the count drops to 1 the sum is the vertex that face
    colors, and the face joins ``ready``; a face with a single distinct
    vertex starts there.  ``order`` lists the colored vertices in coloring
    order, so a mark is a length of it.  ``visits`` counts face visits: one
    per face at construction plus one per face each colored vertex touches.
    """

    def __init__(self, vertex_count: int, faces_list: Sequence[Face]):
        self.count = [len(f.distinct_vertices) for f in faces_list]
        self.sum = [sum(f.distinct_vertices) for f in faces_list]
        self.faces_of: list[list[int]] = [[] for _ in range(vertex_count + 1)]
        for i, f in enumerate(faces_list):
            for v in f.distinct_vertices:
                self.faces_of[v].append(i)
        self.ready = [i for i, c in enumerate(self.count) if c == 1]
        self.colored = [False] * (vertex_count + 1)
        self.order: list[int] = []
        self.visits = len(faces_list)

    def color(self, v: int) -> None:
        """Color one uncolored vertex, without running to the fixpoint."""
        self.colored[v] = True
        self.order.append(v)
        self.visits += len(self.faces_of[v])
        for f in self.faces_of[v]:
            self.count[f] -= 1
            self.sum[f] -= v
            if self.count[f] == 1:
                self.ready.append(f)

    def add(self, vertices: Iterable[int]) -> None:
        """Color the given vertices, then run the rule to its fixpoint."""
        for v in vertices:
            if not self.colored[v]:
                self.color(v)
        while self.ready:
            f = self.ready.pop()
            if self.count[f] == 1:
                self.color(self.sum[f])

    def undo(self, mark: int) -> None:
        """Uncolor every vertex colored after ``len(order)`` was ``mark``."""
        while len(self.order) > mark:
            v = self.order.pop()
            self.colored[v] = False
            for f in self.faces_of[v]:
                self.count[f] += 1
                self.sum[f] += v
                if self.count[f] == 1:
                    self.ready.append(f)


def close(
    m: CombinatorialMap,
    faces_list: Sequence[Face],
    manual: Iterable[int],
) -> tuple[Coloring, PercolationTrace]:
    """Run simultaneous rounds to the fixpoint, recording a trace.

    Within a round every face is inspected against the coloring from the
    previous round; a vertex colored this round records the smallest face id
    that witnessed it.
    """
    manual_set = check_vertices(manual, m.vertex_count)
    engine = Closure(m.vertex_count, faces_list)
    for v in manual_set:
        engine.color(v)
    auto: dict[int, int] = {}
    entries: list[TraceEntry] = []
    step = 0
    while True:
        step += 1
        firing = sorted(f for f in engine.ready if engine.count[f] == 1)
        engine.ready.clear()
        newly: dict[int, int] = {}
        for f in firing:
            newly.setdefault(engine.sum[f], faces_list[f].id)
        if not newly:
            break
        for v in sorted(newly):
            auto[v] = step
            entries.append(TraceEntry(step, v, newly[v]))
            engine.color(v)
    coloring = Coloring(manual_set, auto, m.vertex_count)
    return coloring, PercolationTrace(tuple(sorted(manual_set)), tuple(entries))


# Trace serialisation: a `manual:` line followed by one line per colored
# vertex, plus a JSON twin with the same content.


def format_trace(trace: PercolationTrace) -> str:
    lines = ["manual: " + " ".join(str(v) for v in trace.manual)]
    for e in trace.entries:
        lines.append(f"step {e.step} vertex {e.vertex} face {e.face}")
    return "\n".join(lines) + "\n"


def trace_to_json(trace: PercolationTrace) -> str:
    doc = {
        "manual": list(trace.manual),
        "steps": [
            {"step": e.step, "vertex": e.vertex, "face": e.face}
            for e in trace.entries
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_trace(text: str) -> PercolationTrace:
    """Read either trace flavour (text or JSON)."""
    body = text.strip()
    if body.startswith("{"):
        try:
            doc = json.loads(body)
        except (ValueError, RecursionError) as exc:
            raise CmapFormatError(f"bad trace JSON: {exc}") from exc
        try:
            manual = json_typed(doc.get("manual", []), list, "manual")
            steps = json_typed(doc.get("steps", []), list, "steps")
            return PercolationTrace(
                tuple(json_typed(v, int, "manual vertex") for v in manual),
                tuple(
                    TraceEntry(*(json_typed(s[k], int, k) for k in ("step", "vertex", "face")))
                    for s in steps
                ),
            )
        except (KeyError, TypeError) as exc:
            raise CmapFormatError(f"bad trace JSON: {exc}") from exc
    manual: tuple[int, ...] = ()
    entries = []
    for lineno, raw in enumerate(body.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("manual:"):
                manual = tuple(int(tok) for tok in line.split(":", 1)[1].split())
                continue
            parts = line.split()
            if len(parts) != 6 or parts[0] != "step" or parts[2] != "vertex" or parts[4] != "face":
                raise ValueError
            entries.append(TraceEntry(int(parts[1]), int(parts[3]), int(parts[5])))
        except ValueError:
            raise CmapFormatError(f"line {lineno}: bad trace line {clip_repr(line)}") from None
    return PercolationTrace(manual, tuple(entries))
