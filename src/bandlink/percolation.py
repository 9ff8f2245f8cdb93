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

from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .cmap import CombinatorialMap, Face
from .errors import BandlinkError, ascii_ints, clip_repr, json_typed, parse_json


class Coloring(NamedTuple):
    """Result of a percolation run.

    ``auto`` maps each automatically colored vertex to the step it was
    colored at (manual vertices are step 0).  Values are frozen after
    construction and safe to share: :func:`close` hands ``auto`` out as a
    read-only mapping.
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


class TraceEntry(NamedTuple):
    step: int
    vertex: int
    face: int


class PercolationTrace(NamedTuple):
    manual: tuple[int, ...]
    entries: tuple[TraceEntry, ...] = ()


def check_vertices(vertices: Iterable[int], vertex_count: int) -> frozenset[int]:
    """The distinct vertex ids given, each checked to be an ``int`` (not a
    bool, float or string) in 1..vertex_count."""
    given = tuple(vertices)
    for v in given:
        if type(v) is not int:
            raise BandlinkError(f"vertex id {clip_repr(v)} is not an integer")
    out = frozenset(given)
    for v in out:
        if not 1 <= v <= vertex_count:
            raise BandlinkError(f"vertex {clip_repr(v)} outside 1..{vertex_count}")
    return out


class Closure:
    """Incremental percolation state over one map's faces (internal).

    Each face keeps the count of its uncolored distinct vertices and the sum
    of their ids.  When the count drops to 1 the sum is the vertex that face
    colors, and the face joins ``ready``; a face with a single distinct
    vertex starts there.  ``order`` lists the colored vertices in coloring
    order, so a mark is a length of it.  ``visits`` counts face visits: one
    per face at construction plus one per face each colored vertex touches.
    :meth:`add` (one local loop), :meth:`undo` and :meth:`reset` serve the
    searches; :meth:`color` serves :func:`close`, the witness check, whose
    simultaneous rounds color a round's vertices without running the rule.
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
        self._empty = (self.count[:], self.sum[:], self.ready[:])

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
        """Color the given vertices, then run the rule to its fixpoint.

        The given vertices come first, in their order, then each vertex a
        popped ready face names; one local loop colors them all, and
        ``visits`` grows once, at the end.
        """
        colored, order, count, total = self.colored, self.order, self.count, self.sum
        faces_of, ready = self.faces_of, self.ready
        given = list(vertices)
        given.reverse()
        visits = 0
        while True:
            if given:
                v = given.pop()
                if colored[v]:
                    continue
            elif ready:
                f = ready.pop()
                if count[f] != 1:
                    continue
                v = total[f]
            else:
                break
            colored[v] = True
            order.append(v)
            fs = faces_of[v]
            visits += len(fs)
            for f in fs:
                count[f] -= 1
                total[f] -= v
                if count[f] == 1:
                    ready.append(f)
        self.visits += visits

    def reset(self) -> None:
        """Uncolor everything, restoring the state as built; ``visits`` stays."""
        self.count[:], self.sum[:], self.ready[:] = self._empty
        self.colored[:] = [False] * len(self.colored)
        self.order.clear()

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
    coloring = Coloring(manual_set, MappingProxyType(auto), m.vertex_count)
    return coloring, PercolationTrace(tuple(sorted(manual_set)), tuple(entries))


# Trace serialisation: a `manual:` line followed by one line per colored
# vertex, plus a JSON twin with the same content.


def format_trace(trace: PercolationTrace) -> str:
    lines = ["manual: " + " ".join(str(v) for v in trace.manual)]
    for e in trace.entries:
        lines.append(f"step {e.step} vertex {e.vertex} face {e.face}")
    return "\n".join(lines) + "\n"


def trace_to_json(trace: PercolationTrace) -> str:
    """The trace as ``{"manual": [...], "steps": [{"face", "step", "vertex"}]}``.

    The bytes are those of :func:`dump_json` on that document (indent 2,
    sorted keys, ``[]`` for an empty list), written directly: the document
    holds only integers, since :func:`check_vertices` admits nothing else,
    and the generic encoder takes ten times as long on a large trace.
    """
    manual = ",\n    ".join(map(str, trace.manual))
    steps = ",\n    ".join([
        f'{{\n      "face": {face},\n      "step": {step},\n      "vertex": {vertex}\n    }}'
        for step, vertex, face in trace.entries
    ])
    return (
        '{\n  "manual": ' + (f"[\n    {manual}\n  ]" if manual else "[]")
        + ',\n  "steps": ' + (f"[\n    {steps}\n  ]" if steps else "[]") + "\n}\n"
    )


def parse_trace(text: str) -> PercolationTrace:
    """Read either trace flavour (text or JSON)."""
    body = text.strip()
    if body.startswith("{"):
        doc = parse_json(body, "bad trace JSON")
        try:
            manual = json_typed(doc.get("manual", []), list, "manual")
            steps = json_typed(doc.get("steps", []), list, "steps")
            return PercolationTrace(
                tuple([json_typed(v, int, "manual vertex") for v in manual]),
                tuple([
                    TraceEntry(
                        json_typed(s["step"], int, "step"),
                        json_typed(s["vertex"], int, "vertex"),
                        json_typed(s["face"], int, "face"),
                    )
                    for s in steps
                ]),
            )
        except (KeyError, TypeError) as exc:
            raise BandlinkError(f"bad trace JSON: {exc}") from exc
    manual: tuple[int, ...] = ()
    entries = []
    for lineno, raw in enumerate(body.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("manual:"):
                manual = tuple(ascii_ints(line.split(":", 1)[1].split()))
                continue
            parts = line.split()
            if len(parts) != 6 or parts[0] != "step" or parts[2] != "vertex" or parts[4] != "face":
                raise ValueError
            entries.append(TraceEntry(*ascii_ints(parts[1::2])))
        except ValueError:
            raise BandlinkError(f"line {lineno}: bad trace line {clip_repr(line)}") from None
    return PercolationTrace(manual, tuple(entries))
