"""Combinatorial maps: darts, rotations, faces and strands.

A map on an oriented surface is stored as a pair of permutations of the darts
1..2E: ``alpha`` (a fixed-point-free involution swapping the two darts of each
edge) and ``sigma`` (the counterclockwise rotation of darts around each
vertex).  Faces are the orbits of phi = sigma o alpha; with this convention
the face traced from a dart lies on the right-hand side when walking the dart
away from its vertex.  Euler's formula V - E + F = 2 - 2g ties the orbit
counts to the genus of the supporting surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import (
    BadValence,
    CmapFormatError,
    GenusMismatch,
    MalformedPermutation,
    clip_repr,
)


def cycles_of_images(images: Sequence[int]) -> list[tuple[int, ...]]:
    """Decompose a permutation given as a 1-based image array into cycles.

    Each cycle is rotated to start at its smallest element and cycles are
    sorted by that element, so the output is canonical.
    """
    n = len(images)
    seen = [False] * (n + 1)
    cycles: list[tuple[int, ...]] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        d = images[start - 1]
        while d != start:
            if not 1 <= d <= n or seen[d] or len(cyc) > n:
                raise MalformedPermutation("image array is not a permutation")
            cyc.append(d)
            seen[d] = True
            d = images[d - 1]
        cycles.append(tuple(cyc))
    return cycles


@dataclass(frozen=True)
class CombinatorialMap:
    """An embedded graph given by its rotation system.

    ``alpha`` and ``sigma`` are image arrays: entry d-1 holds the image of
    dart d.  ``declared_genus`` is the genus the map claims to live on; it is
    checked against Euler's formula by :func:`validate`.
    """

    dart_count: int
    alpha: tuple[int, ...]
    sigma: tuple[int, ...]
    declared_genus: int = 0

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(self.alpha))
        object.__setattr__(self, "sigma", tuple(self.sigma))
        n = self.dart_count
        if n < 0 or n % 2:
            raise MalformedPermutation(f"dart count must be even and >= 0, got {clip_repr(n)}")
        for name, images in (("alpha", self.alpha), ("sigma", self.sigma)):
            if len(images) != n:
                raise MalformedPermutation(
                    f"{name} lists {len(images)} images for {n} darts"
                )
            hit = [False] * n
            for d in images:
                if not isinstance(d, int) or not 1 <= d <= n:
                    raise MalformedPermutation(f"{name} image {clip_repr(d)} outside 1..{n}")
                if hit[d - 1]:
                    raise MalformedPermutation(f"{name} maps two darts to {d}")
                hit[d - 1] = True
        for d in range(1, n + 1):
            img = self.alpha[d - 1]
            if img == d or self.alpha[img - 1] != d:
                raise MalformedPermutation(
                    f"alpha must pair dart {d} with a distinct partner"
                )
        if self.declared_genus < 0:
            raise GenusMismatch(f"declared genus {clip_repr(self.declared_genus)} is negative")

    @cached_property
    def vertex_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Sigma orbits, canonically ordered; vertex ids are 1-based indexes."""
        return tuple(cycles_of_images(self.sigma))

    @cached_property
    def vertex_of(self) -> tuple[int, ...]:
        """vertex_of[d-1] = id of the vertex dart d is attached to."""
        out = [0] * self.dart_count
        for vid, cyc in enumerate(self.vertex_cycles, start=1):
            for d in cyc:
                out[d - 1] = vid
        return tuple(out)

    @cached_property
    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """Alpha orbits as (low dart, high dart), sorted by low dart."""
        return tuple(cycles_of_images(self.alpha))

    @property
    def vertex_count(self) -> int:
        return len(self.vertex_cycles)

    @property
    def edge_count(self) -> int:
        return self.dart_count // 2

    def valence(self, vertex_id: int) -> int:
        return len(self.vertex_cycles[vertex_id - 1])

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted dart tuples, ordered by least dart."""
        n = self.dart_count
        seen = [False] * (n + 1)
        comps = []
        for start in range(1, n + 1):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                d = stack.pop()
                comp.append(d)
                for nxt in (self.alpha[d - 1], self.sigma[d - 1]):
                    if not seen[nxt]:
                        seen[nxt] = True
                        stack.append(nxt)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def is_connected(self) -> bool:
        return len(self.components) <= 1

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """Faces as orbits of phi = sigma o alpha, ids ordered by least dart."""
        phi = tuple(self.sigma[a - 1] for a in self.alpha)
        return tuple(
            Face(fid, cyc, tuple(self.vertex_of[d - 1] for d in cyc))
            for fid, cyc in enumerate(cycles_of_images(phi), start=1)
        )

    @cached_property
    def component_genera(self) -> tuple[int, ...]:
        """Genus of each component by Euler's formula, ordered like ``components``.

        V - E + F is even on every component: the signs of phi = sigma o alpha
        give V + E - F = 2E = 0 (mod 2), so the halving is exact.
        """
        comp_of = [0] * (self.dart_count + 1)
        for i, comp in enumerate(self.components):
            for d in comp:
                comp_of[d] = i
        chi = [-(len(comp) // 2) for comp in self.components]
        for cyc in self.vertex_cycles:
            chi[comp_of[cyc[0]]] += 1
        for face in self.faces:
            chi[comp_of[face.boundary[0]]] += 1
        return tuple((2 - c) // 2 for c in chi)

    @cached_property
    def strands(self) -> tuple[Strand, ...]:
        """Straight-ahead walks through 4-valent vertices (2-valent pass through).

        The walks partition the darts; each strand is the projection of one
        closed curve.  Ids are ordered by the least dart on the strand.
        """
        n = self.dart_count
        seen = [False] * (n + 1)
        out = []
        for start in range(1, n + 1):
            if seen[start]:
                continue
            walk: list[int] = []
            d = start
            while True:
                arrive = self.alpha[d - 1]
                walk.append(d)
                walk.append(arrive)
                seen[d] = True
                seen[arrive] = True
                d = _opposite(self, arrive)
                if d == start:
                    break
            if len(set(walk)) != len(walk):
                raise MalformedPermutation(
                    f"strand from dart {start} repeats a dart; rotation system is twisted"
                )
            out.append(Strand(len(out) + 1, tuple(walk)))
        return tuple(out)


@dataclass(frozen=True)
class Face:
    """One face of a map: a phi orbit with its vertex walk."""

    id: int
    boundary: tuple[int, ...]
    vertex_list: tuple[int, ...]

    @cached_property
    def distinct_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.vertex_list)))


@dataclass(frozen=True)
class Strand:
    """A closed straight-ahead walk: the projection of one curve component.

    ``darts`` alternates an outgoing dart with the matching arrival dart, so
    the tuple covers both darts of every edge the strand runs along.
    """

    id: int
    darts: tuple[int, ...]


def validate(
    m: CombinatorialMap, component_genera: Sequence[int] | None = None
) -> None:
    """Check a map's declared genus against Euler's formula.

    A connected map must satisfy V - E + F = 2 - 2g for the declared genus.
    A disconnected map is read as one sphere per component unless explicit
    per-component genera are supplied (ordered by each component's least
    dart).  A failure raises :class:`GenusMismatch`.  The permutation
    invariants need no check here: the constructor enforces them.
    """
    genera = m.component_genera
    if len(genera) <= 1:
        derived = genera[0] if genera else 0
        if derived != m.declared_genus:
            chi = m.vertex_count - m.edge_count + len(m.faces)
            raise GenusMismatch(
                f"declared genus {clip_repr(m.declared_genus)} but V-E+F = {chi} "
                f"gives genus {derived}"
            )
        return
    expected = tuple(component_genera) if component_genera is not None else (0,) * len(genera)
    if len(expected) != len(genera):
        raise GenusMismatch(f"{len(genera)} components but {len(expected)} genera supplied")
    if genera != expected:
        raise GenusMismatch(f"per-component genera {genera} do not match expected {expected}")


def faces(m: CombinatorialMap) -> tuple[Face, ...]:
    """The map's faces (computed once per map and cached; not re-validated)."""
    return m.faces


def derived_genus(m: CombinatorialMap) -> int:
    """The genera of the map's components by Euler's formula, summed."""
    return sum(m.component_genera)


def _opposite(m: CombinatorialMap, d: int) -> int:
    """The dart opposite d in its vertex rotation; valence must be 2 or 4."""
    val = len(m.vertex_cycles[m.vertex_of[d - 1] - 1])
    if val == 2:
        return m.sigma[d - 1]
    if val == 4:
        return m.sigma[m.sigma[d - 1] - 1]
    raise BadValence(
        f"vertex {m.vertex_of[d - 1]} has valence {val}; strands need 2 or 4"
    )


def strands(m: CombinatorialMap) -> tuple[Strand, ...]:
    """The map's strands (computed once per map and cached; not re-validated)."""
    return m.strands


# ---------------------------------------------------------------------------
# Text format.  Line oriented:
#
#   cmap v1
#   genus 0
#   darts 6
#   alpha 2 1 4 3 6 5
#   sigma 2 1 4 3 6 5
#
# '#' starts a comment; directives may not repeat.

FORMAT_HEADER = "cmap v1"


def parse_cmap(text: str) -> CombinatorialMap:
    """Parse the .cmap text format, reporting errors with line numbers."""
    header_seen = False
    fields: dict[str, tuple[int, list[str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != FORMAT_HEADER:
                raise CmapFormatError(
                    f"line {lineno}: expected '{FORMAT_HEADER}' header, got {clip_repr(line)}"
                )
            header_seen = True
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        if key not in ("genus", "darts", "alpha", "sigma"):
            raise CmapFormatError(f"line {lineno}: unknown directive {clip_repr(key)}")
        if key in fields:
            raise CmapFormatError(f"line {lineno}: duplicate directive {key!r}")
        fields[key] = (lineno, args)
    if not header_seen:
        raise CmapFormatError("line 1: missing 'cmap v1' header")
    for key in ("darts", "alpha", "sigma"):
        if key not in fields:
            raise CmapFormatError(f"line {len(text.splitlines()) or 1}: missing directive {key!r}")

    def as_int(key: str, token: str) -> int:
        lineno = fields[key][0]
        try:
            return int(token)
        except ValueError:
            raise CmapFormatError(
                f"line {lineno}: {key} value {clip_repr(token)} is not an integer"
            )

    lineno, args = fields["darts"]
    if len(args) != 1:
        raise CmapFormatError(f"line {lineno}: darts takes one value")
    n = as_int("darts", args[0])
    if n < 0 or n % 2:
        raise CmapFormatError(f"line {lineno}: dart count {clip_repr(n)} must be even and >= 0")

    genus = 0
    if "genus" in fields:
        lineno, args = fields["genus"]
        if len(args) != 1:
            raise CmapFormatError(f"line {lineno}: genus takes one value")
        genus = as_int("genus", args[0])
        if genus < 0:
            raise CmapFormatError(f"line {lineno}: genus {clip_repr(genus)} is negative")

    perms = {}
    for key in ("alpha", "sigma"):
        lineno, args = fields[key]
        if len(args) != n:
            raise CmapFormatError(
                f"line {lineno}: {key} lists {len(args)} images for {n} darts"
            )
        images = [as_int(key, tok) for tok in args]
        for img in images:
            if not 1 <= img <= n:
                raise CmapFormatError(
                    f"line {lineno}: {key} image {clip_repr(img)} outside 1..{n}"
                )
        perms[key] = tuple(images)
    return CombinatorialMap(n, perms["alpha"], perms["sigma"], genus)


def format_cmap(m: CombinatorialMap) -> str:
    lines = [
        FORMAT_HEADER,
        f"genus {m.declared_genus}",
        f"darts {m.dart_count}",
        "alpha " + " ".join(str(d) for d in m.alpha),
        "sigma " + " ".join(str(d) for d in m.sigma),
    ]
    return "\n".join(lines) + "\n"


def load_cmap(path) -> CombinatorialMap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cmap(fh.read())

