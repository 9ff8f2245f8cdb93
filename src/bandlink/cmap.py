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

from functools import cached_property
from typing import NamedTuple, Sequence

from .errors import BandlinkError, ascii_ints, clip_repr, read_text


def cycles_of_images(images: Sequence[int]) -> list[tuple[int, ...]]:
    """Decompose a permutation given as a 1-based image array into cycles.

    Each cycle is rotated to start at its smallest element and cycles are
    sorted by that element, so the output is canonical.  ``images`` must be a
    permutation: the maps pass only their constructor-checked ``alpha`` and
    ``sigma``, or ``phi``, their composition.
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
            cyc.append(d)
            seen[d] = True
            d = images[d - 1]
        cycles.append(tuple(cyc))
    return cycles


class CombinatorialMap:
    """An embedded graph given by its rotation system.

    ``alpha`` and ``sigma`` are image arrays: entry d-1 holds the image of
    dart d.  ``declared_genus`` is the genus the map claims to live on; it is
    checked against Euler's formula by :func:`validate`.  Two maps are equal
    when these four fields are.
    """

    def __init__(self, dart_count: int, alpha: Sequence[int], sigma: Sequence[int],
                 declared_genus: int = 0):
        self.dart_count = n = dart_count
        self.alpha = tuple(alpha)
        self.sigma = tuple(sigma)
        self.declared_genus = declared_genus
        if n < 0 or n % 2:
            raise BandlinkError(f"dart count must be even and >= 0, got {clip_repr(n)}")
        for name, images in (("alpha", self.alpha), ("sigma", self.sigma)):
            if len(images) != n:
                raise BandlinkError(
                    f"{name} lists {len(images)} images for {clip_repr(n)} darts"
                )
            hit = [False] * n
            for d in images:
                if not isinstance(d, int) or not 1 <= d <= n:
                    raise BandlinkError(f"{name} image {clip_repr(d)} outside 1..{n}")
                if hit[d - 1]:
                    raise BandlinkError(f"{name} maps two darts to {d}")
                hit[d - 1] = True
        for d in range(1, n + 1):
            img = self.alpha[d - 1]
            if img == d or self.alpha[img - 1] != d:
                raise BandlinkError(
                    f"alpha must pair dart {d} with a distinct partner"
                )
        if self.declared_genus < 0:
            raise BandlinkError(f"declared genus {clip_repr(self.declared_genus)} is negative")

    def _key(self) -> tuple:
        return (self.dart_count, self.alpha, self.sigma, self.declared_genus)

    def __eq__(self, other):
        if type(other) is not CombinatorialMap:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """Faces as orbits of phi = sigma o alpha, ids ordered by least dart."""
        phi = tuple(self.sigma[a - 1] for a in self.alpha)
        return tuple(
            Face(fid, cyc, tuple(self.vertex_of[d - 1] for d in cyc))
            for fid, cyc in enumerate(cycles_of_images(phi), start=1)
        )

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
            out.append(Strand(len(out) + 1, tuple(walk)))
        return tuple(out)


class Face:
    """One face of a map: a phi orbit with its vertex walk."""

    def __init__(self, id: int, boundary: tuple[int, ...], vertex_list: tuple[int, ...]):
        self.id = id
        self.boundary = boundary
        self.vertex_list = vertex_list

    @cached_property
    def distinct_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.vertex_list)))


class Strand(NamedTuple):
    """A closed straight-ahead walk: the projection of one curve component.

    ``darts`` alternates an outgoing dart with the matching arrival dart, so
    the tuple covers both darts of every edge the strand runs along.
    """

    id: int
    darts: tuple[int, ...]


def validate(m: CombinatorialMap) -> None:
    """Check that a map is one connected surface of its declared genus.

    :func:`derived_genus` refuses a map with more than one component; the
    genus it derives must then equal the declared one.  A failure raises
    :class:`BandlinkError`.  The permutation invariants need no check here:
    the constructor enforces them.
    """
    genus = derived_genus(m)
    if genus != m.declared_genus:
        chi = m.vertex_count - m.edge_count + len(m.faces)
        raise BandlinkError(
            f"declared genus {clip_repr(m.declared_genus)} but V-E+F = {chi} "
            f"gives genus {genus}"
        )


def faces(m: CombinatorialMap) -> tuple[Face, ...]:
    """The map's faces (computed once per map and cached; not re-validated)."""
    return m.faces


def derived_genus(m: CombinatorialMap) -> int:
    """The genus of a connected map by Euler's formula; 0 with no darts.

    A map with more than one component is not one surface: it raises
    :class:`BandlinkError` naming the component count.  V - E + F is even:
    the signs of phi = sigma o alpha give V + E - F = 2E = 0 (mod 2), so the
    halving is exact.
    """
    alpha, sigma = m.alpha, m.sigma
    seen = [False] * (m.dart_count + 1)
    count = 0
    for start in range(1, m.dart_count + 1):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            d = stack.pop()
            for nxt in (alpha[d - 1], sigma[d - 1]):
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append(nxt)
    if count > 1:
        raise BandlinkError(f"the map has {count} components; it must be connected")
    if count == 0:
        return 0
    return (2 - m.vertex_count + m.edge_count - len(m.faces)) // 2


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
    """Parse the .cmap text format, reporting syntax errors with line numbers.

    The map's constructor checks the permutations and the genus' sign.
    """
    header_seen = False
    fields: dict[str, tuple[int, list[str]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != FORMAT_HEADER:
                raise BandlinkError(
                    f"line {lineno}: expected '{FORMAT_HEADER}' header, got {clip_repr(line)}"
                )
            header_seen = True
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        if key not in ("genus", "darts", "alpha", "sigma"):
            raise BandlinkError(f"line {lineno}: unknown directive {clip_repr(key)}")
        if key in fields:
            raise BandlinkError(f"line {lineno}: duplicate directive {key!r}")
        fields[key] = (lineno, args)
    if not header_seen:
        raise BandlinkError("line 1: missing 'cmap v1' header")
    for key in ("darts", "alpha", "sigma"):
        if key not in fields:
            raise BandlinkError(f"line {len(text.splitlines()) or 1}: missing directive {key!r}")

    def ints(key: str, single: bool = False) -> list[int]:
        lineno, args = fields[key]
        if single and len(args) != 1:
            raise BandlinkError(f"line {lineno}: {key} takes one value")
        try:
            return ascii_ints(args)
        except ValueError as exc:
            raise BandlinkError(
                f"line {lineno}: {key} value {clip_repr(exc.args[0])} is not an integer"
            ) from None

    (n,) = ints("darts", single=True)
    (genus,) = ints("genus", single=True) if "genus" in fields else (0,)
    return CombinatorialMap(n, ints("alpha"), ints("sigma"), genus)


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
    """The map in the ``.cmap`` file at ``path``; an error names the file."""
    text = read_text(path)
    try:
        return parse_cmap(text)
    except BandlinkError as exc:
        raise BandlinkError(f"{path}: {exc}") from exc

