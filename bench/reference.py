"""Independent checks: a map reader, faces, strands and a reference closure.

None of this imports ``bandlink``.  The closure is the percolation rule
applied one vertex at a time from a worklist of sets: a vertex is coloured
once some face has every *other* distinct vertex coloured.  The fixpoint
does not depend on the order, so it must agree with the program's
simultaneous rounds.
"""

from __future__ import annotations

from gen import orbits


def read_cmap(text: str):
    """Parse ``.cmap`` text into ``(alpha, sigma, genus)``."""
    fields = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if line and line[0] in ("genus", "darts", "alpha", "sigma"):
            fields[line[0]] = [int(tok) for tok in line[1:]]
    return fields["alpha"], fields["sigma"], fields.get("genus", [0])[0]


class Diagram:
    """Vertices, faces and strands of a map, numbered as the program does.

    Vertices are sigma orbits and faces are phi = sigma o alpha orbits, both
    ordered by their least dart; ids start at 1.
    """

    def __init__(self, alpha, sigma, genus=0):
        self.alpha, self.sigma, self.genus = alpha, sigma, genus
        vertex_of = {}
        self.rings = orbits(sigma)
        for vid, ring in enumerate(self.rings, start=1):
            for d in ring:
                vertex_of[d] = vid
        phi = [sigma[a - 1] for a in alpha]
        self.face_walks = [
            [vertex_of[d] for d in cyc] for cyc in orbits(phi)
        ]
        self.faces = [frozenset(walk) for walk in self.face_walks]
        self.vertex_count = len(self.rings)
        self.faces_of = {v: [] for v in range(1, self.vertex_count + 1)}
        for fid, face in enumerate(self.faces):
            for v in face:
                self.faces_of[v].append(fid)

    @classmethod
    def from_text(cls, text: str) -> "Diagram":
        return cls(*read_cmap(text))

    @property
    def euler_genus(self) -> int:
        chi = self.vertex_count - len(self.alpha) // 2 + len(self.faces)
        return (2 - chi) // 2

    def strand_count(self) -> int:
        """Closed straight-ahead walks through 4-valent vertices.

        Each strand is one orbit of d -> sigma(sigma(alpha(d))) in each
        direction, so the orbit count is twice the strand count.
        """
        sigma = self.sigma
        step = [sigma[sigma[a - 1] - 1] for a in self.alpha]
        return len(orbits(step)) // 2

    def closure(self, manual) -> set[int]:
        colored = set(manual)
        left = [set(face) - colored for face in self.faces]
        work = [next(iter(rest)) for rest in left if len(rest) == 1]
        while work:
            v = work.pop()
            if v in colored:
                continue
            colored.add(v)
            for fid in self.faces_of[v]:
                rest = left[fid]
                rest.discard(v)
                if len(rest) == 1:
                    work.append(next(iter(rest)))
        return colored

    def percolates(self, manual) -> bool:
        return len(self.closure(manual)) == self.vertex_count
