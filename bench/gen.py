"""Seeded input generators for the benchmark.

Everything here is independent of ``bandlink``: maps are plain 1-based image
arrays ``(alpha, sigma)`` and are written out in the ``.cmap`` text format,
band specs as JSON.  Every generator takes an explicit ``random.Random``.
"""

from __future__ import annotations

import json
import os
import random


def cmap_text(alpha, sigma, genus: int) -> str:
    return (
        "cmap v1\n"
        f"genus {genus}\n"
        f"darts {len(alpha)}\n"
        "alpha " + " ".join(map(str, alpha)) + "\n"
        "sigma " + " ".join(map(str, sigma)) + "\n"
    )


def orbits(images) -> list[tuple[int, ...]]:
    """Cycles of a 1-based image array, each from its least dart, sorted."""
    seen = set()
    out = []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        d = images[start - 1]
        while d != start:
            cyc.append(d)
            seen.add(d)
            d = images[d - 1]
        out.append(tuple(cyc))
    return out


def edge_pairs(alpha) -> list[tuple[int, int]]:
    """Edges as (low dart, high dart), in the program's edge id order."""
    return [(d, alpha[d - 1]) for d in range(1, len(alpha) + 1) if d < alpha[d - 1]]


def genus_of(alpha, sigma) -> int | None:
    """Genus by Euler's formula, or None when the map is disconnected."""
    n = len(alpha)
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for d in range(1, n + 1):
        for e in (alpha[d - 1], sigma[d - 1]):
            parent[find(d)] = find(e)
    if len({find(d) for d in range(1, n + 1)}) != 1:
        return None
    phi = [sigma[a - 1] for a in alpha]
    chi = len(orbits(sigma)) - n // 2 + len(orbits(phi))
    return (2 - chi) // 2


def grid(w: int, torus: bool = False):
    """A w x w grid of vertices on the plane, or wrapped onto the torus.

    Each vertex lists its darts counterclockwise: east, north, west, south.
    """
    half_edges: list[tuple[tuple[int, int], str]] = []
    partner: dict[int, int] = {}
    slot: dict[tuple[tuple[int, int], str], int] = {}

    def dart(v, side):
        if (v, side) not in slot:
            half_edges.append((v, side))
            slot[(v, side)] = len(half_edges)
        return slot[(v, side)]

    for j in range(w):
        for i in range(w):
            for di, dj, side, back in ((1, 0, "E", "W"), (0, 1, "N", "S")):
                ni, nj = i + di, j + dj
                if torus:
                    ni, nj = ni % w, nj % w
                elif ni >= w or nj >= w:
                    continue
                a, b = dart((i, j), side), dart((ni, nj), back)
                partner[a], partner[b] = b, a
    n = len(half_edges)
    alpha = [partner[d] for d in range(1, n + 1)]
    sigma = [0] * n
    for j in range(w):
        for i in range(w):
            ring = [slot[((i, j), s)] for s in "ENWS" if ((i, j), s) in slot]
            for k, d in enumerate(ring):
                sigma[d - 1] = ring[(k + 1) % len(ring)]
    return alpha, sigma


def medial(alpha, sigma):
    """The medial map: 4-valent, on the same surface as the input.

    Dart d gives medial darts (d,+) = 2d-1 and (d,-) = 2d.  Each corner
    (d, sigma d) gives the medial edge joining (d,+) to (sigma d,-), and the
    medial vertex of edge {d, d'} has rotation [(d,+), (d,-), (d',+), (d',-)].
    """
    n = len(alpha)
    m_alpha = [0] * (2 * n)
    m_sigma = [0] * (2 * n)
    for d in range(1, n + 1):
        a, b = 2 * d - 1, 2 * sigma[d - 1]
        m_alpha[a - 1], m_alpha[b - 1] = b, a
        dp = alpha[d - 1]
        if d < dp:
            ring = (2 * d - 1, 2 * d, 2 * dp - 1, 2 * dp)
            for k in range(4):
                m_sigma[ring[k] - 1] = ring[(k + 1) % 4]
    return m_alpha, m_sigma


def circle(k: int):
    """A circle through k 2-valent vertices: the base of a closed k-chain."""
    if k == 1:
        return [2, 1], [2, 1]
    alpha = [0] * (2 * k)
    sigma = [0] * (2 * k)
    for i in range(1, k + 1):
        a, b = 2 * i - 1, 2 * i
        alpha[a - 1], alpha[b - 1] = b, a
        prev = 2 * (i - 1) if i > 1 else 2 * k
        sigma[a - 1], sigma[prev - 1] = prev, a
    return alpha, sigma


def random_four_valent(rng: random.Random, h: int, genus: int):
    """A connected map with h 4-valent vertices of the given genus.

    Rejection sampling: fine for the h <= 3 the small specs use.
    """
    n = 4 * h
    sigma = []
    for v in range(h):
        rot = [4 * v + 2, 4 * v + 3, 4 * v + 4]
        rng.shuffle(rot)
        ring = [4 * v + 1] + rot
        images = {ring[k]: ring[(k + 1) % 4] for k in range(4)}
        sigma.extend(images[d] for d in sorted(images))
    while True:
        pool = list(range(1, n + 1))
        rng.shuffle(pool)
        alpha = [0] * n
        for i in range(0, n, 2):
            alpha[pool[i] - 1], alpha[pool[i + 1] - 1] = pool[i + 1], pool[i]
        if genus_of(alpha, sigma) == genus:
            return alpha, sigma


class Spec:
    """A band spec: a base map plus subdivision points and twists per edge.

    ``extra`` maps an edge, as its (low dart, high dart) pair, to
    ``(subdivisions, twists per segment)``; edges not listed get one
    subdivision point when both ends are 4-valent and none otherwise.
    ``n`` (circles) and ``crossings`` are what the band construction must
    produce: one circle per 2-valent vertex after subdivision, and two
    crossings per clasp, four per hash, one per twist.
    """

    def __init__(self, name, alpha, sigma, genus, extra=None):
        self.name = name
        self.alpha, self.sigma, self.genus = list(alpha), list(sigma), genus
        rings = orbits(sigma)
        if any(len(c) not in (2, 4) for c in rings):
            raise ValueError(f"{name}: band bases need valence 2 or 4")
        valence = {d: len(c) for c in rings for d in c}
        self.edges = []
        for d, dp in edge_pairs(alpha):
            k = 1 if valence[d] == valence[dp] == 4 else 0
            k, twists = (extra or {}).get((d, dp), (k, [0] * (k + 1)))
            self.edges.append((d, dp, k, list(twists)))
        two = sum(1 for c in rings if len(c) == 2)
        four = len(rings) - two
        self.n = two + sum(k for _, _, k, _ in self.edges)
        twists = sum(sum(t) for _, _, _, t in self.edges)
        self.crossings = 2 * self.n + 4 * four + twists

    def relabelled(self, rng: random.Random) -> "Spec":
        """The same band under a random relabelling of the base darts."""
        perm = list(range(1, len(self.alpha) + 1))
        rng.shuffle(perm)
        alpha = [0] * len(perm)
        sigma = [0] * len(perm)
        for d in range(1, len(perm) + 1):
            alpha[perm[d - 1] - 1] = perm[self.alpha[d - 1] - 1]
            sigma[perm[d - 1] - 1] = perm[self.sigma[d - 1] - 1]
        extra = {}
        for d, dp, k, twists in self.edges:
            a, b = perm[d - 1], perm[dp - 1]
            # The segments run from the low dart's end, so a flipped edge
            # lists its twists in reverse.
            extra[(min(a, b), max(a, b))] = (k, twists if a < b else twists[::-1])
        return Spec(self.name, alpha, sigma, self.genus, extra)

    def write(self, directory) -> None:
        """Write ``<name>.base.cmap`` and ``<name>.json``."""
        with open(os.path.join(directory, self.name + ".base.cmap"), "w") as fh:
            fh.write(cmap_text(self.alpha, self.sigma, self.genus))
        entries = [
            {"edge": eid, "subdivisions": k, "twists": twists}
            for eid, (_, _, k, twists) in enumerate(self.edges, start=1)
        ]
        doc = {"map": self.name + ".base.cmap", "edges": entries}
        with open(os.path.join(directory, self.name + ".json"), "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")


def _decorate(rng, edges, double, twisted):
    """Give ``double`` random edges a second point, twist ``twisted`` segments."""
    extra = {e: [1, [0, 0]] for e in edges}
    for e in rng.sample(edges, double):
        extra[e] = [2, [0, 0, 0]]
    segments = [(e, s) for e in edges for s in range(extra[e][0] + 1)]
    for e, s in rng.sample(segments, twisted):
        extra[e][1][s] = rng.choice((1, 2))
    return extra


def medial_band(name, w, torus=False, rng=None, double=0, twisted=0) -> Spec:
    """Medial band of a w x w grid, every edge subdivided at least once.

    With an ``rng``, ``double`` random edges get a second subdivision point
    and ``twisted`` random segments get one or two twists.
    """
    alpha, sigma = medial(*grid(w, torus))
    extra = _decorate(rng, edge_pairs(alpha), double, twisted) if rng else None
    return Spec(name, alpha, sigma, 1 if torus else 0, extra)


def chain(name, k) -> Spec:
    """A closed k-chain: a circle base, no subdivisions."""
    return Spec(name, *circle(k), 0)


def small_spec(name, rng, genus, cap) -> Spec:
    """A band spec with one or two 4-valent base vertices and <= cap crossings.

    Every edge gets one or two subdivision points, and what is left of the
    crossing budget goes to twists.
    """
    h = rng.choice((1, 2))
    alpha, sigma = random_four_valent(rng, h, genus)
    budget = cap - 8 * h  # 4 crossings per hash, a 2-crossing clasp on each of 2h edges
    extra = {}
    for e in edge_pairs(alpha):
        k = 2 if budget >= 2 and rng.random() < 0.4 else 1
        budget -= 2 * (k - 1)
        twists = []
        for _ in range(k + 1):
            t = min(rng.choice((0, 0, 1, 2)), budget)
            budget -= t
            twists.append(t)
        extra[e] = (k, twists)
    return Spec(name, alpha, sigma, genus, extra)
