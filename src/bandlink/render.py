"""Deterministic SVG sketches of genus zero maps.

Layout is the classical barycentric scheme: pin the largest face on a
circle and relax every other vertex to the average of its neighbors.  Loops
and parallel edges bow out on Bezier curves so they stay visible.  The
output is byte stable: fixed iteration count, coordinates rounded before
writing.

The bytes depend on the order of the float operations, which is fixed: the
relaxation is Gauss-Seidel in ascending vertex id, and each vertex adds its
neighbors' points left to right in rotation order, in double precision,
then divides by its degree.

Each point is one complex number ``x + iy``.  Complex addition is two
float additions, and dividing by an integer ``k`` divides each part by
``k``; the ``0j`` that pads a row and the division (CPython divides by
``k + 0j``) change at most the sign of a zero, which ``_fmt`` folds.  So
x and y are two independent relaxations with exactly those floats.  No
step uses the builtin ``sum``, which compensates float sums from CPython
3.12 on.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .cmap import CombinatorialMap, derived_genus
from .errors import BandlinkError

if TYPE_CHECKING:
    from .band import BandDiagram
    from .percolation import Coloring

RADIUS = 120.0
MARGIN = 40.0
ROUNDS = 400


def _layout(m: CombinatorialMap) -> dict[int, tuple[float, float]]:
    outer = max(m.faces, key=lambda f: (len(f.boundary), -f.id))
    rim: list[int] = []
    for v in outer.vertex_list:
        if v not in rim:
            rim.append(v)
    # One point per vertex id.  Slot 0 stays 0j and pads every row to four
    # neighbours; slot V + 1 carries the partial sum of a vertex of higher
    # degree from one row to the next.
    zs = [0j] * (m.vertex_count + 2)
    carry = m.vertex_count + 1
    for i, v in enumerate(rim):
        ang = -math.pi / 2 + 2 * math.pi * i / len(rim)
        zs[v] = complex(RADIUS * math.cos(ang), RADIUS * math.sin(ang))
    inner = sorted(set(range(1, m.vertex_count + 1)) - set(rim))
    rows = []
    for v in inner:
        near = [m.vertex_of[m.alpha[d - 1] - 1] for d in m.vertex_cycles[v - 1]]
        k = len(near)
        while len(near) > 4:
            rows.append((carry, 1, *near[:4]))
            near[:4] = [carry]
        rows.append((v, k, *near, *(0,) * (4 - len(near))))
    for _ in range(ROUNDS):
        for v, k, a, b, c, d in rows:
            zs[v] = (zs[a] + zs[b] + zs[c] + zs[d]) / k
    return {v: (zs[v].real, zs[v].imag) for v in rim + inner}


def _fmt(x: float) -> str:
    # -0.00 and 0.00 must serialize identically.
    out = f"{x:.2f}"
    return "0.00" if out == "-0.00" else out


def _blend(step: int, max_step: int) -> str:
    t = step / max_step
    r = round(74 + t * (46 - 74))
    g = round(144 + t * (139 - 144))
    b = round(217 + t * (87 - 217))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_svg(
    m: CombinatorialMap,
    coloring: Coloring | None = None,
    band: BandDiagram | None = None,
) -> str:
    """Draw a connected genus zero map as SVG text.

    :func:`derived_genus` refuses a map with several components; a map of
    any genus but 0 is refused after it.

    ``coloring`` tints vertices by percolation step, ``band`` colors vertex
    outlines by crossing kind and adds hover titles with the provenance.

    Each vertex's point is offset by the margin and formatted once; its
    circle and every edge end at it reuse those strings.  A label is placed
    at the rounded ``x + 9`` and ``y - 9``, which are not the rounded point
    plus 9, so it formats its own.
    """
    genus = derived_genus(m)
    if genus != 0:
        raise BandlinkError(f"the map has genus {genus}; only genus 0 renders")
    if m.dart_count == 0:
        return (
            '<svg xmlns="http://www.w3.org/2000/svg" width="80" height="80" '
            'viewBox="0 0 80 80"></svg>\n'
        )
    pos = _layout(m)

    min_x = min(x for x, _ in pos.values()) - MARGIN
    max_x = max(x for x, _ in pos.values()) + MARGIN
    min_y = min(y for _, y in pos.values()) - MARGIN
    max_y = max(y for _, y in pos.values()) + MARGIN
    width, height = max_x - min_x, max_y - min_y
    # Indexed by vertex id; slot 0 is padding.
    px = [0.0] * (m.vertex_count + 1)
    py = [0.0] * (m.vertex_count + 1)
    for v, (x, y) in pos.items():
        px[v], py[v] = x - min_x, y - min_y
    sx, sy = list(map(_fmt, px)), list(map(_fmt, py))

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    ]

    by_pair: dict[tuple[int, int], list[int]] = {}
    for eid, (d, dp) in enumerate(m.edge_pairs, start=1):
        u, v = m.vertex_of[d - 1], m.vertex_of[dp - 1]
        by_pair.setdefault((min(u, v), max(u, v)), []).append(eid)

    def curve(eid: int, d: str) -> None:
        lines.append(
            f'<path d="{d}" fill="none" stroke="#555" stroke-width="1.5">'
            f"<title>edge {eid}</title></path>"
        )

    for (u, v), eids in sorted(by_pair.items()):
        if len(eids) == 1 and u != v:
            lines.append(
                f'<line x1="{sx[u]}" y1="{sy[u]}" x2="{sx[v]}" y2="{sy[v]}" '
                f'stroke="#555" stroke-width="1.5"><title>edge {eids[0]}</title></line>'
            )
            continue
        ux, uy, vx, vy = px[u], py[u], px[v], py[v]
        if u == v:
            for k, eid in enumerate(eids):
                ang = 2 * math.pi * k / len(eids)
                c1 = (ux + 90.0 * math.cos(ang - 0.5), uy + 90.0 * math.sin(ang - 0.5))
                c2 = (ux + 90.0 * math.cos(ang + 0.5), uy + 90.0 * math.sin(ang + 0.5))
                curve(eid, (
                    f"M {sx[u]} {sy[u]} "
                    f"C {_fmt(c1[0])} {_fmt(c1[1])}, {_fmt(c2[0])} {_fmt(c2[1])}, "
                    f"{sx[u]} {sy[u]}"
                ))
        else:
            dx, dy = vx - ux, vy - uy
            norm = math.hypot(dx, dy) or 1.0
            nx, ny = -dy / norm, dx / norm
            for k, eid in enumerate(eids):
                off = 26.0 * (k - (len(eids) - 1) / 2)
                cx = (ux + vx) / 2 + nx * off
                cy = (uy + vy) / 2 + ny * off
                curve(eid, f"M {sx[u]} {sy[u]} Q {_fmt(cx)} {_fmt(cy)}, {sx[v]} {sy[v]}")

    if band is not None:
        from .band import KIND_CLASP, KIND_TWIST

        kind_stroke = {KIND_CLASP: "#c0392b", KIND_TWIST: "#8e44ad"}
    max_step = 0
    if coloring is not None and coloring.auto:
        max_step = max(coloring.auto.values())
    # One fill per distinct step: no step, manual (step 0), then each blend.
    fills: dict[int | None, str] = {None: "#ffffff", 0: "#f4a261"}
    fill = fills[None]
    stroke = "#333333"
    for v in range(1, m.vertex_count + 1):
        if coloring is not None:
            step = coloring.step_of(v)
            fill = fills.get(step)
            if fill is None:
                fill = fills[step] = _blend(step, max_step)
        title = f"vertex {v}"
        if band is not None:
            cr = band.crossing_kind[v - 1]
            stroke = kind_stroke.get(cr.kind, "#333333")
            title = f"vertex {v}: {cr.kind} {cr.owner} slot {cr.slot}"
        lines.append(
            f'<circle cx="{sx[v]}" cy="{sy[v]}" r="6" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1.5">'
            f"<title>{title}</title></circle>\n"
            f'<text x="{_fmt(px[v] + 9)}" y="{_fmt(py[v] - 9)}" '
            f'font-size="11" font-family="monospace">{v}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
