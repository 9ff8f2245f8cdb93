"""Deterministic SVG sketches of genus zero maps.

Layout is the classical barycentric scheme: pin the largest face of each
component on a circle and relax every other vertex to the average of its
neighbors.  Loops and parallel edges bow out on Bezier curves so they stay
visible.  The output is byte stable: fixed iteration count, coordinates
rounded before writing, components laid side by side in dart order.

The bytes depend on the order of the float operations, which is fixed: the
relaxation is Gauss-Seidel in ascending vertex id, and each vertex sums the
x and the y of its neighbors, separately, in rotation order with the
builtin ``sum``, then divides each by its degree.

No x ever reads a y, so all of x is relaxed before all of y.  A component
with at least ``FORK_MIN_ROWS`` inner vertices relaxes its y in a forked
child while x runs here, when ``os.fork`` exists and no other thread runs;
the child sends back the exact doubles, and if it cannot, y is relaxed here.
Either way the floats, and so the bytes, are the same.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from .cmap import CombinatorialMap, Face
from .errors import BandlinkError

if TYPE_CHECKING:
    from .band import BandDiagram
    from .percolation import Coloring

RADIUS = 120.0
MARGIN = 40.0
ROUNDS = 400
# Below this many inner vertices the copy-on-write faults after a fork cost
# more than the child saves.
FORK_MIN_ROWS = 1000


def _require_planar(m: CombinatorialMap) -> None:
    for comp, g in zip(m.components, m.component_genera):
        if g != 0:
            raise BandlinkError(
                f"component at dart {comp[0]} has genus {g}; only genus 0 renders"
            )
    if m.is_connected() and m.declared_genus != 0:
        raise BandlinkError(
            f"map declares genus {m.declared_genus} but embeds on the sphere"
        )


def _component_layout(
    m: CombinatorialMap,
    comp: tuple[int, ...],
    faces_list: Sequence[Face],
) -> dict[int, tuple[float, float]]:
    comp_set = set(comp)
    comp_faces = [f for f in faces_list if f.boundary[0] in comp_set]
    outer = max(comp_faces, key=lambda f: (len(f.boundary), -f.id))
    rim: list[int] = []
    for v in outer.vertex_list:
        if v not in rim:
            rim.append(v)
    # One x and one y slot per vertex id.  Slot 0 stays 0.0: every row reads
    # it first, so each ``sum`` adds the same floats in the same order as a
    # sum over the neighbours alone, and a degree-1 row still gets a tuple
    # from its itemgetter.
    xs = [0.0] * (m.vertex_count + 1)
    ys = [0.0] * (m.vertex_count + 1)
    for i, v in enumerate(rim):
        ang = -math.pi / 2 + 2 * math.pi * i / len(rim)
        xs[v], ys[v] = RADIUS * math.cos(ang), RADIUS * math.sin(ang)
    inner = sorted({m.vertex_of[d - 1] for d in comp} - set(rim))
    rows = []
    for v in inner:
        near = [m.vertex_of[m.alpha[d - 1] - 1] for d in m.vertex_cycles[v - 1]]
        rows.append((v, itemgetter(0, *near), len(near)))
    _relax_xy(xs, ys, rows)
    return {v: (xs[v], ys[v]) for v in rim + inner}


def _relax(cs: list[float], rows: list) -> list[float]:
    for _ in range(ROUNDS):
        for v, near, k in rows:
            cs[v] = sum(near(cs)) / k
    return cs


def _relax_xy(xs: list[float], ys: list[float], rows: list) -> None:
    """Relax ``xs`` here and ``ys`` in a forked child, or both here."""
    threading = sys.modules.get("threading")
    if (
        len(rows) < FORK_MIN_ROWS
        or not hasattr(os, "fork")
        or (threading is not None and threading.active_count() > 1)
    ):
        _relax(xs, rows)
        _relax(ys, rows)
        return
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        _relax(xs, rows)
        _relax(ys, rows)
        return
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as fh:
                fh.write(array("d", _relax(ys, rows)).tobytes())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    status = None
    with open(r, "rb") as fh:
        try:
            _relax(xs, rows)
            data = fh.read()
            status = os.waitpid(pid, 0)[1]
        finally:
            if status is None:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if status == 0 and len(data) == 8 * len(ys):
        ys[:] = array("d", data)
    else:
        _relax(ys, rows)


def _fmt(x: float) -> str:
    # -0.00 and 0.00 must serialize identically.
    out = f"{x:.2f}"
    return "0.00" if out == "-0.00" else out


def _blend(step: int, max_step: int) -> str:
    t = step / max_step if max_step else 0.0
    r = round(74 + t * (46 - 74))
    g = round(144 + t * (139 - 144))
    b = round(217 + t * (87 - 217))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_svg(
    m: CombinatorialMap,
    coloring: Coloring | None = None,
    band: BandDiagram | None = None,
) -> str:
    """Draw a genus zero map as SVG text.

    ``coloring`` tints vertices by percolation step, ``band`` colors vertex
    outlines by crossing kind and adds hover titles with the provenance.
    """
    _require_planar(m)
    if m.dart_count == 0:
        return (
            '<svg xmlns="http://www.w3.org/2000/svg" width="80" height="80" '
            'viewBox="0 0 80 80"></svg>\n'
        )
    faces_list = m.faces
    pos: dict[int, tuple[float, float]] = {}
    for idx, comp in enumerate(m.components):
        shift = idx * (2 * RADIUS + MARGIN)
        for v, (x, y) in _component_layout(m, comp, faces_list).items():
            pos[v] = (x + shift, y)

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
    for (u, v), eids in sorted(by_pair.items()):
        ux, uy = at(u)
        if u == v:
            for k, eid in enumerate(eids):
                ang = 2 * math.pi * k / len(eids)
                reach = 90.0
                c1 = (
                    ux + reach * math.cos(ang - 0.5),
                    uy + reach * math.sin(ang - 0.5),
                )
                c2 = (
                    ux + reach * math.cos(ang + 0.5),
                    uy + reach * math.sin(ang + 0.5),
                )
                lines.append(
                    f'<path d="M {_fmt(ux)} {_fmt(uy)} '
                    f"C {_fmt(c1[0])} {_fmt(c1[1])}, {_fmt(c2[0])} {_fmt(c2[1])}, "
                    f'{_fmt(ux)} {_fmt(uy)}" fill="none" stroke="#555" '
                    f'stroke-width="1.5"><title>edge {eid}</title></path>'
                )
            continue
        vx, vy = at(v)
        if len(eids) == 1:
            lines.append(
                f'<line x1="{_fmt(ux)}" y1="{_fmt(uy)}" '
                f'x2="{_fmt(vx)}" y2="{_fmt(vy)}" stroke="#555" '
                f'stroke-width="1.5"><title>edge {eids[0]}</title></line>'
            )
            continue
        dx, dy = vx - ux, vy - uy
        norm = math.hypot(dx, dy) or 1.0
        nx, ny = -dy / norm, dx / norm
        for k, eid in enumerate(eids):
            off = 26.0 * (k - (len(eids) - 1) / 2)
            cx = (ux + vx) / 2 + nx * off
            cy = (uy + vy) / 2 + ny * off
            lines.append(
                f'<path d="M {_fmt(ux)} {_fmt(uy)} '
                f'Q {_fmt(cx)} {_fmt(cy)}, {_fmt(vx)} {_fmt(vy)}" '
                f'fill="none" stroke="#555" stroke-width="1.5">'
                f"<title>edge {eid}</title></path>"
            )

    if band is not None:
        from .band import KIND_CLASP, KIND_TWIST

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
