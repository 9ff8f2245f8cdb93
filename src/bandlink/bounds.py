"""Bounds from the hull of a band diagram and, when they meet, conclusions.

For a band diagram with n circles the percolation hull can never beat n - 1,
a fact about the underlying surface geometry that this package uses but does
not re-derive.  A verified witness of exactly n - 1 therefore pins three
invariants of the link at once: tunnel number n - 1, splitting genus n, and
group rank n.  A larger witness only gives an interval.
"""

from __future__ import annotations

from typing import NamedTuple

from .band import BandDiagram
from .errors import dump_json
from .hull import HullResult, check_witness


class BoundsReport(NamedTuple):
    n: int
    lower: int
    upper: int
    witness: tuple[int, ...]
    method: str
    tunnel_number: int | None
    splitting_genus: int | None
    group_rank: int | None
    notes: tuple[str, ...]

    @property
    def conclusive(self) -> bool:
        return self.tunnel_number is not None


def report(bd: BandDiagram, hull: HullResult) -> BoundsReport:
    """Combine a band diagram and a hull result into a bounds report.

    The witness is verified here by ``close``'s rounds on the diagram, not
    by the search loop that produced it; a witness that does not percolate
    raises rather than silently weakening the upper bound.
    """
    check_witness(bd.diagram, hull.witness)
    lower = bd.n - 1
    upper = hull.size
    notes = [
        f"lower bound {lower} is the circle count minus one, a property of "
        "the band surface taken on trust here",
        f"upper bound {upper} is a verified percolating set",
    ]
    t = g = r = None
    if upper < lower:
        notes.append(
            "upper bound undercuts the trusted lower bound; the diagram is "
            "not a band diagram of the expected kind; no conclusion"
        )
    elif upper == lower:
        t, g, r = lower, bd.n, bd.n
        notes.append("bounds meet; invariants are pinned")
    else:
        notes.append(f"gap of {upper - lower}; no conclusion")
    return BoundsReport(
        n=bd.n,
        lower=lower,
        upper=upper,
        witness=tuple(hull.witness),
        method=hull.method,
        tunnel_number=t,
        splitting_genus=g,
        group_rank=r,
        notes=tuple(notes),
    )


def format_report(r: BoundsReport) -> str:
    witness = " ".join(str(v) for v in r.witness) if r.witness else "-"
    lines = [
        f"n={r.n}",
        f"lower={r.lower} upper={r.upper} witness={witness} method={r.method}",
    ]
    if r.conclusive:
        lines.append(
            f"tunnel={r.tunnel_number} genus={r.splitting_genus} rank={r.group_rank}"
        )
    elif r.upper < r.lower:
        lines.append(
            f"contradiction: upper={r.upper} is below the trusted lower={r.lower}; "
            "no conclusion"
        )
    else:
        lines.append(f"gap={r.upper - r.lower} no conclusion")
    return "\n".join(lines) + "\n"


def report_to_json(r: BoundsReport) -> str:
    doc = {
        "n": r.n,
        "hull": {
            "size": r.upper,
            "method": r.method,
            "witness": list(r.witness),
        },
        "tunnel": {"lower": r.lower, "upper": r.upper},
        "conclusion": (
            {
                "t": r.tunnel_number,
                "genus": r.splitting_genus,
                "rank": r.group_rank,
            }
            if r.conclusive
            else None
        ),
        "notes": list(r.notes),
    }
    return dump_json(doc)
