"""Combinatorial maps, band diagrams, and percolation hulls.

The names below are the library the README, the command line front end and
the benchmark use.  Result and data types (``Face``, ``BandDiagram``,
``Coloring``, ``HullResult``, ``BoundsReport`` and the rest) live in their
modules and are not re-exported.
"""

from .band import (
    BandSpec,
    band_diagram_from_provenance,
    build_band,
    load_band_spec,
    provenance_to_json,
)
from .bounds import format_report, report
from .cmap import (
    CombinatorialMap,
    derived_genus,
    faces,
    format_cmap,
    load_cmap,
    parse_cmap,
    strands,
    validate,
)
from .errors import BandlinkError, BudgetExceeded, ConstructionStuck
from .hull import hull_constructive_band, hull_exact, verify_witness
from .percolation import close, parse_trace, trace_to_json
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "BandSpec",
    "BandlinkError",
    "BudgetExceeded",
    "CombinatorialMap",
    "ConstructionStuck",
    "band_diagram_from_provenance",
    "build_band",
    "close",
    "derived_genus",
    "faces",
    "format_cmap",
    "format_report",
    "hull_constructive_band",
    "hull_exact",
    "load_band_spec",
    "load_cmap",
    "parse_cmap",
    "parse_trace",
    "provenance_to_json",
    "render_svg",
    "report",
    "strands",
    "trace_to_json",
    "validate",
    "verify_witness",
]
