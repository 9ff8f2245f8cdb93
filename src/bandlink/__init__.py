"""Combinatorial maps, band diagrams, and percolation hulls.

The names below are the library the README, the command line front end and
the benchmark use.  Result and data types (``Face``, ``BandDiagram``,
``Coloring``, ``HullResult``, ``BoundsReport`` and the rest) live in their
modules and are not re-exported.

Importing the package loads none of its modules: each name is resolved from
its home module on first use (PEP 562), so a short command line call pays
only for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "band": (
        "BandSpec", "band_diagram_from_provenance", "build_band",
        "load_band_spec", "provenance_to_json",
    ),
    "bounds": ("format_report", "report"),
    "cmap": (
        "CombinatorialMap", "derived_genus", "faces", "format_cmap",
        "load_cmap", "parse_cmap", "strands", "validate",
    ),
    "errors": ("BandlinkError", "BudgetExceeded", "ConstructionStuck"),
    "hull": ("hull_constructive_band", "hull_exact", "verify_witness"),
    "percolation": ("close", "parse_trace", "trace_to_json"),
    "render": ("render_svg",),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value
    return value
