"""Command line front end.

Exit codes: 0 success, 1 usage, 2 bad input or failed validation, 3 a clean
negative answer (no percolation, or bounds that do not meet), 4 resource
limits (search budget, stuck construction).  Outputs are byte stable so they
can be diffed and golden-tested.  Each command imports only the layers it
runs, so ``--help`` and a usage error load nothing but this module and the
errors.
"""

from __future__ import annotations

import argparse
import sys
from itertools import zip_longest

from .errors import BandlinkError, ConstructionStuck, clip_repr


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"{clip_repr(text)} is not a non-negative integer")
    return value


def _load(path: str, provenance: str | None = None, genera=None):
    """Resolve a map argument to (map, band context or None).

    A .json path is a band spec, built on the spot (the builder checks what
    it builds), and takes no sidecar; anything else is a .cmap file,
    validated here once against ``genera`` and optionally paired with a
    provenance sidecar.  Nothing downstream validates again.  The band layer
    is imported only when a spec or a sidecar needs it.
    """
    from .cmap import load_cmap, validate
    if path.endswith(".json"):
        from .band import build_band, load_band_spec
        if provenance:
            raise BandlinkError("--provenance goes with a .cmap path, not a band spec")
        bd = build_band(load_band_spec(path))
        if genera is not None:
            validate(bd.diagram, genera)
        return bd.diagram, bd
    m = load_cmap(path)
    validate(m, genera)
    if provenance:
        from .band import band_diagram_from_provenance
        with open(provenance, "r", encoding="utf-8") as fh:
            return m, band_diagram_from_provenance(m, fh.read())
    return m, None


def _parse_ints(values, noun: str = "vertex id") -> list[int]:
    out = []
    for chunk in values or ():
        for tok in chunk.replace(",", " ").split():
            try:
                out.append(int(tok))
            except ValueError:
                raise BandlinkError(f"{noun} {clip_repr(tok)} is not an integer")
    return out


def _cmd_validate(args) -> int:
    from .cmap import derived_genus, faces
    genera = _parse_ints(args.genera, "genus") if args.genera else None
    m, bd = _load(args.path, genera=genera)
    line = (
        f"V={m.vertex_count} E={m.edge_count} F={len(faces(m))} "
        f"g={derived_genus(m)}"
    )
    if len(m.components) > 1:
        line += f" components={len(m.components)}"
    if bd is not None:
        line += f" n={bd.n}"
    print(line)
    return 0


def _cmd_faces(args) -> int:
    from .cmap import faces
    m, bd = _load(args.path, args.provenance)
    for f in faces(m):
        line = (
            f"face {f.id}: darts "
            + " ".join(str(d) for d in f.boundary)
            + " vertices "
            + " ".join(str(v) for v in f.vertex_list)
        )
        if bd is not None and bd.face_provenance[f.id - 1] is not None:
            line += f" origin={bd.face_provenance[f.id - 1]}"
        print(line)
    return 0


def _cmd_strands(args) -> int:
    from .cmap import strands
    m, _ = _load(args.path)
    for s in strands(m):
        print(f"strand {s.id}: " + " ".join(str(d) for d in s.darts))
    return 0


def _cmd_build_band(args) -> int:
    from .band import build_band, load_band_spec, provenance_to_json
    from .cmap import format_cmap
    bd = build_band(load_band_spec(args.path))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(format_cmap(bd.diagram))
    if args.provenance:
        with open(args.provenance, "w", encoding="utf-8") as fh:
            fh.write(provenance_to_json(bd))
    print(f"n={bd.n} crossings={bd.diagram.vertex_count}")
    return 0


def _cmd_percolate(args) -> int:
    from .cmap import faces
    from .percolation import close, format_trace, trace_to_json
    m, _ = _load(args.path)
    manual = _parse_ints(args.manual)
    faces_list = faces(m)
    coloring, trace = close(m, faces_list, manual)
    if args.trace:
        text = (
            trace_to_json(trace)
            if args.trace.endswith(".json")
            else format_trace(trace)
        )
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(text)
    full = coloring.complete
    print(
        f"percolates={'true' if full else 'false'} "
        f"colored={len(coloring.colored)}/{m.vertex_count}"
    )
    return 0 if full else 3


def _band(bd, what: str):
    if bd is None:
        raise BandlinkError(f"{what} needs a band spec or --provenance")
    return bd


def _cmd_hull(args) -> int:
    from .hull import hull_constructive_band, hull_exact
    m, bd = _load(args.path, args.provenance)
    if args.constructive:
        result = hull_constructive_band(_band(bd, "hull --constructive"))
    else:
        result = hull_exact(m, budget=args.budget)
    witness = " ".join(str(v) for v in result.witness) if result.witness else "-"
    print(f"h={result.size} method={result.method} witness={witness}")
    return 0


def _cmd_report(args) -> int:
    from .bounds import format_report, report, report_to_json
    from .hull import hull_constructive_band, hull_exact
    bd = _band(_load(args.path, args.provenance)[1], "report")
    if args.exact:
        result = hull_exact(bd.diagram, budget=args.budget)
    else:
        result = hull_constructive_band(bd)
    rep = report(bd, result)
    sys.stdout.write(report_to_json(rep) if args.json else format_report(rep))
    return 0 if rep.conclusive else 3


def _refuse_difference(got: list[str], want: list[str], where: str) -> None:
    for line, expected in zip_longest(got, want, fillvalue="end of trace"):
        if line != expected:
            raise BandlinkError(
                f"trace has {clip_repr(line)} where {where} {clip_repr(expected)}"
            )


def _cmd_render(args) -> int:
    from .render import render_svg
    m, bd = _load(args.path, args.provenance)
    coloring = None
    if args.trace:
        from .cmap import faces
        from .percolation import close, format_trace, parse_trace, trace_to_json
        with open(args.trace, "r", encoding="utf-8") as fh:
            text = fh.read()
        recorded = parse_trace(text)
        coloring, trace = close(m, faces(m), recorded.manual)
        _refuse_difference(
            format_trace(recorded).splitlines(),
            format_trace(trace).splitlines(),
            "the reclosure of its manual set has",
        )
        # Then the file itself: exactly what `percolate --trace` writes, in
        # the flavour parse_trace read it as.
        written = trace_to_json(trace) if text.strip().startswith("{") else format_trace(trace)
        _refuse_difference(text.split("\n"), written.split("\n"), "percolate --trace writes")
    elif args.manual is not None:
        from .cmap import faces
        from .percolation import close
        coloring, _ = close(m, faces(m), _parse_ints(args.manual))
    svg = render_svg(m, coloring=coloring, band=bd)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bandlink", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check a map or band spec and print counts")
    p.add_argument("path")
    p.add_argument(
        "--genera",
        action="append",
        help="expected per-component genera for disconnected maps",
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("faces", help="list faces as dart and vertex walks")
    p.add_argument("path")
    p.add_argument("--provenance", help="sidecar JSON to annotate base faces")
    p.set_defaults(func=_cmd_faces)

    p = sub.add_parser("strands", help="list straight-ahead strands")
    p.add_argument("path")
    p.set_defaults(func=_cmd_strands)

    p = sub.add_parser("build-band", help="build a band diagram from a spec")
    p.add_argument("path")
    p.add_argument("-o", dest="out", help="write the diagram as a .cmap file")
    p.add_argument("--provenance", help="write the provenance sidecar JSON")
    p.set_defaults(func=_cmd_build_band)

    p = sub.add_parser("percolate", help="close a coloring and report coverage")
    p.add_argument("path")
    p.add_argument("--manual", action="append", help="starting vertices, e.g. '1,4'")
    p.add_argument("--trace", help="write the coloring trace (.json for JSON)")
    p.set_defaults(func=_cmd_percolate)

    def add_hull_options(p):
        p.add_argument("path")
        p.add_argument("--provenance", help="sidecar JSON giving band context")
        p.add_argument(
            "--budget", type=_budget, help="exact search limit in face visits (default 10^8)"
        )

    p = sub.add_parser("hull", help="find a minimum percolating set")
    add_hull_options(p)
    p.add_argument("--constructive", action="store_true", help="band chain walk")
    p.set_defaults(func=_cmd_hull)

    p = sub.add_parser("report", help="bounds and conclusions from a hull")
    add_hull_options(p)
    p.add_argument(
        "--exact",
        action="store_true",
        help="force the exhaustive search",
    )
    p.add_argument("--json", action="store_true", help="print the report as JSON")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("render", help="draw a genus zero map as SVG")
    p.add_argument("path")
    p.add_argument("--provenance", help="sidecar JSON to mark crossing kinds")
    tint = p.add_mutually_exclusive_group()
    tint.add_argument("--trace", help="tint from a saved trace, checked by reclosing it")
    tint.add_argument("--manual", action="append", help="tint a fresh percolation run")
    p.add_argument("-o", dest="out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_render)

    # Python 3.13's argparse wraps long usage lines differently, so they are
    # spelled out as 3.10-3.12 wrap them: the same help bytes on every version.
    def usage(cmd, *rows):
        cmd.usage = "%(prog)s " + ("\n" + " " * len(f"usage: {cmd.prog} ")).join(rows)

    usage(sub.choices["render"], "[-h] [--provenance PROVENANCE]",
          "[--trace TRACE | --manual MANUAL] [-o OUT]", "path")
    usage(parser, "[-h]", "{" + ",".join(sub.choices) + "}", "...")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    try:
        return args.func(args)
    except ConstructionStuck as exc:
        print(f"error: {exc}", file=sys.stderr)
        for line in exc.log:
            print(f"  {line}", file=sys.stderr)
        return exc.exit_code
    except BandlinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
