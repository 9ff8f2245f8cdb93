"""The traced in-process run: every band input through every layer.

Spans are recorded only here, around calls into ``bandlink``'s public
functions; the library itself is not instrumented.  Each span holds a
name, start, end, parent and op id (the band it belongs to).  A layer's
self time is its span's duration minus the time its child spans cover.

Every band passes through every layer, so each layer is measured on each
workload: the hull method the workload's reports use, the other method as
well (the exact search capped by a budget where the band is large), and a
render where the band is planar.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import bandlink
from bandlink.cli import build_parser
from bandlink.errors import BudgetExceeded, ConstructionStuck

# Span names, in pipeline order, and the per-layer metric each feeds.
LAYER_SPANS = (
    "band.load_spec", "band.build", "cmap.format", "cmap.parse",
    "cmap.validate", "cmap.faces", "cmap.strands", "band.provenance_write",
    "band.provenance_read", "hull.constructive", "hull.exact", "hull.verify",
    "bounds.report", "bounds.format", "percolation.close",
    "percolation.trace_write", "percolation.trace_read", "render.render",
)
# The spans a CLI `report` over a written diagram passes through.
CERTIFY_SPANS = (
    "cmap.parse", "band.provenance_read", "hull.constructive", "hull.verify",
    "bounds.report", "bounds.format",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self._stack: list[int] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out


class NullTracer:
    op = None

    def span(self, name: str):
        return nullcontext()


def sweep(w, workdir: str, tr) -> tuple[dict, dict]:
    """Run every band of ``w`` through every layer; return (counts, witnesses).

    ``witnesses`` maps a band name to the witness its report method found,
    or None when the walk got stuck.
    """
    counts: dict[str, float] = defaultdict(float)
    witnesses = {}
    for b in w.bands:
        tr.op = b.name
        with tr.span("band"):
            with tr.span("band.load_spec"):
                spec = bandlink.load_band_spec(os.path.join(workdir, b.name + ".json"))
            with tr.span("band.build"):
                built = bandlink.build_band(spec)
            with tr.span("cmap.format"):
                text = bandlink.format_cmap(built.diagram)
            with tr.span("cmap.parse"):
                m = bandlink.parse_cmap(text)
            with tr.span("cmap.validate"):
                bandlink.validate(m)
            with tr.span("cmap.faces"):
                faces = bandlink.faces(m)
            with tr.span("cmap.strands"):
                bandlink.strands(m)
            with tr.span("band.provenance_write"):
                prov = bandlink.provenance_to_json(built)
            with tr.span("band.provenance_read"):
                bd = bandlink.band_diagram_from_provenance(m, prov)
            counts["cmap.darts"] += m.dart_count
            counts["cmap.faces"] += len(faces)
            counts["band.crossings"] += m.vertex_count
            counts["band.circles"] += bd.n

            hulls = {}
            try:
                with tr.span("hull.constructive"):
                    hulls["constructive"] = bandlink.hull_constructive_band(bd)
                log = hulls["constructive"].log
                counts["walk.successes"] += 1
            except ConstructionStuck as exc:
                log = exc.log
            counts["hull.constructive.steps"] += len(log)
            counts["hull.constructive.attempts"] += sum(ln.startswith("start face") for ln in log)
            counts["hull.constructive.dead_ends"] += sum(
                ln.startswith("dead end") or ln.startswith("witness from") for ln in log
            )
            budget = b.exact_budget if b.method == "constructive" else None
            if b.method == "exact" or budget:
                try:
                    with tr.span("hull.exact"):
                        hulls["exact"] = bandlink.hull_exact(m, budget=budget)
                    counts["hull.exact.scans"] += hulls["exact"].examined
                except BudgetExceeded as exc:
                    counts["hull.exact.scans"] += exc.examined

            hull = hulls.get(b.method)
            witnesses[b.name] = hull.witness if hull else None
            if hull:
                with tr.span("hull.verify"):
                    bandlink.verify_witness(m, hull.witness)
                with tr.span("bounds.report"):
                    rep = bandlink.report(bd, hull)
                with tr.span("bounds.format"):
                    bandlink.format_report(rep)
                counts["bounds.certified"] += rep.conclusive
            with tr.span("percolation.close"):
                coloring, trace = bandlink.close(m, faces, hull.witness if hull else ())
            with tr.span("percolation.trace_write"):
                trace_text = bandlink.trace_to_json(trace)
            with tr.span("percolation.trace_read"):
                bandlink.parse_trace(trace_text)
            counts["percolation.rounds"] += max((e.step for e in trace.entries), default=0)
            counts["percolation.auto_colored"] += len(coloring.auto)
            if b.spec.genus == 0:
                with tr.span("render.render"):
                    svg = bandlink.render_svg(m, coloring=coloring, band=bd)
                counts["render.svg_bytes"] += len(svg.encode())
    tr.op = None
    parser = build_parser()
    for op in w.ops:
        if op.argv[0] != "--help":
            argv = ["1" if a.startswith("@witness:") else a for a in op.argv]
            with tr.span("cli.parse_args"):
                parser.parse_args(argv)
    return counts, witnesses


def import_ms(src: str, repeats: int = 5) -> float:
    """Median wall time of ``import bandlink.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import bandlink.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=src)
    out = [
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60).stdout)
        for _ in range(repeats)
    ]
    return 1000 * statistics.median(out)


def traced_run(w, workdir: str, src: str, seconds: float, spans_path: str):
    """Alternate traced and untraced sweeps for ``seconds`` (at least one
    pair).  Returns (per-layer metrics, witnesses, details)."""
    start = time.perf_counter()
    layer_runs: list[dict[str, float]] = []
    on_s, off_s = [], []
    while True:
        tr = Tracer()
        t0 = time.perf_counter()
        counts, witnesses = sweep(w, workdir, tr)
        on_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        sweep(w, workdir, NullTracer())
        off_s.append(time.perf_counter() - t0)
        layer_runs.append(tr.self_times())
        if time.perf_counter() - start >= seconds:
            break
    with open(spans_path, "w") as fh:
        for name, s, e, parent, op in tr.spans:
            fh.write(f"{name}\t{s:.6f}\t{e:.6f}\t{parent}\t{op}\n")

    def layer(name):
        return statistics.median(run.get(name, 0.0) for run in layer_runs)

    metrics = {
        "cli.import_ms": (import_ms(src), "ms"),
        "cli.parse_args_ms": (1000 * layer("cli.parse_args"), "ms"),
    }
    for name in LAYER_SPANS:
        metrics[name + "_s"] = (layer(name), "s")
    for name in ("cmap.darts", "cmap.faces", "band.crossings", "band.circles",
                 "percolation.rounds", "percolation.auto_colored",
                 "hull.constructive.steps", "hull.constructive.attempts",
                 "hull.constructive.dead_ends", "hull.exact.scans", "render.svg_bytes"):
        metrics[name] = (counts[name], "count")
    attempts = counts["hull.constructive.attempts"]
    metrics["hull.constructive.useful_ratio"] = (
        counts["walk.successes"] / attempts if attempts else 0.0, "ratio")
    exact_s = layer("hull.exact")
    metrics["hull.exact.scans_per_s"] = (
        counts["hull.exact.scans"] / exact_s if exact_s else 0.0, "1/s")
    metrics["bounds.certified_ratio"] = (counts["bounds.certified"] / len(w.bands), "ratio")
    certify = sum(layer(name) for name in CERTIFY_SPANS)
    metrics["hull.constructive.certify_share"] = (layer("hull.constructive") / certify, "ratio")
    on, off = statistics.median(on_s), statistics.median(off_s)
    metrics["trace.overhead_ratio"] = ((on - off) / off, "ratio")
    details = {"sweeps": len(on_s), "traced_s": on_s, "untraced_s": off_s,
               "spans": len(tr.spans)}
    return metrics, witnesses, details
