"""Check each CLI op's output with the benchmark's own code.

``check`` returns a list of problems (empty when the op is right) and
what the op showed: the witness it printed and, for a report, whether it
was conclusive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from reference import Diagram


@dataclass
class Outcome:
    problems: list[str]
    witness: tuple[int, ...] | None = None
    conclusive: bool | None = None


def _ints(text: str) -> tuple[int, ...]:
    return () if text == "-" else tuple(int(t) for t in text.replace(",", " ").split())


def _fields(line: str) -> dict[str, str]:
    out = {}
    for tok in line.split():
        if "=" in tok:
            key, value = tok.split("=", 1)
            out[key] = value
    return out


def _witness_line(rest: str) -> tuple[dict[str, str], tuple[int, ...]]:
    """Split ``... witness=1 2 3 method=x`` style lines (the witness has spaces)."""
    head, tail = rest.split("witness=", 1)
    parts = tail.split(" method=")
    if len(parts) == 2:
        witness, method = parts
    else:
        witness, method = tail, None
    fields = _fields(head)
    if method is not None:
        fields["method"] = method.strip()
    return fields, _ints(witness.strip())


def _check_witness(ref: Diagram, witness, n, method, problems):
    if not ref.percolates(witness):
        problems.append(f"witness {list(witness)} does not percolate")
    if n is not None and len(witness) < n - 1:
        problems.append(f"h={len(witness)} undercuts n-1={n - 1}")
    if method == "constructive" and n is not None and len(witness) != n - 1:
        problems.append(f"constructive h={len(witness)} but n-1={n - 1}")


def _report(argv, code, out, ref, n, method, problems) -> Outcome:
    if "--json" in argv:
        doc = json.loads(out)
        rn, witness = doc["n"], tuple(doc["hull"]["witness"])
        lower, upper = doc["tunnel"]["lower"], doc["tunnel"]["upper"]
        got_method = doc["hull"]["method"]
        concl = doc["conclusion"]
        pinned = None if concl is None else (concl["t"], concl["genus"], concl["rank"])
    else:
        lines = out.splitlines()
        rn = int(lines[0].removeprefix("n="))
        fields, witness = _witness_line(lines[1])
        lower, upper, got_method = int(fields["lower"]), int(fields["upper"]), fields["method"]
        last = _fields(lines[2])
        pinned = (
            (int(last["tunnel"]), int(last["genus"]), int(last["rank"]))
            if "tunnel" in last
            else None
        )
    if n is not None and rn != n:
        problems.append(f"report n={rn}, expected {n}")
    if lower != max(rn - 1, 0):
        problems.append(f"lower={lower} for n={rn}")
    if upper != len(witness):
        problems.append(f"upper={upper} but the witness has {len(witness)} vertices")
    if got_method != method:
        problems.append(f"method {got_method}, expected {method}")
    _check_witness(ref, witness, rn, got_method, problems)
    conclusive = upper == lower
    if conclusive != (pinned is not None):
        problems.append("conclusion does not match the bounds")
    if pinned is not None and pinned != (rn - 1, rn, rn):
        problems.append(f"certificate {pinned} for n={rn}")
    if code != (0 if conclusive else 3):
        problems.append(f"exit {code} for a {'' if conclusive else 'non-'}conclusive report")
    return Outcome(problems, witness, conclusive)


def check(op, argv, code, out, err, files, ref, n, method) -> Outcome:
    """Check one op.  ``ref`` is the reference diagram the op is about (or
    None), ``n`` the circle count of its band (or None), ``method`` the hull
    method a report must use, ``files`` the written files' text by name."""
    problems: list[str] = []
    if "Traceback" in err:
        problems.append("traceback on stderr")
    if code not in op.expect:
        problems.append(f"exit {code}, expected {op.expect}")
        return Outcome(problems)
    if code in (2, 4):
        if out or not err.startswith("error:"):
            problems.append(f"exit {code} without a clean error message")
        if code == 2 and len(err.splitlines()) != 1:
            problems.append("exit 2 with more than one line on stderr")
        return Outcome(problems)
    cmd = argv[0]
    if cmd == "--help":
        if not out.startswith("usage: bandlink"):
            problems.append("help text missing")
    elif cmd == "validate":
        f = _fields(out)
        want = {
            "V": ref.vertex_count,
            "E": len(ref.alpha) // 2,
            "F": len(ref.faces),
            "g": ref.euler_genus,
        }
        if argv[1].endswith(".json"):  # a band spec: validate also prints n
            want["n"] = n
        got = {k: int(f.get(k, -1)) for k in want}
        if got != want:
            problems.append(f"validate printed {got}, expected {want}")
    elif cmd == "faces":
        walks = [
            list(_ints(line.split(" vertices ", 1)[1].split(" origin=")[0]))
            for line in out.splitlines()
        ]
        if walks != ref.face_walks:
            problems.append("face walks differ from the reference faces")
    elif cmd == "strands":
        darts = [d for line in out.splitlines() for d in _ints(line.split(":", 1)[1])]
        if len(out.splitlines()) != ref.strand_count() or sorted(darts) != list(
            range(1, len(ref.alpha) + 1)
        ):
            problems.append("strands do not partition the darts as the reference does")
    elif cmd == "build-band":
        f = _fields(out)
        cmap_name = argv[argv.index("-o") + 1]
        built = Diagram.from_text(files[cmap_name])
        if int(f["n"]) != n or int(f["crossings"]) != built.vertex_count:
            problems.append(f"build-band printed {out.strip()!r}")
        if built.strand_count() != n or built.vertex_count != ref.vertex_count:
            problems.append("written diagram differs from the reference build")
        prov = json.loads(files[argv[argv.index("--provenance") + 1]])
        if prov["n"] != n or len(prov["crossing_kind"]) != built.vertex_count:
            problems.append("provenance sidecar does not match the diagram")
    elif cmd == "percolate":
        manual = _ints(argv[argv.index("--manual") + 1]) if "--manual" in argv else ()
        closed = ref.closure(manual)
        full = len(closed) == ref.vertex_count
        want = f"percolates={'true' if full else 'false'} colored={len(closed)}/{ref.vertex_count}"
        if out.strip() != want:
            problems.append(f"percolate printed {out.strip()!r}, reference {want!r}")
        if code != (0 if full else 3):
            problems.append(f"exit {code} for percolates={full}")
        if "--trace" in argv:
            name = argv[argv.index("--trace") + 1]
            text = files[name]
            if name.endswith(".json"):
                doc = json.loads(text)
                traced_manual = doc["manual"]
                traced = [s["vertex"] for s in doc["steps"]]
            else:
                lines = text.splitlines()
                traced_manual = list(_ints(lines[0].removeprefix("manual:")))
                traced = [int(line.split()[3]) for line in lines[1:]]
            if traced_manual != sorted(set(manual)) or set(traced) | set(manual) != closed \
                    or len(traced) != len(closed - set(manual)):
                problems.append("trace does not replay to the reference closure")
    elif cmd == "hull":
        fields, witness = _witness_line(out.strip())
        if int(fields["h"]) != len(witness):
            problems.append("h does not match the witness size")
        if fields["method"] != method:
            problems.append(f"method {fields['method']}, expected {method}")
        _check_witness(ref, witness, n, fields["method"], problems)
        return Outcome(problems, witness)
    elif cmd == "report":
        return _report(argv, code, out, ref, n, method, problems)
    elif cmd == "render":
        svg = files[argv[argv.index("-o") + 1]] if "-o" in argv else out
        if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
            problems.append("render did not produce an SVG document")
    return Outcome(problems)
