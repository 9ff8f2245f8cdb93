"""Benchmark of the bandlink CLI, end to end and per layer.

    python3 bench/run.py --workload medial-12 --seed 0 --seconds 25 --trace 0

One closed-loop client runs the workload's CLI ops one subprocess at a
time (``python -m bandlink.cli`` with ``PYTHONPATH=src``) for ``--seconds``,
checks every output with the benchmark's own code, and prints the
end-to-end metrics.  With ``--trace 1`` it runs the ops once for their
answers, then the traced in-process run, and prints the per-layer metrics.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it, also written to
``bench/.work/<workload>/result.json``, holds the details: interpreter,
git SHA, nproc, seed, op counts, each timing's sample count and
percentile, and every failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import checks
import workloads
from reference import Diagram

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 0
# setup_s samples: a few up front, then one whenever this long has passed
# since the last, so they spread over the run.  The host's speed drifts by
# 10-20 % over seconds, so back-to-back samples all see the same moment.
SETUP_REPEATS = 5
SETUP_SPACING_S = 1.5
# A timed-out op counts as failed, and so does an op left unrun because
# the run's deadline passed: that keeps a run under three minutes even when
# ops hang.
OP_TIMEOUT_S = {"medial-12": 60.0}
DEFAULT_OP_TIMEOUT_S = 30.0
RUN_DEADLINE_S = 140.0


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_child(argv, cwd, timeout):
    """Run one CLI call; return (seconds, exit code, stdout, stderr, peak RSS KiB).

    The child is waited for with ``waitid(WNOWAIT)`` so that a timeout can
    still kill it before it is reaped, then reaped with ``wait4`` for its
    resource usage.  A timed-out child reports exit code None.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("BANDLINK_BUDGET", None)
    out_path, err_path = os.path.join(cwd, ".stdout"), os.path.join(cwd, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "bandlink.cli", *argv],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        timed_out = False
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        except _Timeout:
            elapsed = time.perf_counter() - start
            timed_out = True
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            _, status, usage = os.wait4(proc.pid, 0)
            # Tell Popen the child is reaped, so it never waits on the pid again.
            proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return elapsed, None if timed_out else proc.returncode, stdout, stderr, usage.ru_maxrss


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    With fewer than 40 samples that rank would sit near or below the
    median, so the maximum is reported instead.  Returns (value, percentile).
    """
    xs = sorted(values)
    rank = len(xs) - 11 if len(xs) >= 40 else len(xs) - 1
    return xs[rank], 100.0 * (rank + 1) / len(xs)


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() or None


class Client:
    """The closed-loop client: runs ops, checks them, keeps the samples."""

    def __init__(self, w, workdir, refs, golden, deadline):
        self.w, self.workdir, self.refs, self.golden = w, workdir, refs, golden
        self.timeout = OP_TIMEOUT_S.get(w.name, DEFAULT_OP_TIMEOUT_S)
        self.deadline = deadline
        self.samples: dict[str, list[float]] = {}
        self.digests: dict[str, str] = {}
        self.witnesses: dict[str, tuple[int, ...] | None] = {}
        self.reports: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.children = 0
        self.peak_kib = 0

    def fail(self, key, problems):
        """Count one failed op, with every problem it showed."""
        if problems:
            self.failed += 1
            self.failures += [f"{key}: {problem}" for problem in problems]

    def run(self, op) -> float:
        self.attempted += 1
        timeout = min(self.timeout, self.deadline - time.perf_counter())
        if timeout <= 0:
            self.fail(op.key, ["not run: the run's deadline passed"])
            return 0.0
        argv = []
        for arg in op.argv:
            if arg.startswith("@witness:"):
                witness = self.witnesses.get(arg.removeprefix("@witness:"))
                if not witness:
                    self.fail(op.key, [f"no witness from {arg}"])
                    return 0.0
                arg = ",".join(map(str, witness))
            argv.append(arg)
        elapsed, code, out, err, kib = run_child(argv, self.workdir, timeout)
        self.children += 1
        self.peak_kib = max(self.peak_kib, kib)
        self.samples.setdefault(op.key, []).append(elapsed)
        if code is None:
            self.fail(op.key, [f"timed out after {timeout:.0f} s"])
            return elapsed
        files, problems = {}, []
        for name in op.writes if code in op.expect else ():
            try:
                with open(os.path.join(self.workdir, name), encoding="utf-8") as fh:
                    files[name] = fh.read()
            except FileNotFoundError:
                problems.append(f"{name} was not written")
        problems += self.check_digest(op.key, out, files)
        band = self.w.band(op.band) if op.band else None
        ref = self.refs.get(op.band)
        if op.target and os.path.exists(os.path.join(self.workdir, op.target)):
            with open(os.path.join(self.workdir, op.target)) as fh:
                ref = Diagram.from_text(fh.read())
        method = "exact" if "--exact" in argv or argv[0] == "hull" and "--constructive" not in argv \
            else "constructive"
        try:
            outcome = checks.check(op, argv, code, out, err, files, ref,
                                   band.spec.n if band else None, method)
        except (KeyError, ValueError, IndexError, AttributeError) as exc:
            outcome = checks.Outcome([f"unparseable output ({exc!r})"])
        self.fail(op.key, problems + outcome.problems)
        if not outcome.problems:
            self.witnesses[op.key] = outcome.witness
        if argv[0] == "report":
            self.reports[op.key] = bool(outcome.conclusive)
        return elapsed

    def check_digest(self, key, out, files):
        h = hashlib.sha256(out.encode())
        for name in sorted(files):
            h.update(b"\0" + name.encode() + b"\0" + files[name].encode())
        digest = h.hexdigest()
        if self.digests.setdefault(key, digest) != digest:
            return ["output differs from the first run of the same op"]
        if self.golden is not None and key != "setup" and self.golden.get(key) != digest:
            return ["output differs from the recorded golden digest"]
        return []


def reference_builds(w, workdir):
    """Build each band in-process and check its structure independently.

    Returns ({band: reference diagram}, problems).  The diagram comes from
    the library's builder; its crossing count, valence, genus and circle
    count are checked here against the spec.
    """
    from bandlink import build_band, format_cmap, load_band_spec

    refs, problems = {}, []
    for b in w.bands:
        built = build_band(load_band_spec(os.path.join(workdir, b.name + ".json")))
        ref = Diagram.from_text(format_cmap(built.diagram))
        s = b.spec
        if (ref.vertex_count != s.crossings or ref.euler_genus != s.genus
                or ref.strand_count() != s.n or any(len(r) != 4 for r in ref.rings)):
            problems.append(f"{b.name}: built diagram does not match its spec")
        refs[b.name] = ref
    return refs, problems


SETUP_OP = workloads.Op("setup", ["--help"])


def measure(client, ops, seconds, started):
    """Whole passes over ``ops``: two, so that every op's median has more
    than one sample (unless the first pass alone overran ``seconds``), then
    more while another pass of the first one's length still ends within
    ``seconds``.  Set-up samples are taken between ops.  Returns the op
    count."""
    last_setup = time.perf_counter()

    def one_pass():
        nonlocal last_setup
        for op in ops:
            if time.perf_counter() - last_setup >= SETUP_SPACING_S:
                client.run(SETUP_OP)
                last_setup = time.perf_counter()
            client.run(op)

    one_pass()
    passes, first = 1, time.perf_counter() - started
    if first <= seconds:
        one_pass()
        passes += 1
    while time.perf_counter() - started + first <= seconds:
        one_pass()
        passes += 1
    return passes * len(ops)


def main(argv=None) -> int:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="run one pass at the default seed and store its digests")
    args = p.parse_args(argv)

    for needed in ("src/bandlink/cli.py", "fixtures/chain3.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found; run from a bandlink checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    if args.record_golden and args.seed != DEFAULT_SEED:
        p.error("--record-golden works at the default seed only")
    workdir = os.path.join(HERE, ".work", args.workload)
    w = workloads.prepare(args.workload, args.seed, ROOT, workdir)
    refs, problems = reference_builds(w, workdir)

    golden = None
    if args.seed == DEFAULT_SEED and not args.record_golden:
        with open(GOLDEN) as fh:
            golden = json.load(fh)["workloads"].get(args.workload)
    client = Client(w, workdir, refs, golden, deadline)
    client.attempted += len(problems)
    for problem in problems:
        client.fail("build", [problem])

    client.run(SETUP_OP)  # warm the bytecode cache; not a sample
    client.samples.clear()
    for _ in range(SETUP_REPEATS):
        client.run(SETUP_OP)

    started = time.perf_counter()
    if args.trace or args.record_golden:
        done = len(w.ops)
        for op in w.ops:
            client.run(op)
    else:
        done = measure(client, w.ops, args.seconds, started)
    setup = client.samples.pop("setup")

    result = {
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "git_sha": git_sha(), "nproc": os.cpu_count(),
        "run_seconds": args.seconds, "ops_per_pass": len(w.ops), "ops_run": done,
        "golden_checked": golden is not None,
    }
    if args.record_golden:
        with open(GOLDEN) as fh:
            doc = json.load(fh)
        doc["workloads"][w.name] = {k: v for k, v in client.digests.items() if k != "setup"}
        with open(GOLDEN, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    if args.trace:
        import tracing

        metrics, swept, details = tracing.traced_run(
            w, workdir, SRC, args.seconds - (time.perf_counter() - started),
            os.path.join(workdir, "spans.tsv"))
        result["traced"] = details
        for b in w.bands:
            key, witness = f"{b.name}:report", swept[b.name]
            problems = []
            if witness is not None and not refs[b.name].percolates(witness):
                problems.append("traced run's witness does not percolate")
            if key in client.reports and witness != client.witnesses.get(key):
                problems.append("traced run found another witness than the CLI")
            client.attempted += 1
            client.fail(f"traced:{b.name}", problems)
    else:
        # Every op timing is taken over the op mix, each op at its median over
        # the passes, so the number of passes a run fits does not move them.
        per_op = {k: statistics.median(xs) for k, xs in client.samples.items()}
        mix = list(per_op.values())
        reports = [per_op[k] for k in client.reports]
        tail_value, tail_pct = tail(mix)
        metrics = {
            "setup_s": (statistics.median(setup), "s", len(setup), 50),
            "wall_s": (sum(mix), "s", len(mix), 50),
            "op_p50_ms": (1000 * statistics.median(mix), "ms", len(mix), 50),
            "op_tail_ms": (1000 * tail_value, "ms", len(mix), tail_pct),
            "certify_s": (statistics.median(reports), "s", len(reports), 50),
            "peak_rss_mb": (client.peak_kib / 1024, "MB", client.children, 100),
        }
        result["passes"] = done // len(w.ops)
        result["timings"] = {
            name: {"value": v, "unit": u, "samples": n, "percentile": pct}
            for name, (v, u, n, pct) in metrics.items()
        }
        result["per_op_median_s"] = per_op

    certified = sum(client.reports.values())
    result.update({
        "attempted": client.attempted, "failed": client.failed,
        "fail_ratio": client.failed / client.attempted,
        "certified_ratio": certified / len(client.reports) if client.reports else None,
        "failures": client.failures,
    })
    line = json.dumps(result, sort_keys=True)
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
