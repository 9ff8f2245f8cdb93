"""Mutation sampler: make one small change to a module, run its tests, repeat.

    python tests/mutate.py src/bandlink/hull.py tests/test_hull.py [--only K ...]

Each site of the module is one of four changes: a comparison swapped (``<``
and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``in`` and ``not in``, ``is``
and ``is not``), ``and`` and ``or`` swapped, an ``int`` constant plus 1, or a
``not`` dropped.  For each site the sampler writes the mutated module
(``ast.unparse`` of the changed tree) into a copy of the repository, runs the
given test files there with ``-x``, runs the whole suite on each mutant they
miss, and prints ``killed`` or ``SURVIVED``.  It first checks that the
unmutated ``ast.unparse`` passes.  The source tree is never written.
Standard library only.  Pytest does not collect this file, and CI does not
run it: a sweep of one module takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # per test run; a mutant that loops counts as killed
SWAP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
}


def sites(tree: ast.AST) -> list[tuple[ast.AST, int, str]]:
    """Every mutable spot as (node, operator index, description), in
    ``ast.walk`` order, which a fresh parse of the same text repeats."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAP:
                    out.append((node, i, f"{type(op).__name__} -> {SWAP[type(op)].__name__}"))
        elif isinstance(node, ast.BoolOp):
            out.append((node, 0, f"{type(node.op).__name__} -> {SWAP[type(node.op)].__name__}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            out.append((node, 0, f"{node.value} -> {node.value + 1}"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((node, 0, "drop not"))
    return out


def mutant(source: str, k: int) -> str:
    """The source with site k changed, or unchanged for k = -1."""
    tree = ast.parse(source)
    if k >= 0:
        node, i, _ = sites(tree)[k]
        if isinstance(node, ast.Compare):
            node.ops[i] = SWAP[type(node.ops[i])]()
        elif isinstance(node, ast.BoolOp):
            node.op = SWAP[type(node.op)]()
        elif isinstance(node, ast.Constant):
            node.value += 1
        else:
            tree = _DropNot(node).visit(tree)
    return ast.unparse(tree) + "\n"


class _DropNot(ast.NodeTransformer):
    def __init__(self, target: ast.AST):
        self.target = target

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.AST:
        node = self.generic_visit(node)
        return node.operand if node is self.target else node


def run_tests(work: Path, tests: list[str]) -> str:
    # No bytecode is written: two mutants of one size written within the
    # same second would otherwise share a stale .pyc.
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "SURVIVED" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="the module to mutate, relative to the repository")
    parser.add_argument("tests", nargs="+", help="the test files to run on each mutant")
    parser.add_argument("--only", type=int, nargs="*", help="site numbers to run (default all)")
    args = parser.parse_args(argv)
    source = (ROOT / args.module).read_text(encoding="utf-8")
    found = sites(ast.parse(source))
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        work = Path(tmp) / "repo"
        shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(".git", "__pycache__", ".work"))
        target = work / args.module
        target.write_text(mutant(source, -1), encoding="utf-8")
        if run_tests(work, args.tests) != "SURVIVED":
            print("the unmutated ast.unparse fails its tests; nothing to compare", file=sys.stderr)
            return 2
        survivors = []
        for k in args.only if args.only is not None else range(len(found)):
            node, _, what = found[k]
            target.write_text(mutant(source, k), encoding="utf-8")
            verdict = run_tests(work, args.tests)
            if verdict == "SURVIVED":
                verdict = run_tests(work, ["tests"])
            print(f"{k:3d} {args.module}:{node.lineno} {what}: {verdict}", flush=True)
            if verdict == "SURVIVED":
                survivors.append(k)
        print(f"{len(found)} sites, {len(survivors)} survived: {survivors}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
