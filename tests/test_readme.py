"""The README's examples run as written, and the public names match the docs."""

import argparse
import contextlib
import importlib
import io
import re
import shlex
import shutil

import pytest

import bandlink
from bandlink.cli import build_parser, main
from helpers import FIXTURES

README = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
SOURCES = FIXTURES.parent / "src" / "bandlink"

PUBLIC_NAMES = [
    # README library section
    "BandSpec", "build_band", "hull_constructive_band",
    "hull_exact", "load_cmap", "report",
    # what bench/ imports besides those
    "CombinatorialMap", "band_diagram_from_provenance", "close",
    "derived_genus", "faces", "format_cmap", "format_report", "load_band_spec",
    "parse_cmap", "parse_trace", "provenance_to_json", "render_svg",
    "strands", "trace_to_json", "validate", "verify_witness",
    # the errors callers catch
    "BandlinkError", "BudgetExceeded", "ConstructionStuck",
]


def fenced_block(section: str, lang: str) -> str:
    """The first ```lang block under the README heading ``## section``."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_public_names():
    assert sorted(bandlink.__all__) == sorted(PUBLIC_NAMES)
    assert len(bandlink.__all__) == len(set(bandlink.__all__)) == 25
    exec(f"from bandlink import {', '.join(bandlink.__all__)}", {})
    # A subclass of BandlinkError exists only to carry data or an exit code.
    assert {c.__name__ for c in bandlink.BandlinkError.__subclasses__()} == {
        "BudgetExceeded",
        "ConstructionStuck",
    }


def test_public_names_resolve_to_their_home_objects():
    for name in bandlink.__all__:
        obj = getattr(bandlink, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("bandlink.") and getattr(home, name) is obj, name
    assert bandlink.faces is bandlink.cmap.faces
    with pytest.raises(AttributeError, match="no_such_name"):
        bandlink.no_such_name


def test_library_example(monkeypatch):
    code = fenced_block("Library", "python")
    imported = re.search(r"from bandlink import \((.*?)\)", code, re.S).group(1)
    assert {name.strip() for name in imported.split(",") if name.strip()} <= set(
        bandlink.__all__
    )
    shown = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    monkeypatch.chdir(FIXTURES.parent)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == shown


def test_cli_walkthrough(tmp_path, monkeypatch, capsys):
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    calls = []
    for line in fenced_block("CLI walkthrough", "sh").splitlines():
        if line.startswith("$ "):
            calls.append((shlex.split(line[2:], comments=True), []))
        elif line:
            calls[-1][1].append(line)
    assert len(calls) == 7
    for argv, shown in calls:
        assert argv[0] == "bandlink"
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().out.splitlines() == shown, argv
    assert (tmp_path / "dl.svg").read_text().startswith("<svg")


def test_named_options_and_variables_exist():
    # The Install section names pip's options, not ours.
    head, rest = README.split("\n## Install\n", 1)
    text = head + rest.split("\n## ", 1)[1]
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = {o for p in commands.choices.values() for o in p._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    assert named and not named - options
    code = "".join(p.read_text(encoding="utf-8") for p in SOURCES.glob("*.py"))
    assert not {v for v in re.findall(r"BANDLINK_\w+", README) if v not in code}
