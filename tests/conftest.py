from __future__ import annotations

import os

import pytest

from bandlink import BandSpec, build_band, load_band_spec, load_cmap
from helpers import FIXTURES


@pytest.fixture(autouse=True)
def no_child_left():
    """A child process left unreaped fails its test, as an open file does."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid or '(still running)'} unreaped")


@pytest.fixture(scope="session")
def triangle():
    return load_cmap(FIXTURES / "triangle.cmap")


@pytest.fixture(scope="session")
def curl():
    return load_cmap(FIXTURES / "curl.cmap")


@pytest.fixture(scope="session")
def torus():
    return load_cmap(FIXTURES / "torus.cmap")


@pytest.fixture(scope="session")
def loop1():
    return load_cmap(FIXTURES / "loop1.cmap")


@pytest.fixture(scope="session")
def chain2_base():
    return load_cmap(FIXTURES / "chain2_base.cmap")


@pytest.fixture(scope="session")
def chain3_band():
    return build_band(load_band_spec(FIXTURES / "chain3.json"))


@pytest.fixture(scope="session")
def curl_band():
    return build_band(load_band_spec(FIXTURES / "curlband.json"))


@pytest.fixture(scope="session")
def torus_band(torus):
    return build_band(BandSpec(torus, (1, 1), ((0, 0), (0, 0))))
