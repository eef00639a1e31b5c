"""Shared fixtures: one loader per bundled example complex, and the
generated complexes of `tcxbench/gen.py` as DeltaComplex objects."""

import json
import pathlib
import random
from itertools import combinations

import pytest

from tcxbench import gen
from tropcomplex import build_complex, load_fixture_file

FIXDIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

ABSTRACT = ["triangle", "triangle-tropical", "tetrahedron", "path", "loop"]
EMBEDDED = ["plane", "twosheet"]
DEGENERATION = ["tet-degen"]
ALL = ABSTRACT + EMBEDDED + DEGENERATION


def fixture_path(name):
    return FIXDIR / (name + ".json")


def checked_report(argv, code, stdout):
    """The JSON report a `tcx` call printed, checked against its exit code:
    0, 1 or 2, an error exactly at 2 and a failed verdict exactly at 1."""
    report = json.loads(stdout)
    assert report["command"] == argv[0], argv
    assert code in (0, 1, 2), argv
    assert ("error" in report) == (code == 2), argv
    failed = any(status == "fail" for _, status, _ in report["verdicts"])
    assert failed == (code == 1), argv
    return report


def torus(k, seed=None):
    """The k x k torus of gen.torus; a seed (0 included) shuffles labels."""
    return build_complex(
        gen.torus(k, None if seed is None else random.Random(seed)).fixture)


def full_simplex(n):
    """The n-simplex with all its faces, vertices labelled in slot order."""
    cells = [list(combinations(range(n + 1), k + 1)) for k in range(n + 1)]
    return build_complex(gen.regular_fixture(n, cells))


def dense(rows, ncols):
    """Sparse {column: entry} rows, such as `chip_matrix`'s, as lists."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


@pytest.fixture(scope="session")
def fx():
    """Mapping of fixture name to parsed Fixture object."""
    return {name: load_fixture_file(fixture_path(name)) for name in ALL}


@pytest.fixture(scope="session")
def triangle(fx):
    return fx["triangle"]


@pytest.fixture(scope="session")
def triangle_tropical(fx):
    return fx["triangle-tropical"]


@pytest.fixture(scope="session")
def tetrahedron(fx):
    return fx["tetrahedron"]


@pytest.fixture(scope="session")
def path_graph(fx):
    return fx["path"]


@pytest.fixture(scope="session")
def loop_graph(fx):
    return fx["loop"]


@pytest.fixture(scope="session")
def plane(fx):
    return fx["plane"]


@pytest.fixture(scope="session")
def twosheet(fx):
    return fx["twosheet"]


@pytest.fixture(scope="session")
def tet_degen(fx):
    return fx["tet-degen"]
