"""Shared fixtures: one loader per bundled example complex, and the
generated complexes of `tcxbench/gen.py` as DeltaComplex objects."""

import json
import pathlib
import random
from itertools import combinations

import pytest

from tcxbench import gen
from tropcomplex import (DeltaComplex, TropicalStructure,
                         build_structure_from_degeneration, build_complex,
                         load_fixture, load_fixture_file)
from tropcomplex.embedded import derive_structure

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


# a triangle with faces (d_0, d_1, d_2) = (loop, edge, edge): the link of
# the loop's vertex is a graph with a loop
CONE_OVER_LOOP = DeltaComplex(2, [2, 2, 1], {1: [[1, 0], [1, 1]],
                                             2: [[1, 0, 0]]})
# vertices 0, 1, 2: a double edge 0-1, a loop at 1, an edge 1-2, a loop at 2
GRAPH_WITH_LOOPS = DeltaComplex(1, [3, 5], {1: [[1, 0], [0, 1], [1, 1],
                                                [2, 1], [2, 2]]})


@pytest.fixture(scope="session")
def kernel_structures(fx):
    """Structures the per-cell kernels are checked on against their
    definitions: every shipped fixture (embedded ones through their derived
    structure), strict degenerations of generated tori, shuffled tori
    k = 3..6, the full 3- and 4-simplex, a cone over a loop and a graph
    with loops and a double edge, the last five with random alpha."""
    rng = random.Random(17)

    def random_alpha(X):
        return {(r, s): rng.randint(-2, 3)
                for r in range(X.counts[X.n - 1]) for s in range(X.n)}

    out = [fx[name].structure() for name in ABSTRACT]
    out += [derive_structure(fx[name].embedded)[2] for name in EMBEDDED]
    degenerations = [fx[name] for name in DEGENERATION]
    degenerations += [load_fixture(gen.torus_degeneration(
        gen.torus(k, random.Random(k)), random.Random(k))) for k in (3, 4)]
    out += [build_structure_from_degeneration(d.complex, d.degeneration)
            for d in degenerations]
    complexes = [torus(k, seed=k) for k in (3, 4, 5, 6)]
    complexes += [full_simplex(3), full_simplex(4), CONE_OVER_LOOP,
                  GRAPH_WITH_LOOPS]
    out += [TropicalStructure(X, random_alpha(X)) for X in complexes]
    return out
