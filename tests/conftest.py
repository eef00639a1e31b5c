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


def relabel(data, rng):
    """(copy, perm): an abstract fixture dict with the simplex indices of
    each dimension permuted by rng, simplex (k, i) becoming (k, perm[k][i]),
    and the permutations.  The slots are kept: each face entry keeps its
    slot and maps its simplex and its target.  alpha, the ridge parts and
    facet pieces of the divisors (a normal is in slot coordinates, so it
    is kept), the curves and the vertex functions are carried along.
    Face, alpha, ridge and curve entries come out sorted."""
    n = data["n"]
    perm = [rng.sample(range(count), count) for count in data["simplices"]]
    out = dict(data)
    out["faces"] = sorted([k, perm[k][i], slot, perm[k - 1][target]]
                          for k, i, slot, target in data.get("faces", []))
    if "alpha" in data:
        out["alpha"] = sorted([perm[n - 1][r], slot, a]
                              for r, slot, a in data["alpha"])

    def divisor(d):
        if isinstance(d, list):
            return sorted([perm[n - 1][r], c] for r, c in d)
        return {"ridge_part": divisor(d.get("ridge_part", [])),
                "facet_pieces": [[perm[n][f], *rest]
                                 for f, *rest in d.get("facet_pieces", [])]}

    if "divisors" in data:
        out["divisors"] = {name: divisor(d)
                           for name, d in data["divisors"].items()}
    if "curves" in data:
        out["curves"] = {name: sorted([perm[1][e], m] for e, m in entries)
                         for name, entries in data["curves"].items()}
    if "functions" in data:
        out["functions"] = {}
        for name, values in data["functions"].items():
            mapped = [None] * len(values)
            for v, x in enumerate(values):
                mapped[perm[0][v]] = x
            out["functions"][name] = mapped
    return out, perm


def relabel_embedded(data, rng):
    """(copy, perm, unbounded_perm): an embedded fixture dict with the
    cells of each bounded level permuted by rng, bounded cell (k, i)
    becoming (k, perm[k][i]), the unbounded cells reordered so that cell
    j moves to unbounded_perm[j], and the permutations.  Each cell keeps
    its vertex tuple (and its rays), so the vertices, a face's slot and
    the vertex functions are kept.  The sheet counts and face sheet maps
    are keyed by the new cell indices.  The divisors and curves live on
    the duplicated complex, one simplex per (cell, sheet) in cell order,
    so their indices are mapped through the new order of those pairs."""
    levels = data["bounded_cells"]
    perm = [rng.sample(range(len(level)), len(level)) for level in levels]
    ucells = data.get("unbounded_cells", [])
    unbounded_perm = rng.sample(range(len(ucells)), len(ucells))
    out = dict(data)
    out["bounded_cells"] = [[None] * len(level) for level in levels]
    for k, level in enumerate(levels):
        for i, cell in enumerate(level):
            out["bounded_cells"][k][perm[k][i]] = cell
    out["unbounded_cells"] = [None] * len(ucells)
    for j, cell in enumerate(ucells):
        out["unbounded_cells"][unbounded_perm[j]] = cell
    sheets = data.get("sheets", {})
    counts = {(k, i): c for k, i, c in sheets.get("counts", [])}
    out["sheets"] = {
        "counts": sorted([k, perm[k][i], c] for (k, i), c in counts.items()),
        "face_sheet_maps": sorted(
            [k, perm[k][i], slot, images]
            for k, i, slot, images in sheets.get("face_sheet_maps", []))}
    dup = []  # per level, each duplicated simplex's new index
    for k, level in enumerate(levels):
        pairs = [(perm[k][i], s) for i in range(len(level))
                 for s in range(counts.get((k, i), 1))]
        new = {pair: j for j, pair in enumerate(sorted(pairs))}
        dup.append([new[pair] for pair in pairs])
    n = len(levels) - 1

    def divisor(d):
        if isinstance(d, list):
            return sorted([dup[n - 1][r], c] for r, c in d)
        return {"ridge_part": divisor(d.get("ridge_part", [])),
                "facet_pieces": [[dup[n][f], *rest]
                                 for f, *rest in d.get("facet_pieces", [])]}

    if "divisors" in data:
        out["divisors"] = {name: divisor(d)
                           for name, d in data["divisors"].items()}
    if "curves" in data:
        out["curves"] = {name: sorted([dup[1][e], m] for e, m in entries)
                         for name, entries in data["curves"].items()}
    return out, perm, unbounded_perm


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
