#!/usr/bin/env python3
"""Regenerate the JSON fixtures under fixtures/.

    python3 scripts/make_fixtures.py

Deterministic output: sorted keys, two-space indent, trailing newline.
The abstract complexes come from `tcxbench/gen.py`, which also builds the
generated families that the tests and the benchmark use.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "fixtures"
sys.path.insert(0, str(ROOT))

from tcxbench import gen  # noqa: E402


def triangle(alpha):
    cells = [
        [(0,), (1,), (2,)],
        [(0, 1), (0, 2), (1, 2)],
        [(0, 1, 2)],
    ]
    return gen.regular_fixture(2, cells, alpha=alpha)


def make_triangle():
    # u, v, w = 0, 1, 2; edges uv=0, uw=1, vw=2
    data = triangle([[0, 0, 1], [0, 1, 0], [1, 0, 1], [1, 1, 0],
                     [2, 0, 0], [2, 1, 1]])
    data["divisors"] = {
        "Duv": [[0, 1]],
        "Dvw": [[2, 1]],
        "P1": [[0, -1], [1, -1], [2, 1]],
        "Zero": [],
    }
    data["curves"] = {"C1": [[0, 1], [1, 2], [2, -1]]}
    data["functions"] = {"phi1": [1, 0, 0]}
    return data


def make_triangle_tropical():
    data = triangle([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0],
                     [2, 0, 0], [2, 1, 1]])
    data["divisors"] = {"Duv": [[0, 1]], "Zero": []}
    data["curves"] = {"C1": [[0, 1], [1, 2], [2, -1]]}
    data["functions"] = {"phi1": [1, 0, 0]}
    return data


def make_tetrahedron():
    # a, b, c, d = 0..3; edges ab=0 ac=1 ad=2 bc=3 bd=4 cd=5
    cells = [
        [(0,), (1,), (2,), (3,)],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    ]
    alpha = [[e, s, 1] for e in range(6) for s in range(2)]
    data = gen.regular_fixture(2, cells, alpha=alpha)
    data["divisors"] = {
        "Dcd": [[5, 1]],
        "Dab": [[0, 1]],
        "D2cd": [[5, 2]],
        "D2ab": [[0, 2]],
        "E": [[0, -2], [5, 2]],
        "Zero": [],
    }
    data["curves"] = {"C": [[e, 1] for e in range(6)]}
    data["functions"] = {"phi_ab_cd": [1, 1, 0, 0]}
    return data


def make_path():
    cells = [[(0,), (1,), (2,)], [(0, 1), (1, 2)]]
    data = gen.regular_fixture(1, cells)
    data["divisors"] = {"Db": [[1, 1]], "Da": [[0, 1]], "Zero": []}
    data["curves"] = {"C": [[0, 1], [1, 1]]}
    data["functions"] = {"phi1": [0, 1, 0]}
    return data


def make_loop():
    data = {
        "format": "tcx-1",
        "kind": "abstract",
        "n": 1,
        "simplices": [1, 1],
        "faces": [[1, 0, 0, 0], [1, 0, 1, 0]],
        "divisors": {"Dv": [[0, 1]], "Zero": []},
        "curves": {"C": [[0, 1]]},
        "functions": {"phi0": [0]},
    }
    return data


def make_plane():
    # u=(0,0) v=(0,1) w=(1,0) p=(1,-1) q=(0,-1) r=(2,-1) s=(1,-2); p interior
    vertices = [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, -1, 1],
                [0, -1, 1], [2, -1, 1], [1, -2, 1]]
    bounded = [
        [[i] for i in range(7)],
        [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [2, 3],
         [2, 5], [3, 4], [3, 5], [3, 6], [4, 6], [5, 6]],
        [[0, 1, 2], [0, 2, 3], [0, 3, 4], [2, 3, 5], [3, 5, 6], [3, 4, 6]],
    ]
    unbounded = [
        {"vertices": [0, 1], "rays": [[-1, 0]]},
        {"vertices": [1, 2], "rays": [[1, 0]]},
        {"vertices": [2, 5], "rays": [[1, 0]]},
        {"vertices": [5, 6], "rays": [[1, 0]]},
        {"vertices": [4, 6], "rays": [[0, -1]]},
        {"vertices": [0, 4], "rays": [[-1, -2]]},
        {"vertices": [0], "rays": [[-1, 0], [-1, -1]]},
        {"vertices": [0], "rays": [[-1, -1], [-1, -2]]},
        {"vertices": [1], "rays": [[1, 0], [0, 1]]},
        {"vertices": [1], "rays": [[0, 1], [-1, 0]]},
        {"vertices": [6], "rays": [[0, -1], [1, 0]]},
        {"vertices": [4], "rays": [[-1, -2], [0, -1]]},
        {"vertices": [0], "rays": [[-1, 0]]},
        {"vertices": [0], "rays": [[-1, -1]]},
        {"vertices": [0], "rays": [[-1, -2]]},
        {"vertices": [1], "rays": [[-1, 0]]},
        {"vertices": [1], "rays": [[0, 1]]},
        {"vertices": [1], "rays": [[1, 0]]},
        {"vertices": [2], "rays": [[1, 0]]},
        {"vertices": [5], "rays": [[1, 0]]},
        {"vertices": [6], "rays": [[1, 0]]},
        {"vertices": [6], "rays": [[0, -1]]},
        {"vertices": [4], "rays": [[0, -1]]},
        {"vertices": [4], "rays": [[-1, -2]]},
    ]
    return {
        "format": "tcx-1",
        "kind": "embedded",
        "N": 2,
        "vertices": vertices,
        "bounded_cells": bounded,
        "unbounded_cells": unbounded,
        "sheets": {"counts": [], "face_sheet_maps": []},
        "divisors": {"Ddup": [[2, 1], [8, 1]]},
        "curves": {"C2": [[0, 1], [1, 1]]},
        "functions": {"f1": [0, 0, 0, 1, 0, 0, 0]},
    }


def make_twosheet():
    return {
        "format": "tcx-1",
        "kind": "embedded",
        "N": 2,
        "vertices": [[0, 0, 1], [1, 0, 1]],
        "bounded_cells": [[[0], [1]], [[0, 1]]],
        "unbounded_cells": [
            {"vertices": [0], "rays": [[-1, 1]]},
            {"vertices": [0], "rays": [[-1, -1]]},
            {"vertices": [1], "rays": [[1, 1]]},
            {"vertices": [1], "rays": [[1, -1]]},
        ],
        "sheets": {
            "counts": [[1, 0, 2]],
            "face_sheet_maps": [[1, 0, 0, [0, 0]], [1, 0, 1, [0, 0]]],
        },
        "divisors": {"Ddup": [[0, 1], [1, 2]]},
        "functions": {"f1": [0, 1]},
    }


def make_tet_degen():
    tet = make_tetrahedron()
    complex_part = {
        "n": tet["n"],
        "simplices": tet["simplices"],
        "faces": tet["faces"],
    }
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    degrees = []
    for r, edge in enumerate(edges):
        for v in range(4):
            degrees.append([v, r, -1 if v in edge else 1])
    return {
        "format": "tcx-1",
        "kind": "degeneration",
        "complex": complex_part,
        "mode": "strict",
        "vertex_ridge_degrees": degrees,
        "divisors": {
            "D": [[5, 1]],
            "E": [[0, -2], [5, 2]],
            "Zero": [],
        },
        "curves": {"C": [[e, 1] for e in range(6)]},
        "claimed": [["D", "C", 2, 1], ["E", "C", 0, 1], ["Zero", "C", 0, 1]],
    }


FIXTURES = {
    "triangle.json": make_triangle,
    "triangle-tropical.json": make_triangle_tropical,
    "tetrahedron.json": make_tetrahedron,
    "path.json": make_path,
    "loop.json": make_loop,
    "plane.json": make_plane,
    "twosheet.json": make_twosheet,
    "tet-degen.json": make_tet_degen,
}


def main(out=OUT):
    """Write every fixture into the directory out."""
    out.mkdir(exist_ok=True)
    for name, builder in sorted(FIXTURES.items()):
        path = out / name
        text = json.dumps(builder(), sort_keys=True, indent=2) + "\n"
        path.write_text(text, encoding="utf-8")
        print("wrote", path)


if __name__ == "__main__":
    main()
