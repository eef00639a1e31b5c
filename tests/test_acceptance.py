"""Acceptance checklist: end-to-end checks with exact expected values.

Every comparison here is exact; the whole suite is expected to finish in
well under a minute.
"""

import ast
import json
import pathlib
import random
import re
import subprocess
import sys
import tokenize
from fractions import Fraction

from tropcomplex import (
    alpha_from_balancing,
    build_structure_from_degeneration,
    check_weak,
    class_group,
    classify,
    div_vertex_function,
    duplicate_sheets,
    intersect_degree,
    is_balanced,
    lin_equiv_witness,
    load_degeneration,
    local_cartier_test,
    local_matrix,
    push_forward_and_compare,
    robustness_check,
)
from tropcomplex.cli import main
from tropcomplex.embedded import derive_structure
from tropcomplex.linalg import inertia
from tests.conftest import fixture_path


def all_structures(fx):
    """Every fixture converted to a structure, for the exhaustive checks."""
    out = {}
    for name in ["triangle", "triangle-tropical", "tetrahedron", "path", "loop"]:
        out[name] = fx[name].structure()
    for name in ["plane", "twosheet"]:
        out[name] = derive_structure(fx[name].embedded)[2]
    out["tet-degen"] = build_structure_from_degeneration(
        fx["tet-degen"].complex, fx["tet-degen"].degeneration
    )
    return out


def test_a01_triangle_matrices_and_verdicts(triangle, triangle_tropical):
    T = triangle.structure()
    want = {
        0: ((0, 1), (1, 0)),
        1: ((-1, 1), (1, -1)),
        2: ((-1, 1), (1, 0)),
    }
    for q, m in want.items():
        assert local_matrix(T, (0, q)).matrix == m
    assert classify(T).verdict == "weak-only"
    assert classify(triangle_tropical.structure()).verdict == "tropical"


def test_a02_tetrahedron_divisor_and_constants(fx, tetrahedron):
    T = tetrahedron.structure()
    d = div_vertex_function(T, [1, 1, 0, 0])
    # 2[cd] - 2[ab] with ab = edge 0 and cd = edge 5
    assert d.ridge_part == ((0, -2), (5, 2))
    assert d == tetrahedron.divisors["D2cd"] - tetrahedron.divisors["D2ab"]
    for name, T in all_structures(fx).items():
        nv = T.complex.counts[0]
        for c in (-1, 0, 3):
            assert div_vertex_function(T, [c] * nv).ridge_part == (), name


def test_a03_two_torsion_suite(tetrahedron):
    T = tetrahedron.structure()
    d = tetrahedron.divisors["Dcd"]
    for q in (2, 3):  # the endpoints c and d of the supporting edge
        v = local_cartier_test(T, d, (0, q))
        assert v.status == "qcartier"
        denominators = {s.denominator for s in v.germ.slopes if s != 0}
        assert denominators == {2}
    for q in range(4):
        assert (
            local_cartier_test(T, tetrahedron.divisors["D2cd"], (0, q)).status
            == "cartier"
        )
    w = lin_equiv_witness(T, d, tetrahedron.divisors["Dab"])
    assert w.phi is None
    g = class_group(T)
    assert any(f % 2 == 0 for f in g.invariant_factors)


def test_a04_balancing_coefficients(plane, twosheet):
    # the edge from u to v is bounded 1-cell 0 of the hexagon fixture
    sol = alpha_from_balancing(plane.embedded, 0)
    assert sol.coefficients == (1, 0)
    for E in (plane.embedded, twosheet.embedded):
        n = E.n
        for ridge in range(len(E.bounded[n - 1])):
            s = alpha_from_balancing(E, ridge)
            assert sum(s.coefficients) == s.d


def test_a05_two_sheet_duplication_is_a_cycle(twosheet):
    X, _ = duplicate_sheets(twosheet.embedded)
    assert X.counts == (2, 2)
    for e in range(2):
        assert set(X.faces[1][e]) == {0, 1}
    assert X.degree((0, 0)) == 2 and X.degree((0, 1)) == 2


def test_a06_robustness_verdicts(plane):
    E = plane.embedded
    u = robustness_check(E, 0, 0)
    v = robustness_check(E, 0, 1)
    w = robustness_check(E, 0, 2)
    assert u.robust
    assert not v.robust
    assert w.maximal_unbounded_cell is not None
    assert u.maximal_unbounded_cell is None
    assert v.maximal_unbounded_cell is None


def test_a07_principal_intersections_vanish(fx):
    rng = random.Random(107)
    for name, T in all_structures(fx).items():
        if T.complex.n not in (1, 2):
            continue
        curves = dict(fx[name].curves)
        if name == "tet-degen":
            curves = {
                cname: fx[name].curves[cname]
                for cname in fx[name].degeneration.curves
            }
        balanced = {
            cname: C
            for cname, C in curves.items()
            if is_balanced(T, C).balanced
        }
        if not balanced:
            continue
        nv = T.complex.counts[0]
        for _ in range(100):
            phi = [rng.randint(-9, 9) for _ in range(nv)]
            d = div_vertex_function(T, phi)
            for cname, C in balanced.items():
                res = intersect_degree(T, d, C)
                assert res.degree == 0, (name, cname)


def random_unimodular(n, rng, steps=10):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            u[i][k] += c * u[j][k]
    return u


def test_a08_inertia_congruence_invariance(fx):
    rng = random.Random(108)
    for name, T in all_structures(fx).items():
        X = T.complex
        if X.n < 2:
            continue
        for qi in range(X.counts[X.n - 2]):
            m = [list(r) for r in local_matrix(T, (X.n - 2, qi)).matrix]
            k = len(m)
            if k == 0:
                continue
            base = inertia(m)
            for _ in range(20):
                u = random_unimodular(k, rng)
                c = [
                    [
                        sum(
                            u[a][i] * m[a][b] * u[b][j]
                            for a in range(k)
                            for b in range(k)
                        )
                        for j in range(k)
                    ]
                    for i in range(k)
                ]
                assert inertia(c) == base, (name, qi)


def test_a09_pushforward_matches_weight_oracle(plane):
    rng = random.Random(109)
    E = plane.embedded
    for _ in range(50):
        f = [rng.randint(-7, 7) for _ in range(len(E.vertices))]
        res = push_forward_and_compare(E, f=f)
        assert res.verdict == "pass"
        assert res.pushed == res.oracle


def test_a10_degeneration_consistency(tet_degen):
    X = tet_degen.complex
    strictT = build_structure_from_degeneration(X, tet_degen.degeneration)
    assert check_weak(strictT).passed
    assert all(v == 1 for v in strictT.alpha.values())

    rng = random.Random(110)
    for _ in range(10):
        # draw a weak alpha, translate it to self-intersection numbers, and
        # expect the non-strict ingestion to reproduce it
        alpha = {}
        for r in range(X.counts[1]):
            a = rng.randint(-4, 4)
            alpha[(r, 0)] = a
            alpha[(r, 1)] = X.degree((1, r)) - a
        rows = []
        for q in range(X.counts[0]):
            for ti, t in enumerate(X.link0((0, q))):
                rows.append(
                    [q, ti, -alpha[(t.coface[1], X.opp_slot(t))]]
                )
        data = load_degeneration(
            {"mode": "nonstrict", "self_intersections": rows}
        )
        T = build_structure_from_degeneration(X, data)
        assert T.alpha == alpha
        assert check_weak(T).passed

    # the two ingestion routes agree on a regular complex without loops
    nonstrict_rows = []
    for q in range(X.counts[0]):
        for ti in range(len(X.link0((0, q)))):
            nonstrict_rows.append([q, ti, -1])
    data = load_degeneration(
        {"mode": "nonstrict", "self_intersections": nonstrict_rows}
    )
    assert build_structure_from_degeneration(X, data).alpha == strictT.alpha


def test_a11_theorem_verification_exit_codes(capsys, tmp_path):
    path = fixture_path("tet-degen")
    code = main(["verify", str(path), "-D", "D", "-C", "C"])
    out, _ = capsys.readouterr()
    report = json.loads(out)
    assert code == 0
    assert report["result"]["computed"] == [2, 1]
    assert report["result"]["match"] is True

    data = json.loads(path.read_text())
    data["claimed"] = [["D", "C", 3, 1]]
    bad = tmp_path / "claim3.json"
    bad.write_text(json.dumps(data))
    code = main(["verify", str(bad), "-D", "D", "-C", "C"])
    out, _ = capsys.readouterr()
    report = json.loads(out)
    assert code == 1
    assert report["result"]["match"] is False
    assert report["result"]["claimed"] == [3, 1]


def test_package_has_no_assert_statements():
    # results and inputs are checked by explicit typed errors, which
    # python -O does not strip
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "tropcomplex"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_every_private_function_has_a_caller_in_the_package():
    # a helper named with a leading underscore is the package's own: once
    # no code in src reads its name (a call, or a reference passed on), it
    # is dead, whatever the tests still call.  Imports and docstrings do
    # not count as readers
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "tropcomplex"
    defined = {}
    read = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name.startswith("_") \
                    and not node.name.endswith("__"):
                defined["%s:%d" % (path.name, node.lineno)] = node.name
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 10
    assert [where for where, name in defined.items()
            if name not in read] == []


def test_every_private_name_in_the_readme_is_in_the_package():
    # README names private helpers in backticks; once a helper is deleted
    # or renamed, its name must leave the README too.  Fenced blocks go
    # first, so that their backticks do not pair with inline ones
    root = pathlib.Path(__file__).resolve().parent.parent
    text = re.sub(r"^```.*?^```[^\n]*$", "", (root / "README.md").read_text(),
                  flags=re.S | re.M)
    documented = {name for span in re.findall(r"`([^`]*)`", text)
                  for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", span)}
    identifiers = set()
    for path in sorted((root / "src" / "tropcomplex").glob("*.py")):
        with path.open() as source:
            identifiers.update(tok.string for tok in
                               tokenize.generate_tokens(source.readline)
                               if tok.type == tokenize.NAME)
    assert len(documented) > 10
    assert sorted(documented - identifiers) == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # every `tcx` call is a fresh process that pays for each module the
    # package imports; dataclasses alone pulls in inspect, ast and dis
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; sys.path.insert(0, %r); import tropcomplex; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
             % str(src))
    out = subprocess.run([sys.executable, "-S", "-c", probe], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
