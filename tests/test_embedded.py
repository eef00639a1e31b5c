"""Embedded subdivisions: balancing import, sheets, robustness, push-forward."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcxbench import gen
from tropcomplex.embedded import UnboundedCell
from tropcomplex.linalg import smith
from tropcomplex import (
    Divisor,
    IndexMismatch,
    EmbeddedComplex,
    InconsistentSheets,
    NoSolution,
    NonUnimodular,
    alpha_from_balancing,
    check_weak,
    derive_structure,
    div_vertex_function,
    duplicate_sheets,
    embedded_weights,
    load_fixture,
    push_forward_and_compare,
    robustness_check,
)
from tests.conftest import fixture_path

PLANE_COEFFS = {
    0: ((1, 0), 1),
    1: ((1, 1), 2),
    2: ((1, 1), 2),
    3: ((-2, 3), 1),
    4: ((0, 1), 1),
    5: ((1, 1), 2),
    6: ((0, 1), 1),
    7: ((1, 1), 2),
    8: ((2, 0), 2),
    9: ((2, 0), 2),
    10: ((0, 1), 1),
    11: ((1, 0), 1),
}


def toy_segment(sheet_counts=None, sheet_maps=None):
    return EmbeddedComplex(
        1,
        [[0, 1], [1, 1]],
        [[(0,), (1,)], [(0, 1)]],
        [],
        sheet_counts=sheet_counts,
        sheet_maps=sheet_maps,
    )


# -- loading and validation -------------------------------------------------


def test_plane_shape(plane):
    E = plane.embedded
    assert E.N == 2
    assert E.n == 2 and E.bounded_dim() == 2
    assert [len(cells) for cells in E.bounded] == [7, 12, 6]
    assert len(E.unbounded) == 24


def test_twosheet_shape(twosheet):
    E = twosheet.embedded
    assert E.N == 2
    assert E.n == 1 and E.bounded_dim() == 1
    assert E.sheets(1, 0) == 2
    assert E.sheets(0, 0) == 1
    assert E.sheet_map(1, 0, 0) == (0, 0)


def test_non_unimodular_edge_rejected():
    with pytest.raises(NonUnimodular):
        EmbeddedComplex(1, [[0, 1], [2, 1]], [[(0,), (1,)], [(0, 1)]], [])


def test_vertices_must_sit_at_height_one():
    with pytest.raises(IndexMismatch):
        EmbeddedComplex(1, [[0, 2], [1, 2]], [[(0,), (1,)], [(0, 1)]], [])


def test_face_closure_required():
    with pytest.raises(IndexMismatch):
        EmbeddedComplex(1, [[0, 1], [1, 1]], [[(0,)], [(0, 1)]], [])


def test_cell_naming_a_missing_vertex_rejected():
    with pytest.raises(IndexMismatch):
        EmbeddedComplex(1, [[0, 1], [1, 1]], [[(0,), (2,)]], [])
    with pytest.raises(IndexMismatch):
        EmbeddedComplex(1, [[0, 1]], [[(0,)]], [UnboundedCell((-1,), ((1,),))])


def test_complex_without_cells_rejected():
    with pytest.raises(IndexMismatch):
        EmbeddedComplex(1, [[0, 1]], [], [])


@st.composite
def unimodular_3x3(draw):
    """A 3 x 3 integer matrix of determinant +-1, as row operations applied
    to a signed permutation matrix, with one entry then moved by up to 1 in
    half of the draws."""
    rows = [[0] * 3 for _ in range(3)]
    for i, j in enumerate(draw(st.permutations(range(3)))):
        rows[i][j] = draw(st.sampled_from((1, -1)))
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.permutations(range(3)))[:2]
        q = draw(st.integers(-3, 3))
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    if draw(st.booleans()):
        rows[draw(st.integers(0, 2))][draw(st.integers(0, 2))] += draw(
            st.integers(-1, 1))
    return rows


# the determinant decides three vectors in Z^3; column Euclid steps every
# other shape
@given(st.one_of(
    st.integers(0, 5).flatmap(lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n,
                                    max_size=n), min_size=m, max_size=m))),
    st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
             min_size=3, max_size=3),
    unimodular_3x3()))
@settings(max_examples=800, deadline=None)
def test_unimodular_matches_invariant_factors(vectors):
    facs = smith(vectors).factors
    want = len(facs) == len(vectors) and all(f == 1 for f in facs)
    assert EmbeddedComplex._unimodular(vectors) == want


def cell_vectors(data):
    """The cells of an embedded fixture in validation order, bounded levels
    then unbounded cells, each as (its NonUnimodular message, its vectors
    in Z^{N+1})."""
    verts = [tuple(v) for v in data["vertices"]]
    cells = [("bounded cell %s" % (tuple(sorted(c)),),
              [verts[i] for i in c])
             for level in data["bounded_cells"] for c in level]
    for u in data["unbounded_cells"]:
        cell = UnboundedCell(tuple(sorted(u["vertices"])),
                             tuple(sorted(map(tuple, u["rays"]))))
        cells.append(("unbounded cell %s" % (cell,),
                      [verts[i] for i in cell.vertices]
                      + [r + (0,) for r in cell.rays]))
    return cells


def count_unimodular_tests(monkeypatch):
    """The vector sets that EmbeddedComplex._unimodular is called on."""
    calls = []
    test = EmbeddedComplex._unimodular

    def counted(vectors):
        calls.append(frozenset(map(tuple, vectors)))
        return test(vectors)
    monkeypatch.setattr(EmbeddedComplex, "_unimodular", staticmethod(counted))
    return calls


@pytest.mark.parametrize("name, tested, cells", [
    ("plane", 18, 49), ("square3", 34, 99)])
def test_load_tests_unimodularity_only_on_cells_with_no_coface(
        monkeypatch, name, tested, cells):
    # a face's vectors are a subset of its coface's, so only the cells
    # that lie in no other cell are tested, each once
    if name == "plane":
        data = json.loads(fixture_path("plane").read_text())
    else:
        data = gen.embedded_square(3, random.Random(3)).fixture
    vectors = [frozenset(v) for _, v in cell_vectors(data)]
    maximal = [v for v in vectors if not any(v < w for w in vectors)]
    assert (len(maximal), len(vectors)) == (tested, cells)
    calls = count_unimodular_tests(monkeypatch)
    load_fixture(data)
    assert sorted(calls, key=sorted) == sorted(maximal, key=sorted)


def reference_first_non_unimodular(data):
    """The message of the first cell in validation order whose vectors
    have an invariant factor other than 1, by the Smith form, or None."""
    for message, vectors in cell_vectors(data):
        facs = smith(vectors).factors
        if len(facs) != len(vectors) or any(f != 1 for f in facs):
            return message
    return None


def mutations(data):
    """Copies of an embedded fixture with one vertex moved (by a unit step,
    or doubled away from the first vertex), or with one ray changed in
    every cell that holds it: sheared, or turned and stretched by 2 + i,
    when that leaves it primitive."""
    verts = data["vertices"]
    for v in range(len(verts)):
        x, y, _ = verts[v]
        x0, y0, _ = verts[0]
        for moved in ((x + 1, y), (x, y - 1), (2 * x - x0, 2 * y - y0)):
            out = json.loads(json.dumps(data))
            out["vertices"][v] = [*moved, 1]
            yield out
    rays = sorted({tuple(r) for u in data["unbounded_cells"]
                   for r in u["rays"]})
    for r in rays:
        for new in ((r[0] + r[1], r[1]), (2 * r[0] - r[1], r[0] + 2 * r[1])):
            if gcd(*new) != 1:
                continue
            out = json.loads(json.dumps(data))
            for u in out["unbounded_cells"]:
                u["rays"] = [list(new) if tuple(x) == r else x
                             for x in u["rays"]]
            yield out


@pytest.mark.parametrize("name", ["plane", "square3"])
def test_a_mutated_load_names_the_first_non_unimodular_cell(name):
    # the reference scans every cell in order; the load tests only cells
    # with no coface, then scans in order when one fails, so a failing face
    # is still named before its coface
    if name == "plane":
        data = json.loads(fixture_path("plane").read_text())
    else:
        data = gen.embedded_square(3, random.Random(3)).fixture
    seen = set()
    for mutated in mutations(data):
        want = reference_first_non_unimodular(mutated)
        try:
            load_fixture(mutated)
        except NonUnimodular as exc:
            got = str(exc)
        else:
            got = None
        assert got == want
        seen.add(None if want is None else want.split(" cell ")[0])
    # passing loads, and failures at bounded and unbounded cells
    assert seen == {None, "bounded", "unbounded"}


def test_a_non_unimodular_cell_is_named_before_a_later_error():
    # the first vertex doubled away from the second makes the edges at it
    # non-unimodular; a repeated unbounded cell, checked later, does not
    # hide them, while a cell naming a missing vertex, checked earlier, does
    data = json.loads(fixture_path("plane").read_text())
    x, y, _ = data["vertices"][1]
    x0, y0, _ = data["vertices"][0]
    data["vertices"][0] = [2 * x0 - x, 2 * y0 - y, 1]
    want = reference_first_non_unimodular(data)
    assert want.startswith("bounded cell (0, ")
    data["unbounded_cells"].append(data["unbounded_cells"][-1])
    with pytest.raises(NonUnimodular) as exc:
        load_fixture(data)
    assert str(exc.value) == want
    data["bounded_cells"][0].append([99])
    with pytest.raises(IndexMismatch, match="bounded cell .99,. names "
                                            "missing vertex 99"):
        load_fixture(data)


# -- sheet duplication ------------------------------------------------------


def test_duplicate_plane_is_isomorphic(plane):
    X, pi = duplicate_sheets(plane.embedded)
    assert X.n == 2
    assert X.counts == (7, 12, 6)
    # all sheet counts are one, so the projection is a bijection per level
    for k in range(3):
        assert list(pi[k]) == list(range(X.counts[k]))


def test_duplicate_twosheet_gives_cycle(twosheet):
    X, pi = duplicate_sheets(twosheet.embedded)
    assert X.counts == (2, 2)
    ends = {
        tuple(sorted((X.faces[1][e][0], X.faces[1][e][1]))) for e in range(2)
    }
    assert ends == {(0, 1)}
    assert X.degree((0, 0)) == 2 and X.degree((0, 1)) == 2
    assert list(pi[1]) == [0, 0]


def test_duplicate_custom_two_sheet_vertex():
    E = toy_segment(
        sheet_counts={(0, 0): 2, (1, 0): 2},
        sheet_maps={(1, 0, 0): (0, 0), (1, 0, 1): (0, 1)},
    )
    X, pi = duplicate_sheets(E)
    assert X.counts == (3, 2)
    assert list(pi[0]) == [0, 0, 1]


def test_inconsistent_sheet_map_rejected():
    with pytest.raises(InconsistentSheets):
        duplicate_sheets(
            toy_segment(
                sheet_counts={(1, 0): 2},
                sheet_maps={(1, 0, 0): (0, 5), (1, 0, 1): (0, 0)},
            )
        )


# -- balancing coefficients -------------------------------------------------


def test_plane_balancing_table(plane):
    E = plane.embedded
    for ridge, (coeffs, d) in PLANE_COEFFS.items():
        sol = alpha_from_balancing(E, ridge)
        assert sol.coefficients == coeffs, ridge
        assert sol.d == d
        assert sum(sol.coefficients) == sol.d


@pytest.mark.parametrize("ridge", [12, -1])
def test_balancing_at_a_missing_ridge_is_index_mismatch(plane, ridge):
    with pytest.raises(IndexMismatch, match="index %d" % ridge):
        alpha_from_balancing(plane.embedded, ridge)


def test_balancing_coefficient_sum_rule(plane, twosheet):
    for E in (plane.embedded, twosheet.embedded):
        n = E.n
        for ridge in range(len(E.bounded[n - 1])):
            sol = alpha_from_balancing(E, ridge)
            assert sum(sol.coefficients) == sol.d


def balancing_holds(E, ridge_index, sol):
    """The weight-1 balancing relation at a ridge with the solution's
    coefficients, summed over the cells that contain the ridge."""
    n = E.n
    ridge = E.bounded[n - 1][ridge_index]
    lhs = [0] * (E.N + 1)
    for f, cell in enumerate(E.bounded[n]):
        if set(ridge) < set(cell):
            (extra,) = set(cell) - set(ridge)
            lhs = [a + E.sheets(n, f) * b
                   for a, b in zip(lhs, E.vertices[extra])]
    for u in E.unbounded:
        if u.vertices == ridge and u.dim == n:
            for r in u.rays:
                lhs = [a + b for a, b in zip(lhs, r + (0,))]
    return lhs == [sum(c * E.vertices[v][j]
                       for c, v in zip(sol.coefficients, ridge))
                   for j in range(E.N + 1)]


def test_balancing_solutions_are_integral_and_sum_to_d(plane, twosheet):
    # alpha_from_balancing checks neither: its ridge is unimodular, and the
    # height row's right-hand side is d.  Integer coefficients that satisfy
    # the relation are its one rational solution.
    embedded = [plane.embedded, twosheet.embedded]
    embedded += [load_fixture(gen.embedded_square(k, random.Random(k))
                              .fixture).embedded for k in range(1, 5)]
    ridges = 0
    for E in embedded:
        for ridge in range(len(E.bounded[E.n - 1])):
            sol = alpha_from_balancing(E, ridge)
            assert all(type(c) is int for c in sol.coefficients)
            assert balancing_holds(E, ridge, sol), (E, ridge)
            assert sum(sol.coefficients) == sol.d
            ridges += 1
    assert ridges == 12 + 2 + sum(3 * k * k + 2 * k for k in range(1, 5))


def test_derive_structure_is_weak(plane, twosheet):
    for fixture in (plane, twosheet):
        X, pi, T, sols = derive_structure(fixture.embedded)
        report = check_weak(T)
        assert report.passed
        assert set(sols) == set(range(len(fixture.embedded.bounded[T.complex.n - 1])))


def test_plane_alpha_values(plane):
    _, _, T, _ = derive_structure(plane.embedded)
    for ridge, (coeffs, _) in PLANE_COEFFS.items():
        for slot, c in enumerate(coeffs):
            assert T.alpha[(ridge, slot)] == c


def test_unbalanced_input_has_no_solution():
    # one bounded edge in the plane with a single orthogonal ray cannot
    # balance at vertex 0
    E = EmbeddedComplex(
        2,
        [[0, 0, 1], [1, 0, 1]],
        [[(0,), (1,)], [(0, 1)]],
        [UnboundedCell((0,), ((0, 1),))],
    )
    with pytest.raises(NoSolution):
        alpha_from_balancing(E, 0)


# -- robustness -------------------------------------------------------------


def test_hexagon_robustness_verdicts(plane):
    E = plane.embedded
    u = robustness_check(E, 0, 0)
    assert (u.robust, u.certificate, u.maximal_unbounded_cell) == (
        True,
        (-1, 0),
        None,
    )
    v = robustness_check(E, 0, 1)
    assert (v.robust, v.certificate, v.maximal_unbounded_cell) == (
        False,
        None,
        None,
    )
    w = robustness_check(E, 0, 2)
    assert w.robust and w.certificate == (1, 0)
    assert w.maximal_unbounded_cell == 1


def test_robustness_toy_quadrant():
    # vertex with two axis rays: the all-ones functional certifies it
    E = EmbeddedComplex(
        2,
        [[0, 0, 1]],
        [[(0,)]],
        [
            UnboundedCell((0,), ((1, 0),)),
            UnboundedCell((0,), ((0, 1),)),
        ],
    )
    r = robustness_check(E, 0, 0)
    assert r.robust
    assert r.certificate == (1, 1)


def test_robustness_tropical_line_vertex_not_robust():
    E = EmbeddedComplex(
        2,
        [[0, 0, 1]],
        [[(0,)]],
        [
            UnboundedCell((0,), ((-1, 0),)),
            UnboundedCell((0,), ((0, -1),)),
            UnboundedCell((0,), ((1, 1),)),
        ],
    )
    r = robustness_check(E, 0, 0)
    assert not r.robust
    assert r.certificate is None


def test_robustness_certificate_separates(plane):
    E = plane.embedded
    for idx in range(len(E.bounded[0])):
        r = robustness_check(E, 0, idx)
        if r.robust and any(r.certificate):
            cell = E.bounded[0][idx]
            for u in E.unbounded:
                if set(cell) <= set(u.vertices) and u.dim == 1:
                    for ray in u.rays:
                        dot = sum(a * b for a, b in zip(r.certificate, ray))
                        assert dot > 0


# -- push-forward and the weight oracle -------------------------------------


def test_pushforward_of_vertex_function(plane):
    res = push_forward_and_compare(plane.embedded, f=plane.functions["f1"])
    assert res.verdict == "pass"
    assert res.pushed == {
        0: 0,
        1: 1,
        2: -1,
        3: 1,
        4: 0,
        5: -1,
        6: 1,
        7: -1,
        8: -2,
        9: -2,
        10: 1,
        11: 1,
    }
    assert res.oracle == res.pushed


def test_pushforward_constant_function_vanishes(plane):
    res = push_forward_and_compare(plane.embedded, f=[4] * 7)
    assert res.verdict == "pass"
    assert all(v == 0 for v in res.pushed.values())


def test_pushforward_random_functions_match_oracle(plane):
    rng = random.Random(17)
    for _ in range(10):
        f = [rng.randint(-5, 5) for _ in range(7)]
        res = push_forward_and_compare(plane.embedded, f=f)
        assert res.verdict == "pass"
        assert res.pushed == embedded_weights(plane.embedded, f)


def test_pushforward_gauges_through_a_ray(plane):
    # the bounded edge [2, 7] added to the plane lies in no bounded
    # triangle, only in two unbounded cells with opposite rays, so its
    # weight is gauged through the first ray; balancing gives alpha 0 there
    # and the weight is 0 for every f
    data = json.loads(fixture_path("plane").read_text())
    data["vertices"].append([2, 0, 1])
    data["bounded_cells"][0].append([7])
    data["bounded_cells"][1].append([2, 7])
    for ray in ([0, 1], [0, -1]):
        data["unbounded_cells"] += [{"vertices": vs, "rays": [ray]}
                                    for vs in ([2, 7], [2], [7])]
    E = load_fixture(data).embedded
    ridge = E.bounded[1].index((2, 7))
    assert alpha_from_balancing(E, ridge).coefficients == (0, 0)
    rng = random.Random(26)
    for f in [plane.functions["f1"] + [1]] + [
            [rng.randint(-5, 5) for _ in range(8)] for _ in range(5)]:
        res = push_forward_and_compare(E, f=f)
        assert res.verdict == "pass"
        assert res.pushed[ridge] == res.oracle[ridge] == 0


def test_pushforward_on_twosheet(twosheet):
    res = push_forward_and_compare(twosheet.embedded, f=twosheet.functions["f1"])
    assert res.verdict == "pass"
    assert res.pushed == {0: 2, 1: -2}


def test_pushforward_of_divisor(twosheet):
    res = push_forward_and_compare(
        twosheet.embedded, D=twosheet.divisors["Ddup"]
    )
    assert res.pushed == {0: 1, 1: 2}
    assert res.oracle is None and res.verdict is None


def test_pushforward_adds_sheet_multiplicities():
    E = toy_segment(
        sheet_counts={(0, 0): 2, (1, 0): 2},
        sheet_maps={(1, 0, 0): (0, 0), (1, 0, 1): (0, 1)},
    )
    res = push_forward_and_compare(E, D=Divisor.on_ridges({0: 1, 1: 2}))
    assert res.pushed[0] == 3


def test_pushforward_without_bounded_ridges():
    # bounded cells of dimension 0 only: no ridge receives a multiplicity
    point = EmbeddedComplex(1, [[0, 1]], [[(0,)]], [])
    res = push_forward_and_compare(point, f=[3])
    assert (res.pushed, res.oracle, res.verdict) == ({}, {}, "pass")
    assert push_forward_and_compare(point, D=Divisor.on_ridges({})).pushed == {}
    ray = EmbeddedComplex(1, [[0, 1]], [[(0,)]], [UnboundedCell((0,), ((1,),))])
    with pytest.raises(IndexMismatch, match=r"ridge 0 out of range \(0 dup"):
        push_forward_and_compare(ray, D=Divisor.on_ridges({0: 1}))


def test_pushforward_checks_vertex_count(plane):
    with pytest.raises(IndexMismatch):
        push_forward_and_compare(plane.embedded, f=[0, 1])


def test_pushforward_divisor_matches_vertex_function_route(plane):
    # feeding div(f o pi) through the divisor route gives the same fiber sums
    E = plane.embedded
    f = plane.functions["f1"]
    X, pi, T, _ = derive_structure(E)
    fpi = [int(f[E.bounded[0][cell][0]]) for cell in pi[0]]
    d = div_vertex_function(T, fpi)
    res_d = push_forward_and_compare(E, D=d)
    res_f = push_forward_and_compare(E, f=f)
    assert res_d.pushed == res_f.pushed


def test_facets_through_matches_scan(plane, twosheet):
    for E in (plane.embedded, twosheet.embedded):
        for level in E.bounded:
            for ridge in level:
                n = len(ridge)
                above = E.bounded[n] if n < len(E.bounded) else ()
                bounded = [f for f, cell in enumerate(above)
                           if set(ridge) <= set(cell)]
                unbounded = [ci for ci, u in enumerate(E.unbounded)
                             if u.dim == n and set(ridge) <= set(u.vertices)]
                assert E.facets_through(ridge) == (bounded, unbounded)


def test_robustness_cell_out_of_range(plane):
    for k, idx in ((9, 9), (0, 7), (0, -1), (-1, 0)):
        with pytest.raises(IndexMismatch):
            robustness_check(plane.embedded, k, idx)
