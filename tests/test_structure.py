"""Structure constants, the weak condition, local matrices, classification."""

import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from tropcomplex import (
    Curve,
    DeltaComplex,
    Divisor,
    IndexMismatch,
    MissingAlpha,
    SchemaError,
    WrongDimension,
    TropicalStructure,
    check_weak,
    classify,
    div_vertex_function,
    intersect_degree,
    is_balanced,
    load_fixture,
    local_cartier_test,
    local_matrix,
    weil_test,
)
from tropcomplex import delta, linalg
from tropcomplex.structure import local_systems
from tcxbench import gen

TRIANGLE_MATRICES = {
    0: ((0, 1), (1, 0)),
    1: ((-1, 1), (1, -1)),
    2: ((-1, 1), (1, 0)),
}
TRIANGLE_INERTIAS = {0: (1, 1, 0), 1: (0, 1, 1), 2: (1, 1, 0)}
TETRA_MATRIX = ((-1, 1, 1), (1, -1, 1), (1, 1, -1))


def test_weak_condition_on_fixtures(fx):
    for name in ["triangle", "triangle-tropical", "tetrahedron", "path", "loop"]:
        T = fx[name].structure()
        report = check_weak(T)
        assert report.passed, name
        assert report.isolated_ridges == ()


def test_weak_violation_reported():
    T = TropicalStructure(
        DeltaComplex(1, [3, 2], {1: [[1, 0], [2, 1]]}),
        {(0, 0): 1, (1, 0): 3, (2, 0): 1},
    )
    report = check_weak(T)
    assert not report.passed
    # middle vertex has degree 2, alpha claims 3
    assert any(r == 1 for r, _, _ in report.violations)


def test_isolated_ridge_detected():
    # a second uv edge lying in no triangle
    X = DeltaComplex(
        2, [3, 4, 1], {1: [[1, 0], [2, 0], [2, 1], [1, 0]], 2: [[2, 1, 0]]}
    )
    alpha = {(e, s): 0 for e in range(4) for s in range(2)}
    alpha.update({(0, 0): 1, (1, 0): 1, (2, 0): 1})
    report = check_weak(TropicalStructure(X, alpha))
    assert 3 in report.isolated_ridges


def test_structure_alpha_defaults_to_degrees_on_graphs(fx):
    X = fx["path"].complex
    assert TropicalStructure(X).alpha == {(0, 0): 1, (1, 0): 2, (2, 0): 1}
    assert TropicalStructure(fx["loop"].complex).alpha == {(0, 0): 2}
    assert TropicalStructure(DeltaComplex(0, [1], {})).alpha == {}


def test_structure_alpha_required_above_dimension_one(fx):
    with pytest.raises(MissingAlpha, match=r"^alpha required for n = 2$"):
        TropicalStructure(fx["triangle"].complex)


def test_structure_names_a_missing_alpha_entry(fx):
    with pytest.raises(MissingAlpha, match=r"^no alpha for ridge 1 slot 0$"):
        TropicalStructure(fx["path"].complex, {(0, 0): 1, (2, 0): 1})


def test_structure_equality_ignores_alpha(fx):
    X = fx["path"].complex
    T = TropicalStructure(X)
    U = TropicalStructure(X, {(0, 0): 5, (1, 0): 5, (2, 0): 5})
    assert T.alpha != U.alpha
    assert T == U and hash(T) == hash(U) and {T: "T"}[U] == "T"
    assert T != TropicalStructure(fx["loop"].complex) and T != X
    assert repr(U) == ("TropicalStructure(complex=%r, alpha={(0, 0): 5, "
                       "(1, 0): 5, (2, 0): 5})" % (X,))
    with pytest.raises(AttributeError, match="^TropicalStructure is "
                                             "immutable$"):
        T.alpha = {}


def test_structure_names_the_first_missing_entry_in_ridge_major_order(fx):
    X = fx["triangle"].complex
    with pytest.raises(MissingAlpha, match=r"^no alpha for ridge 0 slot 1$"):
        TropicalStructure(X, {(0, 0): 1})
    # insertion order does not matter: ridge 1 slot 0 comes first
    alpha = {(2, 0): 1, (0, 1): 1, (0, 0): 1}
    with pytest.raises(MissingAlpha, match=r"^no alpha for ridge 1 slot 0$"):
        TropicalStructure(X, alpha)


def test_structure_refuses_every_one_entry_short_table(fx):
    # check_weak, chip_matrix, div_vertex_function, local_matrix and both
    # branches of the germ relations (n = 1 and n >= 2) index alpha with
    # no guard, so no structure may lack a (ridge, slot) pair, at n = 1, 2
    # or 3
    for name in ("path", "loop", "triangle", "tetrahedron"):
        X = fx[name].complex
        n = X.n
        full = {(r, s): 1 for r in range(X.counts[n - 1]) for s in range(n)}
        assert TropicalStructure(X, full).alpha is full
        for key in full:
            alpha = dict(full)
            del alpha[key]
            with pytest.raises(MissingAlpha,
                               match=r"^no alpha for ridge %d slot %d$" % key):
                TropicalStructure(X, alpha)


@pytest.mark.parametrize("key, message", [
    ((3, 0), r"^alpha entry \[3, 0, 7\]: ridge 3 out of range \(3 ridges\)$"),
    ((-1, 0), r"^alpha entry \[-1, 0, 7\]: ridge -1 out of range "
              r"\(3 ridges\)$"),
    ((0, 2), r"^alpha entry \[0, 2, 7\]: slot 2 out of range \(2 slots\)$"),
])
def test_structure_refuses_an_entry_out_of_range(fx, key, message):
    X = fx["triangle"].complex
    full = {(r, s): 1 for r in range(3) for s in range(2)}
    # range is checked before completeness, with or without the gap
    for alpha in (dict(full), {(0, 0): 1}):
        alpha[key] = 7
        with pytest.raises(IndexMismatch, match=message):
            TropicalStructure(X, alpha)
    point = DeltaComplex(0, [1], {})
    assert TropicalStructure(point, {}).alpha == {}
    with pytest.raises(IndexMismatch, match=r"ridge 0 out of range \(0 "):
        TropicalStructure(point, {(0, 0): 1})


@pytest.mark.parametrize("value", [Fraction(4, 3), Fraction(1), 0.5, 1.0,
                                   True, False])
def test_structure_refuses_a_non_integer_entry(fx, value):
    # smith reads dense rows through int(): a rational entry would give a
    # wrong local system (-2/3 read as -1) or a zero pivot (1/2 read as 0)
    T = fx["tetrahedron"].structure()
    alpha = dict(T.alpha)
    alpha[4, 0] = value
    message = r"^alpha entry \[4, 0, %s\] is not an integer$" % re.escape(
        repr(value))
    with pytest.raises(SchemaError, match=message):
        TropicalStructure(T.complex, alpha)


def reference_local_matrix(T, q):
    """The local matrix by face composition: each end of a link edge by
    `face_at` at every slot of its coface but one outside the edge's
    slots, and each diagonal alpha at the slot `opp_slot` names."""
    X = T.complex
    elems = X.link0(q)
    m = [[0] * len(elems) for _ in elems]
    link = X.link(q)
    for f in (link[1] if len(link) > 1 else ()):
        k = f.coface[0]
        ends = []
        for drop in (x for x in range(k + 1) if x not in f.slots):
            rest = tuple(x for x in range(k + 1) if x != drop)
            slots = tuple(x if x < drop else x - 1 for x in f.slots)
            ends.append(elems.index((X.face_at(f.coface, rest), slots)))
        a, b = ends
        m[a][b] += 1
        m[b][a] += 1
    for i, t in enumerate(elems):
        m[i][i] -= T.alpha[t.coface[1], X.opp_slot(t)]
    return tuple(map(tuple, m))


def test_local_matrix_matches_face_at_reference(kernel_structures):
    loops = 0
    for T in kernel_structures:
        X = T.complex
        if X.n < 2:
            continue
        for q in ((X.n - 2, i) for i in range(X.counts[X.n - 2])):
            got = local_matrix(T, q)
            assert got.elements == X.link0(q)
            assert got.matrix == reference_local_matrix(T, q), (X, q)
            # the diagonal is 2 * (loops at t) - alpha
            loops += sum(got.matrix[i][i] + T.alpha[t.coface[1],
                                                     X.opp_slot(t)]
                         for i, t in enumerate(got.elements))
    assert loops > 0


def test_local_systems_match_reference_on_any_cell_list(kernel_structures):
    # the builder against face composition on every cell, in a shuffled
    # order with repeats, element order and row order included; with a
    # right-hand side, each row ends in the divisor's coefficient at its
    # ridge, Fractions as given.  A repeated cell gets fresh lists
    rng = random.Random(23)
    seen = set()
    for T in kernel_structures:
        X = T.complex
        if X.n < 2:
            continue
        count = X.counts[X.n - 2]
        cells = list(range(count)) + rng.choices(range(count), k=3)
        rng.shuffle(cells)
        nr = X.counts[X.n - 1]
        D = Divisor.on_ridges({
            r: rng.choice((rng.randint(-3, 3),
                           Fraction(rng.randint(-3, 3), rng.randint(2, 3))))
            for r in rng.sample(range(nr), min(nr, 4))})
        plain = local_systems(T, cells)
        augmented = local_systems(T, cells, [D.coeff(r) for r in range(nr)])
        assert len(plain) == len(augmented) == len(cells)
        for qi, (elems, rows), (more, extended) in zip(cells, plain,
                                                        augmented):
            q = (X.n - 2, qi)
            assert elems == more == X.link0(q)
            assert tuple(map(tuple, rows)) == reference_local_matrix(T, q), (
                X, q)
            assert extended == [row + [D.coeff(t.coface[1])]
                                for row, t in zip(rows, elems)], (X, q)
            seen.update(type(row[-1]) for row in extended)
        rows = [row for _, rows in plain + augmented for row in rows]
        assert len(set(map(id, rows))) == len(rows)
        assert local_systems(T, []) == []
    assert seen == {int, Fraction}


def test_local_systems_make_no_incidence_helper_call(monkeypatch):
    # classify, weil_test, is_balanced and intersect_degree read the local
    # tables recorded at construction and alpha directly: no face
    # composition, opposite-slot lookup or slot table (wherever the
    # package binds it) per link element.  On an integer torus the kernels
    # get ints with no type test and no Fraction, so neither `_integers`,
    # linalg's Fraction nor the `chain` of the front doors' type test is
    # reached
    calls = Counter()

    def refused(*args):
        raise AssertionError("called after construction")

    def counted(name):
        original = getattr(DeltaComplex, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in ("face_at", "opp_slot", "opp_vertex"):
        monkeypatch.setattr(DeltaComplex, name, counted(name))
    t = gen.torus(6, random.Random(6))
    T = load_fixture(t.fixture).structure()
    rng = random.Random(6)
    D = div_vertex_function(T, [rng.randint(-3, 3) for _ in range(t.nv)])
    C = Curve.on_edges(gen.torus_curve(t, rng))
    assert D.ridge_part and C.multiplicities
    slot_table = delta._slot_table
    for module in list(sys.modules.values()):
        if (module.__name__.startswith("tropcomplex")
                and getattr(module, "_slot_table", None) is slot_table):
            monkeypatch.setattr(module, "_slot_table", refused)
    for name in ("_integers", "Fraction", "chain"):
        monkeypatch.setattr(linalg, name, refused)
    assert classify(T).verdict == "tropical"
    assert weil_test(T, D) == (True, ())
    assert is_balanced(T, C).balanced
    assert intersect_degree(T, D, C).degree == 0
    assert not calls
    T.complex.face_at((2, 0), (0, 1))
    assert calls == {"face_at": 1}


def test_triangle_local_matrices(triangle):
    T = triangle.structure()
    for q, want in TRIANGLE_MATRICES.items():
        m = local_matrix(T, (0, q))
        assert m.matrix == want


def test_local_matrix_is_symmetric_everywhere(fx):
    for name in ["triangle", "triangle-tropical", "tetrahedron"]:
        T = fx[name].structure()
        for q in range(T.complex.counts[0]):
            m = local_matrix(T, (0, q)).matrix
            for i in range(len(m)):
                for j in range(len(m)):
                    assert m[i][j] == m[j][i]


def test_local_matrix_row_sums(fx):
    # row sum at a link vertex t equals deg(ridge_t) - alpha(ridge_t, opp):
    # off-diagonal entries count the facets containing the ridge
    for name in ["triangle", "triangle-tropical", "tetrahedron"]:
        T = fx[name].structure()
        X = T.complex
        for q in range(X.counts[0]):
            m = local_matrix(T, (0, q))
            for i, t in enumerate(m.elements):
                ridge = t.coface[1]
                want = X.degree((X.n - 1, ridge)) - T.alpha[
                    ridge, X.opp_slot(t)
                ]
                assert sum(m.matrix[i]) == want


def test_wrong_dimension_rejected(triangle):
    T = triangle.structure()
    with pytest.raises(WrongDimension):
        local_matrix(T, (1, 0))


@pytest.mark.parametrize("q", [-1, 4])
def test_local_queries_refuse_a_cell_out_of_range(tetrahedron, q):
    # -1 used to read the last cell under the label (0, -1), and 4 to
    # raise a raw IndexError: both name the cell instead, and the two
    # ends of the range still answer
    T = tetrahedron.structure()
    D = tetrahedron.divisors["Dcd"]
    message = r"^cell %d out of range \(4 cells\)$" % q
    for query in (lambda: local_matrix(T, (0, q)),
                  lambda: local_cartier_test(T, D, (0, q))):
        with pytest.raises(IndexMismatch, match=message):
            query()
    for end in (0, 3):
        assert local_matrix(T, (0, end)).base == (0, end)
        assert local_cartier_test(T, D, (0, end)).germ.base == (0, end)


def test_classify_triangle_weak_only(triangle):
    res = classify(triangle.structure())
    assert res.verdict == "weak-only"
    assert res.weak.passed
    got = {q: i.as_tuple() for q, i in res.inertias}
    assert got == TRIANGLE_INERTIAS


def test_classify_triangle_tropical_variant(triangle_tropical):
    res = classify(triangle_tropical.structure())
    assert res.verdict == "tropical"
    got = {q: i.as_tuple() for q, i in res.inertias}
    assert got == {0: (1, 1, 0), 1: (1, 1, 0), 2: (1, 1, 0)}


def test_classify_tetrahedron(tetrahedron):
    T = tetrahedron.structure()
    for q in range(4):
        assert local_matrix(T, (0, q)).matrix == TETRA_MATRIX
    res = classify(T)
    assert res.verdict == "tropical"
    assert {q: i.as_tuple() for q, i in res.inertias} == {
        q: (1, 2, 0) for q in range(4)
    }


def test_classify_graphs_vacuously_tropical(fx):
    for name in ["path", "loop"]:
        res = classify(fx[name].structure())
        assert res.verdict == "tropical"
        assert res.inertias == ()


def test_classify_weak_failure_reports_weak_only(fx):
    X = fx["triangle"].complex
    alpha = {(e, s): 5 for e in range(3) for s in range(2)}
    res = classify(TropicalStructure(X, alpha))
    assert res.verdict == "weak-only"
    assert not res.weak.passed
    assert res.inertias == ()


def test_link_element_count_matches_matrix_size(fx):
    for name in ["triangle", "tetrahedron"]:
        T = fx[name].structure()
        X = T.complex
        for q in range(X.counts[0]):
            m = local_matrix(T, (0, q))
            assert len(m.matrix) == len(m.elements) == len(X.link((0, q))[0])
