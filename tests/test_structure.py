"""Structure constants, the weak condition, local matrices, classification."""

import random

import pytest

from tropcomplex import (
    DeltaComplex,
    MissingAlpha,
    WrongDimension,
    TropicalStructure,
    check_weak,
    classify,
    local_matrix,
)

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


def test_check_weak_names_missing_alpha_slot(fx):
    T = TropicalStructure(fx["path"].complex, {(0, 0): 1, (2, 0): 1})
    with pytest.raises(MissingAlpha, match=r"^no alpha for ridge 1 slot 0$"):
        check_weak(T)


def test_structure_equality_ignores_alpha(fx):
    X = fx["path"].complex
    T = TropicalStructure(X)
    U = TropicalStructure(X, {(0, 0): 5, (1, 0): 5, (2, 0): 5})
    assert T.alpha != U.alpha
    assert T == U and hash(T) == hash(U) and {T: "T"}[U] == "T"
    assert T != TropicalStructure(fx["loop"].complex) and T != X


def test_missing_alpha_entry_raises(fx):
    T = TropicalStructure(fx["triangle"].complex, {(0, 0): 1})
    with pytest.raises(MissingAlpha):
        local_matrix(T, (0, 0))


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
                want = X.degree((X.n - 1, ridge)) - T.alpha_at(
                    ridge, X.opp_slot(t)
                )
                assert sum(m.matrix[i]) == want


def test_wrong_dimension_rejected(triangle):
    T = triangle.structure()
    with pytest.raises(WrongDimension):
        local_matrix(T, (1, 0))


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


def test_alpha_at_accessor(tetrahedron):
    T = tetrahedron.structure()
    rng = random.Random(3)
    for _ in range(10):
        r = rng.randrange(6)
        s = rng.randrange(2)
        assert T.alpha_at(r, s) == 1
