"""Degeneration intersection data: structure recovery and verification."""

import random
from fractions import Fraction

import pytest

from tcxbench import gen
from tests.conftest import CONE_OVER_LOOP, full_simplex
from tropcomplex import (
    Curve,
    DegenerationData,
    DeltaComplex,
    Divisor,
    InconsistentData,
    PreconditionFailed,
    TropicalStructure,
    UnsupportedDimension,
    is_balanced,
    UnknownName,
    build_structure_from_degeneration,
    check_weak,
    chip_matrix,
    load_degeneration,
    load_fixture,
    local_matrix,
    specialize,
    verify_theorem,
)

# strict intersection degrees reproducing the bundled triangle structure:
# deg(C_v . C_r) = -alpha on the ridge, transverse counts off it
TRIANGLE_DEGREES = [
    [0, 0, -1],
    [1, 0, 0],
    [2, 0, 1],
    [0, 1, -1],
    [2, 1, 0],
    [1, 1, 1],
    [1, 2, 0],
    [2, 2, -1],
    [0, 2, 1],
]

# non-strict self-intersections on the cone over a loop (tests/conftest.py)
CONE_OVER_LOOP_DATA = {
    "mode": "nonstrict",
    "self_intersections": [[0, 0, -2], [1, 0, 2], [1, 1, 0], [1, 2, -1]],
}


def triangle_data(extra=None):
    data = {
        "mode": "strict",
        "vertex_ridge_degrees": TRIANGLE_DEGREES,
        "divisors": {
            "P1": [[0, -1], [1, -1], [2, 1]],
            "Dbad": [[0, 1]],
        },
        "curves": {"C1": [[0, 1], [1, 2], [2, -1]], "Cbad": [[0, 1]]},
        "claimed": [["P1", "C1", 0, 1], ["Dbad", "C1", 5, 1]],
    }
    if extra:
        data.update(extra)
    return load_degeneration(data)


def tetra_nonstrict_rows(X, c2=-1):
    rows = []
    for q in range(X.counts[0]):
        for ti in range(len(X.link0((0, q)))):
            rows.append([q, ti, c2])
    return rows


def degree_rows(fx):
    """The strict [vertex, ridge, degree] rows of a degeneration fixture."""
    return [[v, r, deg] for (v, r), deg in
            fx.degeneration.vertex_ridge_degrees.items()]


# -- strict ingestion -------------------------------------------------------


def test_strict_fixture_recovers_constant_structure(tet_degen):
    X = tet_degen.complex
    T = build_structure_from_degeneration(X, tet_degen.degeneration)
    assert len(T.alpha) == 12
    assert all(v == 1 for v in T.alpha.values())
    assert check_weak(T).passed


def test_strict_triangle_recovers_fixture_alpha(triangle):
    T = build_structure_from_degeneration(triangle.complex, triangle_data())
    assert T.alpha == triangle.structure().alpha


def test_strict_on_graph(path_graph):
    data = load_degeneration(
        {
            "mode": "strict",
            "vertex_ridge_degrees": [
                [0, 0, -1],
                [1, 0, 1],
                [1, 1, -2],
                [0, 1, 1],
                [2, 1, 1],
                [2, 2, -1],
                [1, 2, 1],
            ],
        }
    )
    T = build_structure_from_degeneration(path_graph.complex, data)
    assert T.alpha == {(0, 0): 1, (1, 0): 2, (2, 0): 1}


def test_strict_requires_regular_complex(loop_graph):
    data = load_degeneration({"mode": "strict", "vertex_ridge_degrees": []})
    with pytest.raises(InconsistentData):
        build_structure_from_degeneration(loop_graph.complex, data)


def test_no_ridges_rejected():
    X = DeltaComplex(0, [1], {})
    with pytest.raises(InconsistentData):
        build_structure_from_degeneration(
            X, load_degeneration({"mode": "strict"})
        )


def test_strict_missing_entry_attributes_ridge(tet_degen):
    X = tet_degen.complex
    rows = [r for r in degree_rows(tet_degen) if r[:2] != [0, 0]]
    data = load_degeneration({"mode": "strict", "vertex_ridge_degrees": rows})
    with pytest.raises(InconsistentData) as exc:
        build_structure_from_degeneration(X, data)
    assert exc.value.ridge == 0


def test_strict_transverse_mismatch(tet_degen):
    X = tet_degen.complex
    rows = degree_rows(tet_degen)
    # vertex 0 meets the ridge cd transversally once, not twice
    for r in rows:
        if r[:2] == [0, 5]:
            r[2] = 2
    data = load_degeneration({"mode": "strict", "vertex_ridge_degrees": rows})
    with pytest.raises(InconsistentData) as exc:
        build_structure_from_degeneration(X, data)
    assert exc.value.ridge == 5


def test_strict_nonzero_total(tet_degen):
    X = tet_degen.complex
    rows = degree_rows(tet_degen)
    for r in rows:
        if r[:2] == [2, 5]:
            r[2] = -2
    data = load_degeneration({"mode": "strict", "vertex_ridge_degrees": rows})
    with pytest.raises(InconsistentData) as exc:
        build_structure_from_degeneration(X, data)
    assert exc.value.ridge == 5


class CountingDict(dict):
    """A dict that counts the entries read through it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.reads += 1
        return super().__contains__(key)

    def items(self):
        self.reads += len(self)
        return super().items()


def test_strict_check_reads_grow_linearly():
    # a 4x larger torus may cost about 4x the degree reads; reading every
    # vertex for every ridge costs about 16x
    sizes = {}
    for k in (4, 8):
        t = gen.torus(k, random.Random(k))
        fx = load_fixture(gen.torus_degeneration(t, random.Random(k)))
        degrees = CountingDict(fx.degeneration.vertex_ridge_degrees)
        data = fx.degeneration._replace(vertex_ridge_degrees=degrees)
        T = build_structure_from_degeneration(fx.complex, data)
        assert set(T.alpha.values()) == {1}
        sizes[k] = (degrees.reads, len(degrees))
    assert sizes[8][1] == 4 * sizes[4][1]
    assert sizes[8][0] <= 1.25 * 4 * sizes[4][0]


def reference_derived_degrees(T, ridge):
    """deg(C_v . C_r) for every vertex v, from alpha and the link of r:
    minus alpha at each vertex of r, plus one at the opposite vertex of
    each facet through r."""
    X = T.complex
    n = X.n
    degs = {}
    verts = X.vertices_of((n - 1, ridge))
    for slot, v in enumerate(verts):
        degs[v] = degs.get(v, 0) - T.alpha[ridge, slot]
    for t in X.link0((n - 1, ridge)):
        v = X.opp_vertex(t)
        degs[v] = degs.get(v, 0) + 1
    return degs


def degeneration_builds(tet_degen):
    """(complex, data) of tet-degen, strict degenerations of shuffled tori
    k = 3..6, and the non-strict cone over a loop."""
    cases = [(tet_degen.complex, tet_degen.degeneration)]
    for k in (3, 4, 5, 6):
        rng = random.Random(k)
        fx = load_fixture(gen.torus_degeneration(gen.torus(k, rng), rng))
        cases.append((fx.complex, fx.degeneration))
    cases.append((CONE_OVER_LOOP, load_degeneration(CONE_OVER_LOOP_DATA)))
    return cases


def test_derived_degrees_are_the_chip_matrix_rows(tet_degen):
    modes = set()
    for X, data in degeneration_builds(tet_degen):
        T = build_structure_from_degeneration(X, data)
        want = [{v: d for v, d in reference_derived_degrees(T, r).items()
                 if d}
                for r in range(X.counts[X.n - 1])]
        assert chip_matrix(T) == want
        modes.add(data.mode)
    assert modes == {"strict", "nonstrict"}


def test_each_build_makes_one_chip_matrix(tet_degen, monkeypatch):
    from tropcomplex import degeneration
    calls = []

    def counted(T):
        calls.append(T)
        return chip_matrix(T)
    monkeypatch.setattr(degeneration, "chip_matrix", counted)
    for X, data in degeneration_builds(tet_degen):
        calls.clear()
        T = build_structure_from_degeneration(X, data)
        assert len(calls) == 1 and calls[0] is T, data.mode


# -- non-strict ingestion ---------------------------------------------------


def test_nonstrict_matches_strict_on_tetrahedron(tet_degen):
    X = tet_degen.complex
    strictT = build_structure_from_degeneration(X, tet_degen.degeneration)
    data = load_degeneration(
        {"mode": "nonstrict", "self_intersections": tetra_nonstrict_rows(X)}
    )
    T = build_structure_from_degeneration(X, data)
    assert T.alpha == strictT.alpha


@pytest.mark.parametrize("extra", [[99, 0, 5], [0, 99, 5], [-1, 0, 5]])
def test_nonstrict_rejects_entry_naming_no_stratum_or_position(tet_degen,
                                                               extra):
    X = tet_degen.complex
    data = load_degeneration(
        {"mode": "nonstrict",
         "self_intersections": tetra_nonstrict_rows(X) + [extra]}
    )
    entry = r"\[%d, %d, 5\]" % tuple(extra[:2])
    with pytest.raises(InconsistentData, match=entry):
        build_structure_from_degeneration(X, data)


def test_nonstrict_cone_over_loop():
    # apex 0; vertex 1 carries a loop; the facet glues both loop slots
    T = build_structure_from_degeneration(
        CONE_OVER_LOOP, load_degeneration(CONE_OVER_LOOP_DATA))
    assert T.alpha == {(0, 0): -2, (0, 1): 4, (1, 0): 1, (1, 1): 0}


def test_nonstrict_needs_codimension_two(path_graph):
    data = load_degeneration({"mode": "nonstrict", "self_intersections": []})
    with pytest.raises(InconsistentData):
        build_structure_from_degeneration(path_graph.complex, data)


def test_nonstrict_missing_entry(tet_degen):
    X = tet_degen.complex
    rows = tetra_nonstrict_rows(X)[:-1]
    data = load_degeneration(
        {"mode": "nonstrict", "self_intersections": rows}
    )
    with pytest.raises(InconsistentData):
        build_structure_from_degeneration(X, data)


def test_nonstrict_weak_violation_attributes_ridge(tet_degen):
    X = tet_degen.complex
    rows = tetra_nonstrict_rows(X)
    rows[0][2] = -3
    data = load_degeneration(
        {"mode": "nonstrict", "self_intersections": rows}
    )
    with pytest.raises(InconsistentData) as exc:
        build_structure_from_degeneration(X, data)
    assert exc.value.ridge is not None


def test_nonstrict_cross_checks_given_degrees(tet_degen):
    X = tet_degen.complex
    data = load_degeneration(
        {
            "mode": "nonstrict",
            "self_intersections": tetra_nonstrict_rows(X),
            "vertex_ridge_degrees": [[0, 0, 7]],
        }
    )
    with pytest.raises(InconsistentData) as exc:
        build_structure_from_degeneration(X, data)
    assert exc.value.ridge == 0


def test_nonstrict_accepts_consistent_given_degrees(tet_degen):
    X = tet_degen.complex
    data = load_degeneration(
        {
            "mode": "nonstrict",
            "self_intersections": tetra_nonstrict_rows(X),
            "vertex_ridge_degrees": [[0, 0, -1], [2, 0, 1]],
        }
    )
    T = build_structure_from_degeneration(X, data)
    assert all(v == 1 for v in T.alpha.values())


def test_nonstrict_random_consistent_data_is_weak(tet_degen):
    rng = random.Random(29)
    X = tet_degen.complex
    for _ in range(10):
        alpha = {}
        for r in range(X.counts[1]):
            a = rng.randint(-3, 3)
            alpha[(r, 0)] = a
            alpha[(r, 1)] = X.degree((1, r)) - a
        rows = []
        for q in range(X.counts[0]):
            for ti, t in enumerate(X.link0((0, q))):
                ridge = t.coface[1]
                slot = X.opp_slot(t)
                rows.append([q, ti, -alpha[(ridge, slot)]])
        data = load_degeneration(
            {"mode": "nonstrict", "self_intersections": rows}
        )
        T = build_structure_from_degeneration(X, data)
        assert T.alpha == alpha
        assert check_weak(T).passed


@pytest.mark.parametrize("entry", [[0, 99, 0], [0, -1, 0], [99, 0, 1],
                                   [-1, 0, 1]])
@pytest.mark.parametrize("mode", ["strict", "nonstrict"])
def test_out_of_range_degree_entry_is_rejected(tet_degen, mode, entry):
    # a vertex or ridge that is not in the complex is an input error in
    # both modes, not an IndexError and not an ignored entry
    X = tet_degen.complex
    raw = {"mode": mode, "vertex_ridge_degrees":
           degree_rows(tet_degen) + [entry]}
    if mode == "nonstrict":
        raw["self_intersections"] = tetra_nonstrict_rows(X)
    with pytest.raises(InconsistentData, match=r"entry \[%d, %d, %d\]"
                       % tuple(entry)):
        build_structure_from_degeneration(X, load_degeneration(raw))


def test_each_alpha_pair_is_named_by_one_link_element(kernel_structures):
    # the non-strict build sets alpha(r, s) from the one element of one
    # (n-2)-cell's link0 that names (r, s), with no check for a repeat or a
    # gap: (r, s) is named by ((n-1, r), every slot but s), in link0 of d_s r
    checked = 0
    for T in kernel_structures:
        X = T.complex
        if X.n < 2:
            continue
        named = sorted((t.coface[1], X.opp_slot(t))
                       for q in range(X.counts[X.n - 2])
                       for t in X.link0((X.n - 2, q)))
        assert named == [(r, s) for r in range(X.counts[X.n - 1])
                         for s in range(X.n)], X
        checked += 1
    assert checked >= 10


def test_local_matrix_diagonals_rebuild_alpha(kernel_structures):
    # a diagonal entry is -alpha + 2 * loops, so non-strict data made of the
    # diagonals give back alpha wherever the weak check lets them through
    rebuilt = 0
    for T in kernel_structures:
        X = T.complex
        if X.n < 2 or not check_weak(T).passed:
            continue
        rows = []
        for q in range(X.counts[X.n - 2]):
            m = local_matrix(T, (X.n - 2, q)).matrix
            rows += [[q, ti, m[ti][ti]] for ti in range(len(m))]
        data = load_degeneration({"mode": "nonstrict",
                                  "self_intersections": rows})
        assert build_structure_from_degeneration(X, data).alpha == T.alpha
        rebuilt += 1
    assert rebuilt >= 5


# -- specialization and verification ----------------------------------------


def test_specialize_fixture_names(tet_degen):
    X = tet_degen.complex
    T = build_structure_from_degeneration(X, tet_degen.degeneration)
    res = specialize(T, tet_degen.degeneration, "D")
    assert res.kind == "divisor" and res.verdict == "pass"
    assert res.divisor.ridge_part == ((5, 1),)
    res = specialize(T, tet_degen.degeneration, "C")
    assert res.kind == "curve" and res.verdict == "balanced"
    with pytest.raises(UnknownName):
        specialize(T, tet_degen.degeneration, "missing")


def test_specialize_flags_problem_inputs(triangle):
    data = triangle_data()
    T = build_structure_from_degeneration(triangle.complex, data)
    assert specialize(T, data, "Dbad").verdict == "fail"
    assert specialize(T, data, "P1").verdict == "pass"
    assert specialize(T, data, "Cbad").verdict == "warning"
    assert specialize(T, data, "C1").verdict == "balanced"


def test_verify_fixture_claims(tet_degen):
    X = tet_degen.complex
    T = build_structure_from_degeneration(X, tet_degen.degeneration)
    for dname, want in [("D", 2), ("E", 0), ("Zero", 0)]:
        res = verify_theorem(T, tet_degen.degeneration, dname, "C")
        assert res.computed == want
        assert res.claimed == want
        assert res.match


def test_verify_detects_mismatch(tet_degen):
    X = tet_degen.complex
    data = tet_degen.degeneration._replace(claimed={("D", "C"): Fraction(3)})
    T = build_structure_from_degeneration(X, data)
    res = verify_theorem(T, data, "D", "C")
    assert res.computed == 2 and res.claimed == 3
    assert not res.match


def test_verify_unknown_names(tet_degen):
    X = tet_degen.complex
    T = build_structure_from_degeneration(X, tet_degen.degeneration)
    with pytest.raises(UnknownName):
        verify_theorem(T, tet_degen.degeneration, "missing", "C")
    with pytest.raises(UnknownName):
        verify_theorem(T, tet_degen.degeneration, "D", "missing")


def test_verify_requires_claim_entry(triangle):
    data = triangle_data()
    T = build_structure_from_degeneration(triangle.complex, data)
    with pytest.raises(UnknownName):
        verify_theorem(T, data, "P1", "Cbad")


def test_verify_precondition_weil(triangle):
    data = triangle_data()
    T = build_structure_from_degeneration(triangle.complex, data)
    with pytest.raises(PreconditionFailed) as exc:
        verify_theorem(T, data, "Dbad", "C1")
    assert exc.value.verdict == "weil"


def test_verify_precondition_balance(triangle):
    data = triangle_data(
        {"claimed": [["P1", "Cbad", 0, 1], ["P1", "C1", 0, 1]]}
    )
    T = build_structure_from_degeneration(triangle.complex, data)
    with pytest.raises(PreconditionFailed) as exc:
        verify_theorem(T, data, "P1", "Cbad")
    assert exc.value.verdict == "unbalanced"
    # the well-posed pair still verifies
    assert verify_theorem(T, data, "P1", "C1").match


def test_verify_reports_an_unbalanced_curve_before_the_dimension(
        path_graph, triangle):
    # intersect_degree decides balance at n = 1 and 2, and verify_theorem
    # asks is_balanced first only elsewhere: in every dimension an
    # unbalanced curve is the `unbalanced` precondition, and at n = 3 a
    # balanced one reaches UnsupportedDimension
    X3 = full_simplex(3)
    cases = [(path_graph.structure(), path_graph.complex),
             (triangle.structure(), triangle.complex),
             (TropicalStructure(X3, {(r, s): 0 for r in range(4)
                                     for s in range(3)}), X3)]
    seen = set()
    for T, X in cases:
        curves = {"C%d" % e: Curve.on_edges({e: 1})
                  for e in range(X.counts[1])}
        curves["Zero"] = Curve.on_edges({})
        data = DegenerationData(
            "strict", {}, {}, {"Z": Divisor.on_ridges({})}, curves,
            {("Z", c): Fraction(0) for c in curves})
        for cname, C in curves.items():
            balanced = is_balanced(T, C).balanced
            seen.add((X.n, balanced))
            if not balanced:
                with pytest.raises(PreconditionFailed) as exc:
                    verify_theorem(T, data, "Z", cname)
                assert exc.value.verdict == "unbalanced"
            elif X.n == 3:
                with pytest.raises(UnsupportedDimension):
                    verify_theorem(T, data, "Z", cname)
            else:
                assert verify_theorem(T, data, "Z", cname).match
    assert {(n, b) for n in (1, 2, 3) for b in (True, False)} <= seen


def test_verify_invariant_under_principal_shifts(tet_degen):
    # D and D + div(phi) pair identically with every balanced curve
    from tropcomplex import div_vertex_function, intersect_degree

    rng = random.Random(31)
    X = tet_degen.complex
    T = build_structure_from_degeneration(X, tet_degen.degeneration)
    C = tet_degen.degeneration.curves["C"]
    D = tet_degen.degeneration.divisors["D"]
    base = intersect_degree(T, D, C).degree
    for _ in range(10):
        phi = [rng.randint(-4, 4) for _ in range(4)]
        shifted = D + div_vertex_function(T, phi)
        assert intersect_degree(T, shifted, C).degree == base


def test_fixture_shares_the_degeneration_divisors_and_curves(tet_degen):
    assert tet_degen.divisors is tet_degen.degeneration.divisors
    assert tet_degen.curves is tet_degen.degeneration.curves
    assert set(tet_degen.divisors) == {"D", "E", "Zero"}
    assert all(type(D) is Divisor for D in tet_degen.divisors.values())
    assert all(type(C) is Curve for C in tet_degen.curves.values())
    assert tet_degen.divisors["D"] == Divisor(((5, 1),))


def test_claimed_fractions_parse(tet_degen):
    data = tet_degen.degeneration
    assert data.claimed[("D", "C")] == Fraction(2)
    assert data.mode == "strict"
