"""Combinatorics of glued-simplex complexes: faces, links, validation."""

from itertools import combinations

import pytest

from tropcomplex import (
    DeltaComplex,
    Disconnected,
    DimensionExceeded,
    LinkElement,
    SchemaError,
    SimplicialIdentityViolation,
    TropicalStructure,
    build_complex,
    duplicate_sheets,
)
from tropcomplex.delta import _SLOTS
from tropcomplex.structure import local_systems
from tests.conftest import (ABSTRACT, DEGENERATION, EMBEDDED, full_simplex,
                            torus)

# vertices u, v, w = 0, 1, 2; edges uv, uw, vw = 0, 1, 2; one triangle
TRIANGLE = DeltaComplex(
    2,
    [3, 3, 1],
    {1: [[1, 0], [2, 0], [2, 1]], 2: [[2, 1, 0]]},
)


def test_counts_and_faces():
    assert TRIANGLE.counts == (3, 3, 1)
    assert TRIANGLE.faces[2] == ((2, 1, 0),)


def test_face_returns_simplex_pairs():
    # dropping slot j of the triangle gives the edge opposite vertex j
    assert TRIANGLE.faces[2][0] == (2, 1, 0)
    assert TRIANGLE.face_at((2, 0), (1, 2)) == (1, 2)
    assert TRIANGLE.face_at((2, 0), (0, 2)) == (1, 1)
    assert TRIANGLE.face_at((2, 0), (0, 1)) == (1, 0)


def test_vertices_of_uses_slot_order():
    # slot i of a simplex is recovered by dropping every other slot
    assert TRIANGLE.vertices_of((2, 0)) == (0, 1, 2)
    assert TRIANGLE.vertices_of((1, 0)) == (0, 1)
    assert TRIANGLE.vertices_of((1, 2)) == (1, 2)


def test_edge_slot_convention():
    # faces[1][e] = (boundary_0, boundary_1); slot 0 holds faces[1][e][1]
    for e in range(3):
        d0, d1 = TRIANGLE.faces[1][e]
        assert TRIANGLE.vertices_of((1, e)) == (d1, d0)


def test_link_of_vertex_in_triangle():
    elems = TRIANGLE.link((0, 0))
    # vertex u: two edge cofaces (uv, uw) and one triangle coface
    assert [t.coface for t in elems[0]] == [(1, 0), (1, 1)]
    assert [t.coface for t in elems[1]] == [(2, 0)]
    assert [TRIANGLE.opp_vertex(t) for t in elems[0]] == [1, 2]


def link_graph(X, q):
    """(elements, off-diagonal rows, loops) of the graph link(q) at an
    (n-2)-cell q, read off `local_systems` under zero alpha: an
    off-diagonal entry counts the edges between two elements, and the
    diagonal is 2 * (loops at the element)."""
    zero = TropicalStructure(X, {(r, s): 0 for r in range(X.counts[X.n - 1])
                                 for s in range(X.n)})
    ((elements, rows),) = local_systems(zero, (q[1],))
    loops = []
    for i, row in enumerate(rows):
        assert row[i] % 2 == 0
        loops.append(row[i] // 2)
        row[i] = 0
    return elements, rows, loops


def graph_of(elements, edges):
    """(elements, off-diagonal rows, loops) of a list of edge ends."""
    rows = [[0] * len(elements) for _ in elements]
    loops = [0] * len(elements)
    for a, b in edges:
        if a == b:
            loops[a] += 1
        else:
            rows[a][b] += 1
            rows[b][a] += 1
    return elements, rows, loops


def test_link_graph_edge_ends_match_slot_reindexing():
    # the one edge of link(u) is the triangle; its ends drop slot 1 and
    # slot 2, the edges uw and uv with u at slot 0
    elements, rows, loops = link_graph(TRIANGLE, (0, 0))
    assert elements == TRIANGLE.link((0, 0))[0]
    assert set(elements) == {(TRIANGLE.face_at((2, 0), (0, 2)), (0,)),
                             (TRIANGLE.face_at((2, 0), (0, 1)), (0,))}
    assert (rows, loops) == ([[0, 1], [1, 0]], [0, 0])


def test_loop_link_has_two_elements():
    loop = DeltaComplex(1, [1, 1], {1: [[0, 0]]})
    elems = loop.link((0, 0))[0]
    assert len(elems) == 2
    assert loop.degree((0, 0)) == 2
    assert not loop.is_regular()
    assert [t.slots for t in elems] == [(0,), (1,)]


def test_regularity_of_standard_complexes():
    assert TRIANGLE.is_regular()


def test_json_round_trip():
    data = TRIANGLE.to_json()
    assert build_complex(data) == TRIANGLE
    loop = DeltaComplex(1, [1, 1], {1: [[0, 0]]})
    assert build_complex(loop.to_json()) == loop


def test_simplicial_identity_violation():
    # swap one boundary edge so that vertex sets of the faces disagree
    with pytest.raises(SimplicialIdentityViolation) as exc:
        DeltaComplex(2, [3, 3, 1], {1: [[1, 0], [2, 0], [2, 1]], 2: [[0, 1, 2]]})
    assert exc.value.simplex[0] == 2


def test_first_simplicial_identity_violation_is_reported():
    # a valid tetrahedron, then one failing the identities at (i, j) =
    # (0, 2), (1, 2), (0, 3), (1, 3), then one failing five of the six: the
    # first simplex, its first j and first i < j is reported
    faces = {k: [list(row) for row in full_simplex(3).faces[k]]
             for k in (1, 2)}
    faces[3] = [[3, 2, 1, 0], [2, 3, 1, 0], [0, 1, 2, 3]]
    with pytest.raises(SimplicialIdentityViolation) as exc:
        DeltaComplex(3, [4, 6, 4, 3], faces)
    assert (exc.value.simplex, exc.value.i, exc.value.j) == ((3, 1), 0, 2)
    assert str(exc.value) == ("simplicial identity fails at (3, 1): "
                              "d_0 d_2 != d_1 d_0")


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        DeltaComplex(1, [3, 1], {1: [[1, 0]]})
    with pytest.raises(Disconnected):
        DeltaComplex(0, [2], {})


def test_disconnected_reports_component_count():
    # two triangles and a lone vertex: three components of the 1-skeleton
    tri = [[1, 0], [2, 0], [2, 1]]
    faces = {1: tri + [[b + 3, a + 3] for b, a in tri],
             2: [[2, 1, 0], [5, 4, 3]]}
    with pytest.raises(Disconnected, match="complex has 3 components"):
        DeltaComplex(2, [7, 6, 2], faces)
    with pytest.raises(Disconnected, match="complex has 3 components"):
        DeltaComplex(1, [5, 2], {1: [[1, 0], [3, 2]]})


def test_count_shape_mismatches():
    with pytest.raises(DimensionExceeded):
        DeltaComplex(2, [3, 3], {1: [[1, 0], [2, 0], [2, 1]], 2: [[2, 1, 0]]})
    with pytest.raises(DimensionExceeded):
        DeltaComplex(1, [2, 1], {1: [[1, 0, 0]]})
    with pytest.raises(DimensionExceeded):
        build_complex({"n": -1, "simplices": [], "faces": []})


def test_face_index_out_of_range():
    with pytest.raises(DimensionExceeded):
        DeltaComplex(1, [2, 1], {1: [[2, 0]]})


@pytest.mark.parametrize("entry", [
    [True, 0, 0, 1], [1, 0.0, 0, 1], [1, 0, "0", 1], [1, 0, 1, None],
    [1, 0, 0], [1, 0, 0, 1, 0], "1001", {"k": 1, "i": 0, "s": 0, "t": 1}, 5,
])
def test_malformed_face_entry_is_named(entry):
    data = {"n": 1, "simplices": [2, 1], "faces": [[1, 0, 1, 0], entry]}
    with pytest.raises(SchemaError) as exc:
        build_complex(data)
    assert str(exc.value) == "face entry %r is not 4 integers" % (entry,)


def test_fixture_complexes_validate(fx):
    for name in ABSTRACT:
        X = fx[name].complex
        # every iterated boundary satisfies the simplicial identity, which
        # the constructor checked; spot-check vertex recovery agrees with
        # face composition
        for k in range(1, X.n + 1):
            for i in range(X.counts[k]):
                verts = X.vertices_of((k, i))
                assert len(verts) == k + 1
                for slot in range(k + 1):
                    assert X.face_at((k, i), (slot,)) == (0, verts[slot])


def test_nonregular_gluing_two_sheets():
    # two edges glued to the same vertex pair form a cycle of length two
    cyc = DeltaComplex(1, [2, 2], {1: [[1, 0], [1, 0]]})
    assert cyc.degree((0, 0)) == 2
    assert cyc.degree((0, 1)) == 2
    assert cyc.is_regular()


def compose(X, s, slots):
    """The face of s at the given slots by removing the complement one
    slot at a time from the top with d_i."""
    for i in reversed([i for i in range(s[0] + 1) if i not in slots]):
        s = (s[0] - 1, X.faces[s[0]][s[1]][i])
    return s


def reference_link(X, s):
    """The link of s by searching every higher coface, in order of
    dimension, then index, then slot tuple in combinations order."""
    k = s[0]
    return tuple(
        tuple(LinkElement((m, j), slots)
              for j in range(X.counts[m])
              for slots in combinations(range(m + 1), k + 1)
              if compose(X, (m, j), slots) == s)
        for m in range(k + 1, X.n + 1)
    )


def test_link_order_matches_reference(fx):
    complexes = [fx[name].complex for name in ABSTRACT]
    complexes += [duplicate_sheets(fx[name].embedded)[0] for name in EMBEDDED]
    complexes += [torus(k, seed) for k in (3, 4, 5) for seed in (0, 1, 2)]
    for X in complexes:
        for k in range(X.n + 1):
            for s in ((k, i) for i in range(X.counts[k])):
                assert X.link(s) == reference_link(X, s), s


def test_construction_makes_no_face_at_call(monkeypatch):
    # the face and link tables are filled from the face rows and the
    # per-dimension slot tables, with no face lookup per simplex
    calls = 0

    def counted(self, s, slots):
        nonlocal calls
        calls += 1
        return face_at(self, s, slots)

    face_at = DeltaComplex.face_at
    monkeypatch.setattr(DeltaComplex, "face_at", counted)
    for k in (8, 16):
        X = torus(k)
        assert sum(X.counts) == 6 * k * k
    assert calls == 0
    assert X.face_at((2, 0), (0, 1))[0] == 1 and calls == 1
    assert not hasattr(DeltaComplex, "face")


def test_incidence_tables_match_face_composition(fx):
    # vertex tables, opposite slots and link-graph edge ends against the
    # face compositions they replace
    complexes = [fx[name].complex for name in ABSTRACT + DEGENERATION]
    complexes += [duplicate_sheets(fx[name].embedded)[0] for name in EMBEDDED]
    complexes += [torus(5, 3), full_simplex(3), full_simplex(4),
                  DeltaComplex(1, [1, 1], {1: [[0, 0]]})]
    assert full_simplex(3).vertices_of((3, 0)) == (0, 1, 2, 3)
    for X in complexes:
        for k in range(X.n + 1):
            for s in ((k, i) for i in range(X.counts[k])):
                # the face table behind face_at, at every slot tuple
                for size in range(1, k + 2):
                    for slots in combinations(range(k + 1), size):
                        assert X.face_at(s, slots) == compose(X, s, slots)
                assert X.vertices_of(s) == tuple(
                    compose(X, s, (slot,))[1] for slot in range(k + 1))
                for t in (t for per_dim in X.link(s) for t in per_dim):
                    comp = tuple(x for x in range(t.coface[0] + 1)
                                 if x not in t.slots)
                    if len(comp) == 1:
                        assert X.opp_slot(t) == comp[0]
                        assert X.opp_vertex(t) == compose(X, t.coface, comp)[1]
                        continue
                    with pytest.raises(ValueError):
                        X.opp_slot(t)
                # the link graph at an (n-2)-cell: each edge joins the
                # faces of its coface that drop one slot outside its slots,
                # re-indexed
                if k != X.n - 2:
                    continue
                elements = X.link0(s)
                edges = []
                for t in X.link(s)[1]:
                    m = t.coface[0]
                    comp = [x for x in range(m + 1) if x not in t.slots]
                    edges.append(tuple(elements.index((
                        X.face_at(t.coface, tuple(x for x in range(m + 1)
                                                  if x != drop)),
                        tuple(x if x < drop else x - 1 for x in t.slots)))
                        for drop in comp))
                assert link_graph(X, s) == graph_of(elements, edges), (X, s)


def test_cofacet_positions_index_link0(kernel_structures):
    # every m-simplex sits at _cofacet_pos[m][j][d] in link0 of its facet
    # d_d, as the element whose slots miss d; loops, double edges and
    # repeated faces included
    repeated = 0
    for X in (T.complex for T in kernel_structures):
        assert len(X._cofacet_pos) == X.n + 1 and X._cofacet_pos[0] == ()
        for m in range(1, X.n + 1):
            assert len(X._cofacet_pos[m]) == X.counts[m]
            for j, faces in enumerate(X.faces[m]):
                assert len(X._cofacet_pos[m][j]) == m + 1
                repeated += len(set(faces)) < len(faces)
                for d, face in enumerate(faces):
                    slots = tuple(x for x in range(m + 1) if x != d)
                    assert X._cofacet_pos[m][j][d] == X.link0(
                        (m - 1, face)).index(((m, j), slots)), (X, m, j, d)
    assert repeated > 0


def dict_link_graph(X, q):
    """The graph link(q) as edge ends, each looked up in a
    (ridge, slots) -> position dict of link0(q): the oracle for the
    cofacet-position lookup of `local_systems`."""
    elements = X.link0(q)
    link = X.link(q)
    if len(link) < 2:
        return elements, []
    index = {(r, s): i for i, ((_, r), s) in enumerate(elements)}
    m = q[0] + 2
    table, rows = _SLOTS[m], X.faces[m]
    edges = []
    for (_, j), slots in link[1]:
        (d0, s0), (d1, s1) = table[slots][1]
        row = rows[j]
        edges.append((index[row[d0], s0], index[row[d1], s1]))
    return elements, edges


def test_link_graph_matches_dict_lookup(kernel_structures):
    # the off-diagonals and loops of every local system against the
    # dict lookup of each edge end
    loops = 0
    for X in (T.complex for T in kernel_structures):
        if X.n < 2:
            continue
        for q in ((X.n - 2, i) for i in range(X.counts[X.n - 2])):
            got = link_graph(X, q)
            assert got == graph_of(*dict_link_graph(X, q)), (X, q)
            loops += sum(got[2])
    assert loops > 0


def walked_local_tables(X):
    """(keys, ends) of every (n-2)-cell, walked from its link: the key
    r * n + d of each link0 element, for its ridge r and the slot d of the
    ridge that the slot tuple misses, and the flat link0 positions of the
    two ends of each link edge, found by searching link0.  An edge
    ((n, j), slots) misses facet slots d0 < d1; its end at d is the
    element of the ridge d_d (n, j) whose slots are the edge's re-indexed
    to that face."""
    n = X.n
    keys, ends = [], []
    for q in range(X.counts[n - 2] if n >= 2 else 0):
        link = X.link((n - 2, q))
        elements = link[0]
        keys.append(tuple(r * n + next(d for d in range(n) if d not in slots)
                          for (_, r), slots in elements))
        flat = []
        for (_, j), slots in link[1] if len(link) > 1 else ():
            for d in (d for d in range(n + 1) if d not in slots):
                face = tuple(x if x < d else x - 1 for x in slots)
                flat.append(elements.index(((n - 1, X.faces[n][j][d]),
                                            face)))
        ends.append(tuple(flat))
    return tuple(keys), tuple(ends)


def test_local_tables_match_the_link_walk(kernel_structures):
    # the local tables recorded at construction against the link walk, on
    # every kernel structure: loops (a == b) and a ridge twice in one link0
    # included, as in loop.json, twosheet.json and CONE_OVER_LOOP
    loops = repeated = 0
    for X in (T.complex for T in kernel_structures):
        keys, ends = walked_local_tables(X)
        assert (X._local_keys, X._local_ends) == (keys, ends), X
        for flat in ends:
            loops += sum(a == b for a, b in zip(flat[::2], flat[1::2]))
        for flat in keys:
            repeated += len({k // X.n for k in flat}) < len(flat)
    assert loops > 0 and repeated > 0


def test_link_elements_built_without_new_are_link_elements(fx):
    # construction makes elements by tuple.__new__, past the named tuple's
    # own __new__: they must still be LinkElements, equal and hashed as
    # the plain pair
    count = 0
    for X in [fx[name].complex for name in ABSTRACT] + [full_simplex(3)]:
        for level in X._links:
            for per_dim in level:
                for t in (t for elements in per_dim for t in elements):
                    coface, slots = tuple(t)
                    assert type(t) is LinkElement
                    assert t == (coface, slots) and hash(t) == hash(
                        (coface, slots))
                    assert t.coface == coface and t.slots == slots
                    assert t == LinkElement(coface, slots)
                    count += 1
    assert count > 0


def test_link_element_is_its_own_key():
    t = LinkElement((2, 5), (0, 2))
    assert t == ((2, 5), (0, 2))
    assert hash(t) == hash(((2, 5), (0, 2)))
    assert {((2, 5), (0, 2)): 7}[t] == 7
    assert (t.coface, t.slots) == t


def test_link_graph_edges_match_face_composition(fx):
    # each edge of link(q) joins the positions in link0(q) of the two
    # elements that drop one slot outside its slots, by face composition:
    # the local systems count those edges off the diagonal and twice each
    # loop on it
    complexes = [fx[name].complex for name in ABSTRACT + DEGENERATION]
    complexes += [duplicate_sheets(fx[name].embedded)[0] for name in EMBEDDED]
    complexes += [torus(k, seed) for k in (3, 4, 5) for seed in (0, 1, 2)]
    complexes += [full_simplex(3), full_simplex(4),
                  DeltaComplex(2, [2, 2, 1], {1: [[1, 0], [1, 1]],
                                              2: [[1, 0, 0]]})]
    loops = 0
    for X in complexes:
        if X.n < 2:
            continue
        for q in ((X.n - 2, i) for i in range(X.counts[X.n - 2])):
            elements = X.link0(q)
            expected = []
            for f in X.link(q)[1]:
                m = f.coface[0]
                ends = []
                for drop in (x for x in range(m + 1) if x not in f.slots):
                    rest = tuple(x for x in range(m + 1) if x != drop)
                    slots = tuple(x if x < drop else x - 1 for x in f.slots)
                    end = (compose(X, f.coface, rest), slots)
                    ends.append(list(elements).index(end))
                expected.append(tuple(ends))
            got = link_graph(X, q)
            assert got == graph_of(elements, expected), (X, q)
            loops += sum(got[2])
    assert loops > 0
