"""Curves on the 1-skeleton, germ spaces, balancing, and intersections.

A curve is an integer multiplicity per edge.  Balancing at a support vertex
asks whether the curve's slope functional lies in the row space of the
vertex's germ relations, decided by one fraction-free elimination; a germ
basis is built only to name the violating germ of an unbalanced curve.  The
divisor-curve product restricts local defining germs of the divisor to the
curve and sums outgoing slopes; its degree is a linear-equivalence
invariant.  On a surface a curve vertex is an (n-2)-cell, whose germ
relations are its local intersection matrix bordered by one column, so
balancing and the product both read one `local_systems` call with one
elimination per support vertex (`_vertex_systems`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (DiscontinuousInput, IndexMismatch, NotBalanced,
                     NotQCartierNearCurve, UnsupportedDimension)
from .linalg import _echelon_in_place, _integral_part, kernel_basis
from .delta import _SLOTS
from .structure import TropicalStructure, Value, local_systems
from .divisors import Divisor, _check_edges, _check_ridges


class Curve(Value):
    """An immutable value: equal and hashed by its multiplicities.  Not a
    tuple, so it has no length, iteration, or tuple + and *."""

    __slots__ = ("multiplicities", "_mults")

    def __init__(self, multiplicities: tuple):
        # sorted (edge index, multiplicity), one per edge, mult != 0
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "_mults", None)

    def _key(self):
        return self.multiplicities

    @staticmethod
    def on_edges(coeffs):
        return Curve(tuple(sorted((e, m) for e, m in coeffs.items() if m)))

    def mult(self, e):
        if self._mults is None:
            object.__setattr__(self, "_mults", dict(self.multiplicities))
        return self._mults.get(e, 0)

    def support_vertices(self, X):
        out = set()
        for e, _ in self.multiplicities:
            out.add(X.faces[1][e][0])
            out.add(X.faces[1][e][1])
        return sorted(out)


def _integral_curve(C: Curve):
    """(curve, den): C with every multiplicity times den, the lcm of their
    denominators, as an int, so the kernels get ints; C itself, with
    den = 1, when its multiplicities are ints.  Balance is the same for
    every positive multiple of a curve."""
    mults, den = _integral_part(C.multiplicities)
    return (C if mults is C.multiplicities else Curve(mults)), den


class GermSpace(NamedTuple):
    vertex: int
    coords: tuple  # link(v)_0 elements; coordinate 0 is the vertex itself
    basis: tuple  # rational vectors of length 1 + len(coords)


def _germ_relations(T: TropicalStructure, v):
    """(coords, rows, ncols): the linear relations that cut out the germs at
    vertex v.

    Coordinates: value at v, then one value per 0-dimensional link element
    (the opposite vertex of each edge incidence).  One relation per ridge
    incidence at v: the opposite-vertex sum equals the alpha-weighted vertex
    sum of the ridge.  The coordinate of the vertex at slot w of a simplex
    holding v at slot s is its edge e at slots (s, w), read from the face
    table.  v is at slot 0 of e when s < w and at slot 1 otherwise, so its
    link element there misses the other slot d of e: it is coordinate
    1 + `_cofacet_pos[1][e][d]`.
    """
    X = T.complex
    n = X.n
    coords = X.link0((0, v))
    ncols = 1 + len(coords)
    alpha = T.alpha
    rows = []
    if n == 1:
        row = [1] * ncols
        row[0] = -alpha[v, 0]
        rows.append(row)
    elif n >= 2:
        facets, ridges = X._face_table[n], X._face_table[n - 1]
        facet_pairs, ridge_pairs = _SLOTS[n], _SLOTS[n - 1]
        top = n * (n + 1) // 2  # the sum of a facet's slots
        links, pos = X._links[n - 1], X._cofacet_pos[1]
        for (_, r), (sv,) in X.link((0, v))[n - 2]:
            row = [0] * ncols
            for (_, j), slots in links[r][0]:
                s, w = slots[sv], top - sum(slots)
                pair, d = ((s, w), 1) if s < w else ((w, s), 0)
                row[1 + pos[facets[j][facet_pairs[pair][0]]][d]] += 1
            edges = ridges[r]
            for w in range(n):
                a = alpha[r, w]
                if w == sv:
                    row[0] -= a
                else:
                    pair, d = ((sv, w), 1) if sv < w else ((w, sv), 0)
                    row[1 + pos[edges[ridge_pairs[pair][0]]][d]] -= a
            rows.append(row)
    return coords, rows, ncols


def germ_space(T: TropicalStructure, v):
    """Exact rational basis of all linear germs at vertex v, in the
    coordinates of `_germ_relations`."""
    coords, rows, ncols = _germ_relations(T, v)
    return GermSpace(v, coords, tuple(kernel_basis(rows, ncols)))


def _balance(relations, w):
    """(fails, dim) at a vertex with the given germ relations, as rows of
    length len(w): fails is whether w lies outside their row space, and
    dim is the germ dimension len(w) - rank.  One fraction-free
    elimination of the transposed relations with w appended decides both:
    w is in the span unless its column is a pivot.  Pivot columns do not
    depend on the order of the relations."""
    _, pivots = _echelon_in_place([list(col) for col in zip(*relations, w)],
                                  len(relations) + 1, reduced=False)
    fails = len(relations) in pivots
    return fails, len(w) - len(pivots) + fails


class BalanceResult(NamedTuple):
    balanced: bool
    certificate: tuple | None  # (vertex, germ vector) violating the condition
    dims: tuple = ()  # (vertex, germ dimension) per support vertex, in order


def _vertex_systems(T: TropicalStructure, C: Curve, vertices, rhs=None):
    """At n = 2, per support vertex v in order: (elements, w', rows,
    pivots, fails, dim), from one `local_systems` call and one elimination
    per vertex (two for the intersection off the weak constraint).

    The germ relations at v are M_v bordered by the column c, with
    c_t = -alpha(r_t, s_t) for the slot s_t of v in the edge r_t, read as
    `T._diag[2 * r_t + s_t]`, and w'_t is the multiplicity of ridge r_t.
    As M_v is symmetric, C is balanced at v iff some y has
    M_v y = w' and c . y = w_0 = -sum(w').  Where every row of M_v sums to
    -c_t (the weak constraint at v's ridges), c . y = -1 . M_v y = w_0 for
    every solution, so [M_v | [D]_v | w'] is eliminated over M_v's
    columns, fails (C unbalanced at v) is w' outside the column space of
    M_v, read off the rows past the pivots, and the germ dimension is
    1 + size - rank(M_v).  At any other vertex `_balance` decides both on
    the germ relations [c | M_v] and the slope functional [w_0 | w'];
    [M_v | [D]_v] is then eliminated on its own only when rhs is given.
    With rhs given, rows and pivots are the reduced elimination that
    `intersect_degree` reads; without it they mean nothing.
    """
    diag = T._diag
    reduced = rhs is not None
    for elems, rows in local_systems(T, vertices, rhs):
        size = len(elems)
        w = []
        weak = True
        for row, ((_, r), (s,)) in zip(rows, elems):
            w.append(C.mult(r))
            weak = weak and sum(row[:size]) == -diag[2 * r + s]
        pivots = None
        if weak:
            for row, x in zip(rows, w):
                row.append(x)
            rows, pivots = _echelon_in_place(rows, size, reduced)
            fails = any(row[-1] for row in rows[len(pivots):])
            dim = 1 + size - len(pivots)
        else:
            fails, dim = _balance(
                [[diag[2 * r + s], *row[:size]]
                 for row, ((_, r), (s,)) in zip(rows, elems)],
                [-sum(w), *w])
            if reduced:
                rows, pivots = _echelon_in_place(rows, size)
        yield elems, w, rows, pivots, fails, dim


def is_balanced(T: TropicalStructure, C: Curve):
    """Balanced iff at each support vertex v every linear germ has zero
    multiplicity-weighted slope sum.

    That sum is w . g for the germ g, with w[i + 1] the multiplicity of the
    i-th link coordinate and w[0] minus their sum, so C is balanced at v
    exactly when w lies in the row space of v's germ relations.  At n = 2
    `_vertex_systems` decides it from the local matrices; otherwise
    `_balance` does, on the relations of `_germ_relations`, and gives the
    germ dimension.  Only at the first failing vertex is the germ basis
    built, to report its first violating germ as the certificate.
    Rational multiplicities are scaled to ints once (`_integral_curve`),
    which changes neither verdict, dimensions nor certificate.
    """
    X = T.complex
    _check_edges(X, C)
    C, _ = _integral_curve(C)
    vertices = C.support_vertices(X)
    if X.n == 2:
        found = [system[-2:] for system in _vertex_systems(T, C, vertices)]
    else:
        found = []
        for v in vertices:
            coords, rows, _ = _germ_relations(T, v)
            w = [C.mult(t.coface[1]) for t in coords]
            found.append(_balance(rows, [-sum(w), *w]))
    dims = tuple((v, dim) for v, (_, dim) in zip(vertices, found))
    failing = next((v for v, (fails, _) in zip(vertices, found) if fails),
                   None)
    if failing is None:
        return BalanceResult(True, None, dims)
    space = germ_space(T, failing)
    w = [C.mult(t.coface[1]) for t in space.coords]
    w.insert(0, -sum(w))
    germ = next(g for g in space.basis if sum(a * b for a, b in zip(w, g)))
    return BalanceResult(False, (failing, germ), tuple(dims))


# ---------------------------------------------------------------------------
# PL functions on curves and their divisors


class BreakpointFunction(NamedTuple):
    """Per supported edge: ((position, value), ...) with rational positions
    strictly increasing from 0 to 1 in the lattice-length metric."""

    pieces: tuple  # sorted (edge index, ((pos, val), ...)) pairs

    @staticmethod
    def on_edges(data):
        out = []
        for e, pts in sorted(dict(data).items()):
            pts = tuple((Fraction(p), Fraction(val)) for p, val in pts)
            out.append((e, pts))
        return BreakpointFunction(tuple(out))


class PointSum(NamedTuple):
    """Formal rational sum of vertices and interior edge points."""

    entries: tuple  # (("v", i) | ("e", i, pos), coeff), sorted, coeff != 0

    @property
    def degree(self):
        return sum(c for _, c in self.entries)

    @staticmethod
    def of(mapping):
        def key(loc):
            return (0, loc[1], Fraction(0)) if loc[0] == "v" else (1, loc[1], loc[2])

        items = tuple(
            (loc, c) for loc, c in sorted(mapping.items(), key=lambda kv: key(kv[0]))
            if c != 0
        )
        return PointSum(items)


def restrict_divisor(T: TropicalStructure, C: Curve, f: BreakpointFunction):
    """Divisor of a PL function on the support of C: at each point, the sum
    of outgoing slopes weighted by edge multiplicity.

    One pass over the curve's edges checks each edge's breakpoints (they
    span [0, 1] in increasing order, and edges agree at shared vertices) or
    raises DiscontinuousInput, and adds its slopes.
    """
    X = T.complex
    _check_edges(X, C)
    pieces = dict(f.pieces)
    vertex_values = {}
    coeffs = {}
    for e, m in C.multiplicities:
        pts = pieces.get(e)
        if pts is None:
            raise DiscontinuousInput("no values on edge %d" % e)
        if len(pts) < 2 or pts[0][0] != 0 or pts[-1][0] != 1:
            raise DiscontinuousInput("edge %d must span [0, 1]" % e)
        for (p1, _), (p2, _) in zip(pts, pts[1:]):
            if p2 <= p1:
                raise DiscontinuousInput("edge %d has unordered breakpoints" % e)
        v0 = X.faces[1][e][1]  # position 0
        v1 = X.faces[1][e][0]  # position 1
        for v, val in ((v0, pts[0][1]), (v1, pts[-1][1])):
            if vertex_values.setdefault(v, val) != val:
                raise DiscontinuousInput(
                    "conflicting values at vertex %d" % v
                )
        slopes = [
            (val2 - val1) / (p2 - p1)
            for (p1, val1), (p2, val2) in zip(pts, pts[1:])
        ]
        loc0 = ("v", v0)
        coeffs[loc0] = coeffs.get(loc0, Fraction(0)) + m * slopes[0]
        loc1 = ("v", v1)
        coeffs[loc1] = coeffs.get(loc1, Fraction(0)) - m * slopes[-1]
        for i in range(1, len(pts) - 1):
            loc = ("e", e, pts[i][0])
            jump = m * (slopes[i] - slopes[i - 1])
            coeffs[loc] = coeffs.get(loc, Fraction(0)) + jump
    return PointSum.of(coeffs)


# ---------------------------------------------------------------------------
# Divisor-curve intersection


class IntersectResult(NamedTuple):
    point_sum: PointSum
    degree: Fraction


def intersect_degree(T: TropicalStructure, D: Divisor, C: Curve):
    """Intersection product of a ridge-supported divisor with a balanced
    curve, assembled from local defining germs.

    Implemented for n in {1, 2}: the covering by stars of (n-2)-simplices
    and facet interiors reaches every curve vertex only in those dimensions.
    For n = 2 `_vertex_systems` builds and eliminates [M_v | [D]_v | w'] at
    every support vertex, which decides balance and the germ together: the
    germ at a vertex is the rational solution that `solve` would return,
    read off its rows; any other differs from it by a kernel germ, which a
    balanced curve annihilates, so the vertex total is the same.  Every
    pivot of the reduced rows has the same absolute value P, so the total
    sum(w'_t x_t) is one integer numerator over P, one Fraction per
    vertex.  Rational coefficients of D and multiplicities of C enter the
    rows scaled to ints, by the lcm of the denominators of each
    (`_integral_part`), and P is multiplied by both scales.  n = 1 calls
    `is_balanced`.  NotBalanced (first failing vertex) comes before
    NotQCartierNearCurve.
    """
    X = T.complex
    if D.facet_pieces:
        raise IndexMismatch("intersection needs a ridge-supported divisor")
    if X.n not in (1, 2):
        raise UnsupportedDimension(
            "intersection products are implemented for n = 1 and n = 2"
        )
    rhs = [0] * _check_ridges(X, D)
    _check_edges(X, C)
    vertices = C.support_vertices(X)
    totals = []  # per vertex, sum of mult * slope; None: not Q-Cartier
    if X.n == 1:
        balance = is_balanced(T, C)
        if not balance.balanced:
            raise NotBalanced("curve unbalanced at vertex %d"
                              % balance.certificate[0])
        # v ends a curve edge, so its degree is at least 1: the germ has
        # slope [D]_v / deg(v) along every edge at v
        for v in vertices:
            elems = X.link0((0, v))
            totals.append(sum(C.mult(t.coface[1]) for t in elems)
                          * Fraction(D.coeff(v), len(elems)))
    else:
        part, scale = _integral_part(D.ridge_part)
        for r, c in part:
            rhs[r] = c
        C, den = _integral_curve(C)
        scale *= den
        failing = None
        for v, (elems, w, rows, pivots, fails, _) in zip(
                vertices, _vertex_systems(T, C, vertices, rhs)):
            if fails and failing is None:
                failing = v
            size = len(elems)
            if any(row[size] for row in rows[len(pivots):]):
                totals.append(None)
                continue
            # the germ has x_p = row[size] / row[p] at each pivot p and 0
            # elsewhere, and |row[p]| is the same for every pivot
            total = 0
            for row, p in zip(rows, pivots):
                y = w[p] * row[size]
                total += y if row[p] > 0 else -y
            totals.append(Fraction(total, abs(rows[0][pivots[0]]) * scale)
                          if pivots else 0)
        if failing is not None:
            raise NotBalanced("curve unbalanced at vertex %d" % failing)
        for v, total in zip(vertices, totals):
            if total is None:
                raise NotQCartierNearCurve(
                    "divisor not Q-Cartier at vertex %d" % v
                )
    ps = PointSum.of({("v", v): total
                      for v, total in zip(vertices, totals) if total})
    return IntersectResult(ps, ps.degree)
