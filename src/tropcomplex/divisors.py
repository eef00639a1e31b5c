"""Divisors of representable PL functions and their local/global tests.

The representable classes are: global simplexwise-linear vertex functions,
single-facet two-piece functions max{lambda . x - c, 0}, and local germs at
(n-2)-simplices vanishing on the base.  Divisors are ridge-supported integer
sums plus optional facet pieces.  All verdicts are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .errors import DegenerateCut, IndexMismatch
from .linalg import (SmithForm, _echelon_in_place, _integral_part, smith,
                     smith_solve, solve)
from .structure import (TropicalStructure, Value, _check_local_base,
                        local_systems)


class FacetPiece(NamedTuple):
    facet: int
    normal: tuple  # primitive integral, simplex coordinates
    offset: Fraction
    multiplicity: int


class Divisor(Value):
    """An immutable value: equal and hashed by its two parts.  Not a tuple,
    so it has no length, iteration, or tuple + and *."""

    __slots__ = ("ridge_part", "facet_pieces", "_coeffs")

    def __init__(self, ridge_part: tuple, facet_pieces: tuple = ()):
        # ridge_part: sorted (ridge, coefficient) pairs, one per ridge, coeff != 0
        object.__setattr__(self, "ridge_part", ridge_part)
        object.__setattr__(self, "facet_pieces", facet_pieces)
        object.__setattr__(self, "_coeffs", None)

    def _key(self):
        return self.ridge_part, self.facet_pieces

    @staticmethod
    def on_ridges(coeffs, facet_pieces=()):
        """The divisor with the given {ridge: coefficient} ridge part
        (zero coefficients dropped) and facet pieces."""
        return Divisor(tuple(sorted(rc for rc in coeffs.items() if rc[1])),
                       facet_pieces)

    def coeff(self, r):
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", dict(self.ridge_part))
        return self._coeffs.get(r, 0)

    def __add__(self, other):
        out = dict(self.ridge_part)
        for r, c in other.ridge_part:
            out[r] = out.get(r, 0) + c
        return Divisor(
            tuple(sorted((r, c) for r, c in out.items() if c != 0)),
            self.facet_pieces + other.facet_pieces,
        )

    def __neg__(self):
        return Divisor(
            tuple((r, -c) for r, c in self.ridge_part),
            tuple(FacetPiece(p.facet, p.normal, p.offset, -p.multiplicity)
                  for p in self.facet_pieces),
        )

    def __sub__(self, other):
        return self + (-other)


class TwoPieceFunction(NamedTuple):
    """max{normal . x - offset, 0} on one facet, in simplex coordinates
    (vertex slot 0 at the origin, slot i at e_i)."""

    facet: int
    normal: tuple
    offset: Fraction


class LocalGerm(NamedTuple):
    base: tuple  # the (n-2)-simplex
    elements: tuple  # 0-dimensional link elements, enumeration order
    slopes: tuple  # one rational per element; the germ vanishes on the base


def chip_matrix(T: TropicalStructure):
    """The chip-firing matrix L, with (L phi)[r] = divisor coefficient of
    phi at ridge r, as one {vertex: nonzero coefficient} dict per ridge.

    Two passes build every row, with the pairing of
    `div_vertex_function`: one over the facet rows, where facet j adds 1
    at its vertex in slot d to the row of its ridge d_d (each link
    incidence of a ridge, a loop's two included, is one such pair), and
    one over the alpha entries, where (r, slot) subtracts alpha at the
    vertex in that slot of r.  Zero coefficients are left out.
    """
    X = T.complex
    n = X.n
    if n == 0:
        return []
    rows = [{} for _ in range(X.counts[n - 1])]
    for ridges, verts in zip(X.faces[n], X._face_table[n]):
        for r, v in zip(ridges, verts):
            row = rows[r]
            row[v] = row.get(v, 0) + 1
    ridges = X._face_table[n - 1]
    for (r, slot), a in T.alpha.items():
        row = rows[r]
        v = ridges[r][slot]
        row[v] = row.get(v, 0) - a
    for r, row in enumerate(rows):
        if 0 in row.values():
            rows[r] = {v: c for v, c in row.items() if c}
    return rows


def div_vertex_function(T: TropicalStructure, phi):
    """Divisor of a global simplexwise-linear function given by vertex values.

    One pass over the facet rows adds phi at every vertex slot d of a
    facet to its ridge d_d, whose opposite vertex that is; each link
    incidence of a ridge, a loop's two included, is one such pair.  Then
    one pass over the alpha entries subtracts alpha(r, slot) times phi at
    the vertex in that slot of r's face-table row.
    """
    X = T.complex
    if len(phi) != X.counts[0]:
        raise IndexMismatch(
            "expected %d vertex values, got %d" % (X.counts[0], len(phi))
        )
    n = X.n
    if n == 0:
        return Divisor(())
    coeffs = [0] * X.counts[n - 1]
    for ridges, verts in zip(X.faces[n], X._face_table[n]):
        for r, v in zip(ridges, verts):
            coeffs[r] += phi[v]
    ridges = X._face_table[n - 1]
    for (r, slot), a in T.alpha.items():
        coeffs[r] -= a * phi[ridges[r][slot]]
    return Divisor(tuple((r, c) for r, c in enumerate(coeffs) if c))


def ridge_multiplicity(T: TropicalStructure, r, base_values, opp_values):
    """Divisor coefficient at one ridge of a function linear on each simplex
    of the neighborhood of r.

    base_values: one rational per vertex slot of the ridge's parametrizing
    simplex; opp_values: one per 0-dimensional link element, in enumeration
    order.  The values are summed as given, which is exact for the ints
    and Fractions that stand for rationals here.
    """
    X = T.complex
    rdim = X.n - 1
    if not 0 <= r < X.counts[rdim]:
        raise IndexMismatch("ridge %d out of range (%d ridges)"
                            % (r, X.counts[rdim]))
    elems = X.link0((rdim, r))
    if len(base_values) != rdim + 1:
        raise IndexMismatch(
            "expected %d base values, got %d" % (rdim + 1, len(base_values))
        )
    if len(opp_values) != len(elems):
        raise IndexMismatch(
            "expected %d opposite values, got %d" % (len(elems), len(opp_values))
        )
    alpha = T.alpha
    total = sum(opp_values)
    for slot in range(rdim + 1):
        total -= alpha[r, slot] * base_values[slot]
    return total


def div_two_piece(T: TropicalStructure, f: TwoPieceFunction):
    """Divisor of max{normal . x - offset, 0} on a single facet.

    The cut must meet the closed facet in dimension n-1: either vertex
    values on both strict sides of the cut plane, or at least n vertices on
    it.  The recorded piece has a primitive normal; the extracted gcd is the
    multiplicity (lattice distance between the two slopes).
    """
    X = T.complex
    n = X.n
    if not 0 <= f.facet < X.counts[n] or len(f.normal) != n:
        raise IndexMismatch("facet %d / normal length %d" % (f.facet, len(f.normal)))
    lam = f.normal
    c = Fraction(f.offset)
    if all(x == 0 for x in lam):
        raise DegenerateCut("zero normal")
    values = [Fraction(0)] + [Fraction(x) for x in lam]  # vertex values of lam . x
    below = sum(1 for v in values if v < c)
    above = sum(1 for v in values if v > c)
    on = sum(1 for v in values if v == c)
    if not ((below > 0 and above > 0) or on >= n):
        raise DegenerateCut(
            "cut misses the facet: %d below, %d on, %d above" % (below, on, above)
        )
    g = gcd(*lam)
    piece = FacetPiece(f.facet, tuple(x // g for x in lam), c / g, g)
    return Divisor((), (piece,))


# ---------------------------------------------------------------------------
# Local Cartier tests


class CartierVerdict(NamedTuple):
    status: str  # "cartier" | "qcartier" | "neither"
    germ: LocalGerm | None


def local_system(matrix, rhs):
    """(status, solution) of the local system matrix . x = rhs, from one
    Smith form of the matrix.

    "cartier" with the integral solution of `smith_solve` when there is
    one; "neither" with None when U . rhs is nonzero past the invariant
    factors, so there is no rational solution either; otherwise "qcartier"
    with the rational solution of `solve`, the only case that eliminates
    twice.
    """
    f = smith(matrix)
    integral = smith_solve(f, rhs)
    if integral is not None:
        return "cartier", tuple(Fraction(x) for x in integral)
    if any(f.apply_u(rhs)[len(f.factors):]):
        return "neither", None
    return "qcartier", solve(matrix, rhs)


def _check_range(part, count, cell):
    """IndexMismatch naming the first index of a sorted (index, value)
    part outside 0 .. count - 1.  The part is sorted, so its two ends
    decide, and a per-cell caller pays no scan of the support."""
    if part and not (0 <= part[0][0] and part[-1][0] < count):
        i = next(i for i, _ in part if not 0 <= i < count)
        raise IndexMismatch("%s %d out of range (%d %ss)"
                            % (cell, i, count, cell))


def _check_ridges(X, D: Divisor):
    """The ridge count of X, after IndexMismatch naming the first ridge of
    D's ridge part out of range (every ridge, at n = 0)."""
    nr = X.counts[X.n - 1] if X.n else 0
    _check_range(D.ridge_part, nr, "ridge")
    return nr


def _check_edges(X, C):
    """IndexMismatch naming the first edge of a curve C out of range
    (every edge, at n = 0)."""
    _check_range(C.multiplicities, X.counts[1] if X.n else 0, "edge")


def local_cartier_test(T: TropicalStructure, D: Divisor, q):
    """Solve M_q x = [D]_q for a germ vanishing on q.

    A rational solution makes D Q-Cartier at q; an integral one (decided via
    Smith normal form over the whole solution set) makes it Cartier within
    the scoped function class.  One Smith form of M_q decides the status
    (see `local_system`).  When [D]_q is zero, which it is at every cell
    that no ridge of supp D contains, the answer is "cartier" with the zero
    germ, which is what `smith_solve` returns for it (V . 0 = 0), and no
    rows or Smith form are built.
    """
    X = T.complex
    _check_local_base(X, q)
    _check_ridges(X, D)
    elems = X.link0(q)
    rhs = [D.coeff(t.coface[1]) for t in elems]
    if not any(rhs):
        return CartierVerdict("cartier",
                              LocalGerm(q, elems, (Fraction(0),) * len(elems)))
    ((_, rows),) = local_systems(T, (q[1],))
    status, slopes = local_system(rows, rhs)
    germ = None if slopes is None else LocalGerm(q, elems, slopes)
    return CartierVerdict(status, germ)


def weil_test(T: TropicalStructure, D: Divisor):
    """Q-Cartier at every (n-2)-simplex; vacuously true for n <= 1.

    Returns (passed, indices of the failing (n-2)-simplices).  Only
    rational solvability is decided, with no Smith form.  A cell that no
    ridge of supp D contains has a zero right-hand side, which is never a
    pivot, so it passes and is not built.  One `local_systems` call builds
    the local system of every other cell with [D]_q appended, and each gets
    one fraction-free elimination in place: it is solvable unless the
    right-hand side column is a pivot.  Rational coefficients are scaled
    to ints once, by the lcm of their denominators (`_integral_part`),
    which moves no pivot.
    """
    X = T.complex
    rhs = [0] * _check_ridges(X, D)
    if X.n < 2:
        return True, ()
    for r, c in _integral_part(D.ridge_part)[0]:
        rhs[r] = c
    cells = X.faces[X.n - 1]
    touched = sorted({q for r, _ in D.ridge_part for q in cells[r]})
    failures = []
    for qi, (elems, rows) in zip(touched, local_systems(T, touched, rhs)):
        size = len(elems)
        if size in _echelon_in_place(rows, size + 1, reduced=False)[1]:
            failures.append(qi)
    return not failures, tuple(failures)


# ---------------------------------------------------------------------------
# Class group and linear-equivalence witnesses


class ClassGroupPresentation(NamedTuple):
    free_rank: int
    invariant_factors: tuple  # factors > 1 only
    matrix: list  # chip_matrix's rows, one {vertex: coefficient} per ridge
    smith: SmithForm  # U . matrix . V = S, with U and V as operation logs

    def class_residues(self, coeffs):
        """Coordinates of a ridge-supported divisor class: (torsion residues,
        free components) in the Smith basis."""
        y = self.smith.apply_u(coeffs)
        factors = self.smith.factors
        torsion = tuple(y[i] % d for i, d in enumerate(factors) if d > 1)
        return torsion, tuple(y[len(factors):])


def class_group(T: TropicalStructure):
    """Smith presentation of Z^ridges modulo divisors of vertex functions."""
    l = chip_matrix(T)
    f = smith(l, T.complex.counts[0])
    factors = f.factors
    return ClassGroupPresentation(
        len(l) - len(factors),
        tuple(d for d in factors if d > 1),
        l,
        f,
    )


class WitnessResult(NamedTuple):
    phi: tuple | None  # integer vertex values, minimum 0
    certificate: dict | None  # set when no witness exists


def lin_equiv_witness(T: TropicalStructure, D: Divisor, Dp: Divisor):
    """Integral phi with div(phi) = D - D', or a non-existence certificate.

    D - D' must be ridge-supported with integer coefficients, or
    IndexMismatch names the first entry that is not.  The witness is
    normalized to have minimum value 0.  The certificate gives the class of
    D - D' in Smith coordinates: kind "torsion" when the difference is a
    nonzero torsion class (every free residue is zero), "non-membership"
    otherwise.  At n = 0 the presentation is empty and phi is zero.
    """
    diff = D - Dp
    if diff.facet_pieces:
        raise IndexMismatch("witness queries need ridge-supported divisors")
    X = T.complex
    b = [0] * _check_ridges(X, diff)
    for r, c in diff.ridge_part:
        b[r] = int(c)
        if b[r] != c:
            raise IndexMismatch("witness queries need integral divisors: "
                                "ridge %d has coefficient %s" % (r, c))
    pres = class_group(T)
    phi = smith_solve(pres.smith, b)
    if phi is not None:
        lo = min(phi)
        return WitnessResult(tuple(x - lo for x in phi), None)
    torsion, free = pres.class_residues(b)
    kind = "non-membership" if any(free) else "torsion"
    return WitnessResult(None, {
        "kind": kind,
        "torsion_residues": list(torsion),
        "free_residues": list(free),
    })
