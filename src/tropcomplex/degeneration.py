"""Structure constants from intersection numbers on a degeneration.

Strict data lists deg(C_v . C_r) for components C_v against one-dimensional
strata C_r; non-strict data lists self-intersections of curves indexed by
codimension-two strata together with their link positions.  Strict data
read alpha off the degrees at each ridge's own vertices and cross-check
the rest against the chip-firing matrix.  In non-strict data each
self-intersection fixes exactly one alpha(v, r), so they hold no
redundancy among themselves; the weak constraint and any listed degrees
are cross-checked.  Named divisors and curves specialize to the dual
complex, and claimed intersection numbers are verified against the
computed ones.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .delta import DeltaComplex
from .errors import (InconsistentData, NotBalanced, PreconditionFailed,
                     SchemaError, UnknownName, brief, entry_list,
                     fraction_entry, int_fields, int_table, named)
from .structure import TropicalStructure, check_weak, local_systems
from .divisors import Divisor, chip_matrix, weil_test
from .curves import Curve, is_balanced, intersect_degree


class DegenerationData(NamedTuple):
    mode: str  # "strict" | "nonstrict"
    vertex_ridge_degrees: dict  # (vertex, ridge) -> int
    self_intersections: dict  # (codim2 cell, link position) -> int
    divisors: dict  # name -> Divisor
    curves: dict  # name -> Curve
    claimed: dict  # (divisor name, curve name) -> Fraction


def _claimed(entry):
    """[divisor name, curve name, numerator, denominator] as a key and a
    Fraction."""
    if not isinstance(entry, list) or len(entry) != 4 \
            or not all(isinstance(x, str) for x in entry[:2]):
        raise SchemaError("claimed entry %s is not [divisor name, curve "
                          "name, numerator, denominator]" % brief(entry))
    num, den = int_fields(entry, (2, 3), "claimed")
    return tuple(entry[:2]), fraction_entry(num, den, "claimed entry", entry)


def load_degeneration(data):
    mode = data.get("mode", "strict")
    if mode not in ("strict", "nonstrict"):
        raise InconsistentData("unknown mode %s" % brief(mode))
    vr = int_table(data.get("vertex_ridge_degrees", []), 3,
                   "vertex_ridge_degrees")
    si = int_table(data.get("self_intersections", []), 3,
                   "self_intersections")
    divisors = {name: Divisor.on_ridges(int_table(entries, 2, "divisor"))
                for name, entries in named(data, "divisors")}
    curves = {name: Curve.on_edges(int_table(entries, 2, "curve"))
              for name, entries in named(data, "curves")}
    claimed = dict(_claimed(e)
                   for e in entry_list(data.get("claimed", []), "claimed"))
    return DegenerationData(mode, vr, si, divisors, curves, claimed)


def build_structure_from_degeneration(X: DeltaComplex, data: DegenerationData):
    """The structure that the data determine, cross-checked against the
    degrees it lists: deg(C_v . C_r) is the chip-firing coefficient of v
    at r, read from one `chip_matrix` per build."""
    n = X.n
    if n < 1:
        raise InconsistentData("complex has no ridges")
    for (v, r), deg in data.vertex_ridge_degrees.items():
        if not (0 <= v < X.counts[0] and 0 <= r < X.counts[n - 1]):
            raise InconsistentData(
                "vertex_ridge_degrees entry [%d, %d, %d] is out of range "
                "(%d vertices, %d ridges)" % (v, r, deg, X.counts[0],
                                              X.counts[n - 1]))
    if data.mode == "strict":
        if not X.is_regular():
            raise InconsistentData(
                "strict data needs pairwise-distinct vertices on every simplex"
            )
        # the given degrees by ridge: {ridge: {vertex: degree}}
        given = {}
        for (v, r), deg in data.vertex_ridge_degrees.items():
            given.setdefault(r, {})[v] = deg
        alpha = {}
        for r in range(X.counts[n - 1]):
            on_r = given.get(r, {})
            for slot, v in enumerate(X.vertices_of((n - 1, r))):
                if v not in on_r:
                    raise InconsistentData(
                        "missing deg(C_%d . C_%d)" % (v, r), ridge=r
                    )
                alpha[(r, slot)] = -on_r[v]
        T = TropicalStructure(X, alpha)
        for r, degs in enumerate(chip_matrix(T)):
            on_r = given.get(r, {})
            # a vertex named by neither side has degree 0 on both; a vertex
            # of r reads -alpha on both (regular: no facet's opposite is on r)
            for v in sorted(on_r.keys() | degs.keys()):
                if on_r.get(v, 0) != degs.get(v, 0):
                    raise InconsistentData(
                        "deg(C_%d . C_%d) = %d does not match the %d "
                        "transverse intersections"
                        % (v, r, on_r.get(v, 0), degs.get(v, 0)), ridge=r
                    )
            total = sum(on_r.values())
            if total != 0:
                raise InconsistentData(
                    "degrees against C_%d sum to %d, not 0" % (r, total),
                    ridge=r,
                )
        return T
    # non-strict: self-intersections of curves in codimension-two strata
    if n < 2:
        raise InconsistentData(
            "non-strict data needs codimension-two cells; none exist in "
            "dimension %d" % n
        )
    strata = X.counts[n - 2]
    for (qi, ti), c2 in data.self_intersections.items():
        if not (0 <= qi < strata and 0 <= ti < len(X.link0((n - 2, qi)))):
            raise InconsistentData(
                "self_intersections entry [%d, %d, %d] names no stratum and "
                "link position (%d strata)" % (qi, ti, c2, strata))
    # with zero alpha, the diagonal of a local matrix is 2 * (loops at t)
    zero = TropicalStructure(X, dict.fromkeys(
        ((r, s) for r in range(X.counts[n - 1]) for s in range(n)), 0))
    alpha = {}
    keys = X._local_keys
    for qi, (_, rows) in enumerate(local_systems(zero, range(strata))):
        for ti, key in enumerate(keys[qi]):
            if (qi, ti) not in data.self_intersections:
                raise InconsistentData(
                    "missing self-intersection at stratum %d position %d"
                    % (qi, ti)
                )
            # one element has the key r * n + s of (r, s) in the local
            # table of a stratum, in link0 of d_s r: each (r, s) set once
            alpha[divmod(key, n)] = (rows[ti][ti]
                                     - data.self_intersections[(qi, ti)])
    T = TropicalStructure(X, alpha)
    weak = check_weak(T)
    if not weak.passed:
        r = weak.violations[0][0]
        raise InconsistentData(
            "degrees against C_%d do not sum to 0" % r, ridge=r
        )
    rows = chip_matrix(T)
    for (v, r), given in data.vertex_ridge_degrees.items():
        derived = rows[r].get(v, 0)
        if given != derived:
            raise InconsistentData(
                "deg(C_%d . C_%d) = %d is inconsistent with the "
                "self-intersection data (expected %d)"
                % (v, r, given, derived), ridge=r
            )
    return T


# ---------------------------------------------------------------------------
# Specialization


class SpecializeResult(NamedTuple):
    kind: str  # "divisor" | "curve"
    divisor: Divisor | None
    curve: Curve | None
    verdict: str  # divisor: weil pass/fail; curve: balanced yes/warning


def specialize(T: TropicalStructure, data: DegenerationData, name):
    if name in data.divisors:
        D = data.divisors[name]
        passed, _ = weil_test(T, D)
        return SpecializeResult("divisor", D, None,
                                "pass" if passed else "fail")
    if name in data.curves:
        C = data.curves[name]
        result = is_balanced(T, C)
        return SpecializeResult("curve", None, C,
                                "balanced" if result.balanced else "warning")
    raise UnknownName("no divisor or curve named %s" % brief(name))


class VerifyResult(NamedTuple):
    divisor: str
    curve: str
    computed: Fraction
    claimed: Fraction
    match: bool


def verify_theorem(T: TropicalStructure, data: DegenerationData, dname, cname):
    """Compare the computed intersection degree with the claimed one.

    Preconditions: the specialized divisor passes the summable test, which
    makes it Q-Cartier at every (n-2)-simplex and so, for n = 2, at every
    vertex of the curve; and the curve is balanced, which intersect_degree
    decides with the product (its NotBalanced is the `unbalanced`
    precondition).  Dimensions other than 1 and 2 raise
    UnsupportedDimension from intersect_degree, after `is_balanced`.
    """
    if dname not in data.divisors:
        raise UnknownName("no divisor named %s" % brief(dname))
    if cname not in data.curves:
        raise UnknownName("no curve named %s" % brief(cname))
    if (dname, cname) not in data.claimed:
        raise UnknownName(
            "no claimed intersection number for (%s, %s)"
            % (brief(dname), brief(cname))
        )
    D = data.divisors[dname]
    C = data.curves[cname]
    passed, _ = weil_test(T, D)
    if not passed:
        raise PreconditionFailed(
            "weil", "divisor %s fails the summable test" % brief(dname)
        )
    unbalanced = PreconditionFailed(
        "unbalanced", "curve %s is not balanced" % brief(cname)
    )
    if T.complex.n not in (1, 2) and not is_balanced(T, C).balanced:
        raise unbalanced
    try:
        computed = intersect_degree(T, D, C).degree
    except NotBalanced:
        raise unbalanced from None
    claimed = data.claimed[(dname, cname)]
    return VerifyResult(dname, cname, computed, claimed, computed == claimed)
