"""Structure constants alpha(v, r) and the tropical-complex condition.

alpha assigns an integer to every (ridge, vertex slot) pair.  The weak
constraint demands the slot sum equal deg(r) at every ridge.  The complex is
tropical when every local intersection matrix has exactly one positive
eigenvalue, decided by exact inertia computation.
"""

from __future__ import annotations

from typing import NamedTuple

from .delta import DeltaComplex
from .errors import MissingAlpha, WrongDimension
from .linalg import inertia


class Inertia(NamedTuple):
    positive: int
    negative: int
    zero: int

    def as_tuple(self):
        return (self.positive, self.negative, self.zero)


class WeakReport(NamedTuple):
    passed: bool
    violations: tuple  # (ridge index, slot sum, degree)
    isolated_ridges: tuple  # ridges lying in no facet


class TropicalStructure:
    """A complex with its structure constants; equal and hashed by the
    complex alone, and immutable.  alpha maps (ridge, slot) to an integer;
    when it is None, n = 1 takes alpha(v) = deg(v) and n = 0 none."""

    __slots__ = ("complex", "alpha")

    def __init__(self, complex: DeltaComplex, alpha: dict = None):
        if alpha is None:
            if complex.n > 1:
                raise MissingAlpha("alpha required for n = %d" % complex.n)
            alpha = {(v, 0): complex.degree((0, v))
                     for v in range(complex.counts[0])} if complex.n else {}
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "alpha", alpha)

    def __setattr__(self, name, value):
        raise AttributeError("TropicalStructure is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.complex == other.complex

    def __hash__(self):
        return hash(self.complex)

    def __repr__(self):
        return "TropicalStructure(complex=%r, alpha=%r)" % (self.complex,
                                                           self.alpha)

    def alpha_at(self, ridge_index, slot):
        key = (ridge_index, slot)
        if key not in self.alpha:
            raise MissingAlpha("no alpha for ridge %d slot %d" % key)
        return self.alpha[key]


def check_weak(T: TropicalStructure):
    """Weak constraint report: per ridge, slot sum of alpha vs deg(r)."""
    X = T.complex
    if X.n == 0:
        return WeakReport(True, (), ())
    rdim = X.n - 1
    violations = []
    isolated = []
    for r in range(X.counts[rdim]):
        total = sum(T.alpha_at(r, slot) for slot in range(rdim + 1))
        deg = X.degree((rdim, r))
        if deg == 0:
            isolated.append(r)
        if total != deg:
            violations.append((r, total, deg))
    return WeakReport(not violations, tuple(violations), tuple(isolated))


class LocalIntersectionMatrix(NamedTuple):
    base: tuple  # the (n-2)-simplex
    elements: tuple  # 0-dimensional link elements, enumeration order
    matrix: tuple  # tuple of tuples, symmetric integers


def link_graph(X: DeltaComplex, q):
    """(elements, edges) of the graph link(q): the 0-dimensional link
    elements of q, and for each 1-dimensional one the positions (a, b) in
    elements of its two ends (a == b for a loop)."""
    elements = X.link0(q)
    index = {t: i for i, t in enumerate(elements)}
    link = X.link(q)
    edges = [(index[X.link_face(f, 0)], index[X.link_face(f, 1)])
             for f in (link[1] if len(link) > 1 else ())]
    return elements, edges


def local_matrix(T: TropicalStructure, q):
    """Local intersection matrix at an (n-2)-simplex q.

    Off-diagonal (t,u): number of edges between t and u in link(q).
    Diagonal (t,t): -alpha(opp(t), r(t)) + 2 * (loops at t).
    """
    X = T.complex
    if X.n < 2 or q[0] != X.n - 2:
        raise WrongDimension(
            "local matrix needs an (n-2)-simplex, got dimension %d with n=%d"
            % (q[0], X.n)
        )
    elems, edges = link_graph(X, q)
    size = len(elems)
    m = [[0] * size for _ in range(size)]
    for a, b in edges:
        if a == b:
            m[a][a] += 2
        else:
            m[a][b] += 1
            m[b][a] += 1
    for i, t in enumerate(elems):
        m[i][i] -= T.alpha_at(t.coface[1], X.opp_slot(t))
    return LocalIntersectionMatrix(q, elems, tuple(tuple(row) for row in m))


class ClassifyResult(NamedTuple):
    verdict: str  # "tropical" or "weak-only"
    inertias: tuple  # (q index, Inertia) pairs
    weak: WeakReport
    matrices: tuple = ()  # (q index, LocalIntersectionMatrix) pairs


def classify(T: TropicalStructure):
    """Tropical iff every local matrix has exactly one positive eigenvalue.

    For n <= 1 there are no (n-2)-simplices and the verdict is tropical
    vacuously.  When the weak constraint holds, the local matrices built
    for the inertias are returned with them, in q order.
    """
    X = T.complex
    weak = check_weak(T)
    if not weak.passed:
        return ClassifyResult("weak-only", (), weak)
    if X.n < 2:
        return ClassifyResult("tropical", (), weak)
    matrices = tuple((qi, local_matrix(T, (X.n - 2, qi)))
                     for qi in range(X.counts[X.n - 2]))
    inertias = tuple((qi, Inertia(*inertia(m.matrix))) for qi, m in matrices)
    ok = all(ine.positive == 1 for _, ine in inertias)
    return ClassifyResult("tropical" if ok else "weak-only", inertias, weak,
                          matrices)
