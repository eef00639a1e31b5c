"""Structure constants alpha(v, r) and the tropical-complex condition.

alpha assigns an integer to every (ridge, vertex slot) pair: its keys are
exactly those pairs, checked once when a TropicalStructure is made, so the
kernels index it directly.  The weak constraint demands the slot sum equal
deg(r) at every ridge.  The complex is tropical when every local
intersection matrix has exactly one positive eigenvalue, decided by exact
inertia computation.
"""

from __future__ import annotations

from typing import NamedTuple

from .delta import _SLOTS, DeltaComplex
from .errors import IndexMismatch, MissingAlpha, SchemaError, WrongDimension
from .linalg import _inertia_in_place


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


class Value:
    """Base of the immutable values: a subclass sets its slots once, through
    object.__setattr__, and supplies _key().  Equal only to an instance of
    the same class with an equal key, and hashed by the key; printed with
    its public slots in slot order."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name))
            for name in self.__slots__ if not name.startswith("_")))


class TropicalStructure(Value):
    """A complex with its structure constants; equal and hashed by the
    complex alone.  alpha maps (ridge, slot) to an integer; when it is
    None, n = 1 takes alpha(v) = deg(v) and n = 0 none.

    A given alpha has one entry per (ridge, slot) pair and no other key,
    and every value is an int: SchemaError names the first entry that is
    not, IndexMismatch the first entry out of range, and MissingAlpha the
    first absent pair in ridge-major order.
    """

    __slots__ = ("complex", "alpha")

    def __init__(self, complex: DeltaComplex, alpha: dict = None):
        n = complex.n
        if alpha is None:
            if n > 1:
                raise MissingAlpha("alpha required for n = %d" % n)
            alpha = {(v, 0): complex.degree((0, v))
                     for v in range(complex.counts[0])} if n else {}
        else:
            ridges = complex.counts[n - 1] if n else 0
            for (r, slot), a in alpha.items():
                # a bool or a rational too: smith reads its rows by int()
                if type(a) is not int:
                    raise SchemaError("alpha entry [%d, %d, %r] is not an "
                                      "integer" % (r, slot, a))
                if not (0 <= r < ridges and 0 <= slot < n):
                    cell, i, count = (("ridge", r, ridges)
                                      if not 0 <= r < ridges
                                      else ("slot", slot, n))
                    raise IndexMismatch(
                        "alpha entry [%d, %d, %d]: %s %d out of range "
                        "(%d %ss)" % (r, slot, a, cell, i, count, cell))
            # every key is in range, so a full table has ridges * n keys
            if len(alpha) != ridges * n:
                r, slot = next((r, slot) for r in range(ridges)
                               for slot in range(n) if (r, slot) not in alpha)
                raise MissingAlpha("no alpha for ridge %d slot %d"
                                   % (r, slot))
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "alpha", alpha)

    def _key(self):
        return self.complex


def check_weak(T: TropicalStructure):
    """Weak constraint report: per ridge, slot sum of alpha vs deg(r)."""
    X = T.complex
    if X.n == 0:
        return WeakReport(True, (), ())
    alpha = T.alpha
    slots = range(X.n)
    violations = []
    isolated = []
    for r, link in enumerate(X._links[X.n - 1]):
        total = 0
        for slot in slots:
            total += alpha[r, slot]
        deg = len(link[0])
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
    """(elements, edges) of the graph link(q) of a simplex q of
    codimension at least 2: the 0-dimensional link elements of q, and for
    each 1-dimensional one the positions (a, b) in elements of its two ends
    (a == b for a loop)."""
    # codimension >= 2, so the link has levels 0 and 1
    elements, link1 = X.link(q)[:2]
    # an edge ((m, j), slots) misses two slots d0 < d1 of its coface, read
    # from the slot table.  Its end at d0 is the facet r = d_d0 (m, j),
    # whose element in link0(q) misses slot d1 - 1 of r, so it sits at the
    # cofacet position of r at d1 - 1; likewise the end at d1 sits at the
    # position of d_d1 (m, j) at d0.
    m = q[0] + 2
    table, rows, pos = _SLOTS[m], X.faces[m], X._cofacet_pos[m - 1]
    edges = []
    for (_, j), slots in link1:
        (d0, _), (d1, _) = table[slots][1]
        row = rows[j]
        edges.append((pos[row[d0]][d1 - 1], pos[row[d1]][d0]))
    return elements, edges


def _check_local_base(X: DeltaComplex, q):
    """WrongDimension unless q is an (n-2)-simplex."""
    if X.n < 2 or q[0] != X.n - 2:
        raise WrongDimension(
            "local matrix needs an (n-2)-simplex, got dimension %d with n=%d"
            % (q[0], X.n)
        )


def local_rows(T: TropicalStructure, q):
    """(elements, rows): the 0-dimensional link elements of an
    (n-2)-simplex q and the rows of its local intersection matrix as
    fresh lists, which a caller may extend and eliminate in place.

    Off-diagonal (t,u): number of edges between t and u in link(q).
    Diagonal (t,t): -alpha(opp(t), r(t)) + 2 * (loops at t).  The edges
    come from `link_graph`; the slot of opp(t) in its ridge r(t) is the
    one missing from t.slots, so alpha is indexed directly.  The builder
    for one cell; `local_systems` builds every cell's in one pass.
    """
    X = T.complex
    _check_local_base(X, q)
    elems, edges = link_graph(X, q)
    size = len(elems)
    m = [[0] * size for _ in range(size)]
    for a, b in edges:
        if a == b:
            m[a][a] += 2
        else:
            m[a][b] += 1
            m[b][a] += 1
    alpha = T.alpha
    top = (X.n - 1) * X.n // 2  # the sum of a ridge's slots
    for i, ((_, r), slots) in enumerate(elems):
        m[i][i] -= alpha[r, top - sum(slots)]
    return elems, m


def local_systems(T: TropicalStructure, rhs=None):
    """`local_rows` at every (n-2)-simplex, in q order, built in one pass
    over the facet rows: a list of (elements, rows) pairs, the rows fresh
    lists in link order.  When rhs (one value per ridge) is given, row t
    gets rhs[r(t)] appended, the augmented local system.  Needs n >= 2.

    A facet row with slots d0 < d1 holds one link edge of the cell
    q = d_(d1-1) d_d0 of the facet, the rule of `link_graph` read
    facet-major: its ends sit at the cofacet positions of the ridge d_d0
    at d1 - 1 and of the ridge d_d1 at d0, which are the same element for
    a loop.  Then each ridge r and slot s subtract alpha(r, s) on the
    diagonal at r's element in the cell d_s r, whose slots miss s.
    """
    X = T.complex
    n = X.n
    cells, pos = X.faces[n - 1], X._cofacet_pos[n - 1]
    elements = [link[0] for link in X._links[n - 2]]
    systems = [[[0] * size for _ in range(size)]
               for size in map(len, elements)]
    pairs = [(d0, d1 - 1, d1) for d1 in range(1, n + 1) for d0 in range(d1)]
    for row in X.faces[n]:
        for d0, e, d1 in pairs:
            r = row[d0]
            m = systems[cells[r][e]]
            a = pos[r][e]
            b = pos[row[d1]][d0]
            if a == b:
                m[a][a] += 2
            else:
                m[a][b] += 1
                m[b][a] += 1
    alpha = T.alpha
    for r, (qs, ps) in enumerate(zip(cells, pos)):
        for s in range(n):
            row = systems[qs[s]][ps[s]]
            row[ps[s]] -= alpha[r, s]
            if rhs is not None:
                row.append(rhs[r])
    return list(zip(elements, systems))


def local_matrix(T: TropicalStructure, q):
    """Local intersection matrix at an (n-2)-simplex q: the rows of
    `local_rows` as a LocalIntersectionMatrix."""
    elems, rows = local_rows(T, q)
    return LocalIntersectionMatrix(q, elems, tuple(map(tuple, rows)))


class ClassifyResult(NamedTuple):
    verdict: str  # "tropical" or "weak-only"
    inertias: tuple  # (q index, Inertia) pairs
    weak: WeakReport
    matrices: tuple = ()  # (q index, LocalIntersectionMatrix) pairs


def classify(T: TropicalStructure):
    """Tropical iff every local matrix has exactly one positive eigenvalue.

    For n <= 1 there are no (n-2)-simplices and the verdict is tropical
    vacuously.  When the weak constraint holds, every local matrix comes
    from one `local_systems` pass per call (no memo): its rows are packed
    into the returned LocalIntersectionMatrix records, in q order, and the
    same lists, symmetric by construction, then go to the inertia kernel.
    """
    X = T.complex
    weak = check_weak(T)
    if not weak.passed:
        return ClassifyResult("weak-only", (), weak)
    if X.n < 2:
        return ClassifyResult("tropical", (), weak)
    dim = X.n - 2
    matrices = []
    inertias = []
    for qi, (elems, rows) in enumerate(local_systems(T)):
        matrices.append((qi, LocalIntersectionMatrix(
            (dim, qi), elems, tuple(map(tuple, rows)))))
        inertias.append((qi, Inertia(*_inertia_in_place(rows))))
    ok = all(ine.positive == 1 for _, ine in inertias)
    return ClassifyResult("tropical" if ok else "weak-only", tuple(inertias),
                          weak, tuple(matrices))
