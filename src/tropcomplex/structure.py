"""Structure constants alpha(v, r) and the tropical-complex condition.

alpha assigns an integer to every (ridge, vertex slot) pair: its keys are
exactly those pairs, checked once when a TropicalStructure is made.  The
same pass fills the flat list `_diag`, with -alpha(r, s) at r * n + s.
The weak check, the local systems and the surface curve systems index it
by the int key that construction records for each link element, so they
build no key tuple and do not read alpha.  The weak constraint demands
the slot sum equal deg(r) at every ridge.  The complex is tropical when
every local intersection matrix has exactly one positive eigenvalue,
decided by exact inertia computation.
"""

from __future__ import annotations

from typing import NamedTuple

from .delta import DeltaComplex
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

    alpha stays the public dict and the one checked source.  The pass that
    checks it also fills the private flat list `_diag`, with
    `_diag[r * n + s] = -alpha[r, s]`: the diagonal entry of a local
    matrix row whose link element has alpha key (r, s), indexed by the
    int key of `DeltaComplex._local_keys` (empty at n = 0).
    """

    __slots__ = ("complex", "alpha", "_diag")

    def __init__(self, complex: DeltaComplex, alpha: dict = None):
        n = complex.n
        if alpha is None:
            if n > 1:
                raise MissingAlpha("alpha required for n = %d" % n)
            diag = [-len(link[0]) for link in complex._links[0]] if n else []
            alpha = {(v, 0): -a for v, a in enumerate(diag)}
        else:
            ridges = complex.counts[n - 1] if n else 0
            diag = [0] * (ridges * n)
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
                diag[r * n + slot] = -a
            # every key is in range, so a full table has ridges * n keys
            if len(alpha) != ridges * n:
                r, slot = next((r, slot) for r in range(ridges)
                               for slot in range(n) if (r, slot) not in alpha)
                raise MissingAlpha("no alpha for ridge %d slot %d"
                                   % (r, slot))
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "_diag", diag)

    def _key(self):
        return self.complex


def check_weak(T: TropicalStructure):
    """Weak constraint report: per ridge, slot sum of alpha vs deg(r).

    The slot sum of ridge r is minus the sum of its n-wide run
    `_diag[r * n:(r + 1) * n]`, so alpha itself is not read."""
    X = T.complex
    n = X.n
    if n == 0:
        return WeakReport(True, (), ())
    violations = []
    isolated = []
    runs = zip(*[iter(T._diag)] * n)
    for r, (link, run) in enumerate(zip(X._links[n - 1], runs)):
        deg = len(link[0])
        total = -sum(run)
        if deg == 0:
            isolated.append(r)
        if total != deg:
            violations.append((r, total, deg))
    return WeakReport(not violations, tuple(violations), tuple(isolated))


class LocalIntersectionMatrix(NamedTuple):
    base: tuple  # the (n-2)-simplex
    elements: tuple  # 0-dimensional link elements, enumeration order
    matrix: tuple  # tuple of tuples, symmetric integers


def _check_local_base(X: DeltaComplex, q):
    """WrongDimension unless q is an (n-2)-simplex, and IndexMismatch
    naming q unless its index is in range."""
    if X.n < 2 or q[0] != X.n - 2:
        raise WrongDimension(
            "local matrix needs an (n-2)-simplex, got dimension %d with n=%d"
            % (q[0], X.n)
        )
    count = X.counts[q[0]]
    if not 0 <= q[1] < count:
        raise IndexMismatch("cell %d out of range (%d cells)" % (q[1], count))


def local_systems(T: TropicalStructure, cells, rhs=None):
    """The local intersection matrices at the given (n-2)-simplex indices,
    in the order given: one (elements, rows) pair per index, the
    0-dimensional link elements of the cell and the matrix rows as fresh
    lists in link order, which a caller may extend and eliminate in place.
    When rhs (one value per ridge) is given, row t gets rhs[r(t)]
    appended, the augmented local system.  Needs n >= 2 and indices in
    range.

    Off-diagonal (t,u): the number of edges between t and u in link(q).
    Diagonal (t,t): 2 * (loops at t) - alpha(r(t), opp(t)), where the
    slot opp(t) of the ridge r(t) is the one its slot tuple misses.  Both
    are read from the local table of q that construction records
    (`delta.DeltaComplex._build_links`): `_local_keys[q]` holds the int
    key k = r(t) * n + opp(t) of each element t, and `_local_ends[q]` the
    two link0 positions of each edge, the same position twice for a loop.
    Row t takes its diagonal from `T._diag[k]` and its right-hand side
    from rhs[k // n].  So a call looks up no slot tuple and no facet row,
    and builds no alpha key; augmented rows are allocated at their full
    width.
    """
    X = T.complex
    n = X.n
    links, keys, ends = X._links[n - 2], X._local_keys, X._local_ends
    diag = T._diag
    extra = 0 if rhs is None else 1
    systems = []
    for q in cells:
        elements = links[q][0]
        size = len(elements)
        m = []
        for i, k in enumerate(keys[q]):
            row = [0] * (size + extra)
            row[i] = diag[k]
            if extra:
                row[size] = rhs[k // n]
            m.append(row)
        it = iter(ends[q])
        for a, b in zip(it, it):
            m[a][b] += 1  # a loop, a == b, adds 2 on the diagonal
            m[b][a] += 1
        systems.append((elements, m))
    return systems


def local_matrix(T: TropicalStructure, q):
    """Local intersection matrix at an (n-2)-simplex q: the rows of
    `local_systems` as a LocalIntersectionMatrix."""
    _check_local_base(T.complex, q)
    ((elems, rows),) = local_systems(T, (q[1],))
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
    from one `local_systems` call over every cell (no memo): its rows are
    packed into the returned LocalIntersectionMatrix records, in q order,
    and the same lists, symmetric by construction, then go to the inertia
    kernel.
    """
    X = T.complex
    weak = check_weak(T)
    if not weak.passed:
        return ClassifyResult("weak-only", (), weak)
    if X.n < 2:
        return ClassifyResult("tropical", (), weak)
    dim = X.n - 2
    new = tuple.__new__  # an Inertia without its Python-level __new__
    matrices = []
    inertias = []
    cells = range(X.counts[dim])
    for qi, (elems, rows) in zip(cells, local_systems(T, cells)):
        matrices.append((qi, LocalIntersectionMatrix(
            (dim, qi), elems, tuple(map(tuple, rows)))))
        inertias.append((qi, new(Inertia, _inertia_in_place(rows))))
    ok = all(ine.positive == 1 for _, ine in inertias)
    return ClassifyResult("tropical" if ok else "weak-only", tuple(inertias),
                          weak, tuple(matrices))
