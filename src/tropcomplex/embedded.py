"""Embedded unimodular subdivisions in R^N and their abstract imports.

Vertices live in Z^{N+1} at height 1, ray generators at height 0.  Bounded
cells are unimodular simplices closed under faces; unbounded cells are
simplicial vertex-set/ray-set pairs.  Sheet data duplicates bounded cells
into an abstract DeltaComplex; structure constants come from the weight-1
balancing relation.  A lattice-distance weight oracle cross-validates
push-forwards of divisors of PL functions; it deliberately shares no code
with the link/chip-firing machinery.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .delta import DeltaComplex
from .errors import (InconsistentData, InconsistentSheets, IndexMismatch,
                     InputError, NoSolution, NonUnimodular, SchemaError,
                     SimplicialIdentityViolation, brief, entry_list,
                     int_entries, int_entry, int_table)
from .linalg import feasible_strict, primitive_integer, solve
from .structure import TropicalStructure
from .divisors import Divisor, div_vertex_function


class UnboundedCell(NamedTuple):
    vertices: tuple  # sorted vertex indices
    rays: tuple  # sorted primitive integer vectors in Z^N

    @property
    def dim(self):
        return len(self.vertices) + len(self.rays) - 1


class BalancingSolution(NamedTuple):
    ridge: int
    coefficients: tuple  # integers c_i over the ridge's vertices
    d: int  # sheet-weighted count of adjacent bounded facets


class EmbeddedComplex:
    def __init__(self, N, vertices, bounded, unbounded, sheet_counts=None,
                 sheet_maps=None):
        self.N = N
        self.vertices = tuple(map(tuple, vertices))
        self.bounded = tuple(tuple(tuple(sorted(cell)) for cell in level)
                             for level in bounded)
        self.unbounded = tuple(unbounded)
        self.sheet_counts = dict(sheet_counts or {})
        self.sheet_maps = dict(sheet_maps or {})
        self._validate()
        dims = [k for k, level in enumerate(self.bounded) if level]
        dims += [cell.dim for cell in self.unbounded]
        if not dims:
            raise IndexMismatch("an embedded complex needs at least one cell")
        self.n = max(dims)

    # -- validation ----------------------------------------------------------

    def _validate(self):
        """Check the cells and build the lookups over them.

        _bounded_index and _unbounded_index map a cell to its index, and a
        repeated cell of either kind raises IndexMismatch; _cofacets maps a
        bounded cell to the bounded cells one level up that contain it, and
        _unbounded_on a sorted vertex tuple to the unbounded cells on
        exactly those vertices, both in cell order.  A bounded cell's
        length fixes its level, and a level is complete before the next
        level's faces are looked up.

        Unimodularity is tested last, and only on the cells that are no
        face of another cell: a face's vectors are a subset of its
        coface's, and a subset of vectors that extend to a lattice basis
        extends to one too.  The error reported is still the first in cell
        order.  Each cell's test is due where its vertices and rays have
        been checked, before its faces and its repeats are looked up; when
        a check fails, or a cell with no coface fails the test, every cell
        whose test was due by then is tested in that order, and the first
        to fail is reported as NonUnimodular.
        """
        self._bounded_index = {}
        self._cofacets = {}
        self._unbounded_index = {}
        self._unbounded_on = {}
        due = []  # the cells whose unimodularity test is due, in cell order
        try:
            covered = self._check_cells(due)
        except InputError:
            self._first_non_unimodular(due)
            raise
        if not all(self._unimodular(self._vectors(cell)) for cell in due
                   if cell not in covered and cell not in self._cofacets):
            self._first_non_unimodular(due)
        for (k, idx), count in self.sheet_counts.items():
            if count < 1:
                raise InconsistentSheets("sheet count entry %r is not positive"
                                         % ([k, idx, count],))
            if not self.has_bounded(k, idx):
                raise InconsistentSheets("sheet count entry %r names no "
                                         "bounded cell" % ([k, idx, count],))
        for (k, idx, slot), images in self.sheet_maps.items():
            if not (k > 0 and self.has_bounded(k, idx) and 0 <= slot <= k):
                raise InconsistentSheets(
                    "face sheet map entry %s names no face of a bounded cell"
                    % brief([k, idx, slot, list(images)]))
            if len(images) != self.sheets(k, idx):
                raise InconsistentSheets(
                    "sheet map of cell (%d,%d) slot %d has length %d"
                    % (k, idx, slot, len(images)))
            cell = self.bounded[k][idx]
            fidx = self._bounded_index[cell[:slot] + cell[slot + 1:]]
            for sheet, fsheet in enumerate(images):
                if not 0 <= fsheet < self.sheets(k - 1, fidx):
                    raise InconsistentSheets(
                        "cell (%d,%d) slot %d sends sheet %d to missing "
                        "sheet %d of its face" % (k, idx, slot, sheet, fsheet))

    def _check_cells(self, due):
        """Every check on the cells but unimodularity, in cell order: each
        cell is appended to `due` where its unimodularity test would run.
        Returns the cells that are a face of an unbounded cell (a bounded
        one as its vertex tuple)."""
        if self.N < 0:
            raise IndexMismatch("N must be nonnegative, not %d" % self.N)
        for v in self.vertices:
            if len(v) != self.N + 1 or v[-1] != 1:
                raise IndexMismatch(
                    "vertices must lie in Z^%d at height 1" % (self.N + 1)
                )
        nv = len(self.vertices)
        for k, level in enumerate(self.bounded):
            for idx, cell in enumerate(level):
                if len(cell) != k + 1 or len(set(cell)) != k + 1:
                    raise IndexMismatch("bounded %d-cell needs %d distinct vertices"
                                        % (k, k + 1))
                if min(cell) < 0 or max(cell) >= nv:
                    self._check_vertices(cell, "bounded cell")
                due.append(cell)
                if k > 0:
                    for drop in range(k + 1):
                        face = cell[:drop] + cell[drop + 1:]
                        if face not in self._bounded_index:
                            raise IndexMismatch(
                                "missing face %s of bounded cell %s"
                                % (face, cell)
                            )
                        self._cofacets.setdefault(face, []).append(idx)
                if self._bounded_index.setdefault(cell, idx) != idx:
                    raise IndexMismatch("duplicate bounded cell %s" % (cell,))
        for ci, cell in enumerate(self.unbounded):
            self._unbounded_index.setdefault((cell.vertices, cell.rays), ci)
            self._unbounded_on.setdefault(
                tuple(sorted(cell.vertices)), []).append(ci)
        covered = set()
        for ci, cell in enumerate(self.unbounded):
            if not cell.rays or not cell.vertices:
                raise IndexMismatch("unbounded cells need vertices and rays")
            for r in cell.rays:
                if len(r) != self.N or not any(r):
                    raise IndexMismatch("bad ray %s" % (r,))
                if gcd(*r) != 1:
                    raise IndexMismatch("ray %s not primitive" % (r,))
            if min(cell.vertices) < 0 or max(cell.vertices) >= nv:
                self._check_vertices(cell.vertices, "unbounded cell")
            due.append(cell)
            if self._unbounded_index[(cell.vertices, cell.rays)] != ci:
                raise IndexMismatch("duplicate unbounded cell %s" % (cell,))
            # face closure: drop one ray, or one vertex when several remain;
            # a face with no ray left is a bounded cell
            verts, rays = cell
            faces = [(verts, rays[:i] + rays[i + 1:])
                     for i in range(len(rays))]
            if len(verts) > 1:
                faces += [(verts[:i] + verts[i + 1:], rays)
                          for i in range(len(verts))]
            for vs, rs in faces:
                if not rs:
                    if vs not in self._bounded_index:
                        raise IndexMismatch("missing bounded face %s" % (vs,))
                    covered.add(vs)
                elif self._find_unbounded(vs, rs) is None:
                    raise IndexMismatch(
                        "missing unbounded face of %s" % (cell,))
                else:
                    # equal to the UnboundedCell, a tuple, that it names
                    covered.add((vs, rs))
        return covered

    def _vectors(self, cell):
        """A cell's vectors in Z^{N+1}: its vertices, then its rays at
        height 0."""
        if isinstance(cell, UnboundedCell):
            return ([self.vertices[i] for i in cell.vertices]
                    + [r + (0,) for r in cell.rays])
        return [self.vertices[i] for i in cell]

    def _first_non_unimodular(self, cells):
        """Raise NonUnimodular for the first of the cells, in order, whose
        vectors do not extend to a lattice basis; return when none fails."""
        for cell in cells:
            if not self._unimodular(self._vectors(cell)):
                raise NonUnimodular("%s cell %s" % (
                    "unbounded" if isinstance(cell, UnboundedCell)
                    else "bounded", cell))

    def _check_vertices(self, cell, what):
        """IndexMismatch naming the first vertex of the cell out of range."""
        for i in cell:
            if not 0 <= i < len(self.vertices):
                raise IndexMismatch("%s %s names missing vertex %d"
                                    % (what, cell, i))

    @staticmethod
    def _unimodular(vectors):
        """Whether every invariant factor of the vectors (as rows) is 1, so
        that they extend to a lattice basis.

        Three vectors in Z^3, such as a cell of full dimension at N = 2
        (every maximal cell of a subdivision of the plane), are unimodular
        exactly when their determinant, expanded along the first row, is
        +-1.  Otherwise column Euclid steps reduce each row in turn to a
        single entry on the columns no earlier row has taken; the vectors
        are unimodular exactly when that entry is always +-1, and the test
        stops at the first row where it is not (its gcd then divides every
        maximal minor).  A general fraction-free determinant took longer
        on the 3 x 3 cells of the plane fixture than these Euclid steps
        do, so only the closed form is used.
        """
        if len(vectors) == 3 and len(vectors[0]) == 3:
            (a, b, c), (d, e, f), (g, h, i) = vectors
            return abs(a * (e * i - f * h) - b * (d * i - f * g)
                       + c * (d * h - e * g)) == 1
        cols = [list(c) for c in zip(*vectors)]
        free = list(range(len(cols)))
        for r in range(len(vectors)):
            live = [j for j in free if cols[j][r]]
            while len(live) > 1:
                j = min(live, key=lambda l: abs(cols[l][r]))
                pivot = cols[j]
                for l in live:
                    if l != j:
                        q = cols[l][r] // pivot[r]
                        cols[l] = [a - q * b for a, b in zip(cols[l], pivot)]
                live = [l for l in live if cols[l][r]]
            if not live or abs(cols[live[0]][r]) != 1:
                return False
            free.remove(live[0])
        return True

    # -- queries -------------------------------------------------------------

    def has_bounded(self, k, idx):
        return 0 <= k < len(self.bounded) and 0 <= idx < len(self.bounded[k])

    def bounded_dim(self):
        return max(k for k, level in enumerate(self.bounded) if level)

    def sheets(self, k, idx):
        return self.sheet_counts.get((k, idx), 1)

    def sheet_map(self, k, idx, slot):
        default = tuple(0 for _ in range(self.sheets(k, idx)))
        return self.sheet_maps.get((k, idx, slot), default)

    def _find_unbounded(self, verts, rays):
        return self._unbounded_index.get((tuple(sorted(verts)),
                                          tuple(sorted(rays))))

    def facets_through(self, ridge):
        """Cells one dimension above the bounded cell `ridge` that contain
        it: (bounded cell indices, unbounded cell indices), in cell order."""
        n = len(ridge)
        unbounded = [ci for ci in self._unbounded_on.get(ridge, ())
                     if self.unbounded[ci].dim == n]
        return self._cofacets.get(ridge, []), unbounded


def _object(value, what):
    """A fixture value that must be a JSON object, or SchemaError naming it."""
    if not isinstance(value, dict):
        raise SchemaError("%s entry %s is not an object"
                          % (what, brief(value)))
    return value


def load_embedded(data):
    """The EmbeddedComplex of an embedded fixture; a malformed entry raises
    SchemaError naming it."""
    for key in ("N", "vertices"):
        if key not in data:
            raise SchemaError("embedded fixture is missing key %r" % key)
    (N,) = int_entry([data["N"]], 1, "N")
    vertices = int_entries(entry_list(data["vertices"], "vertex"), None,
                           "vertex")
    bounded = [
        int_entries(entry_list(level, "bounded level"), None, "bounded cell")
        for level in entry_list(data.get("bounded_cells", []), "bounded level")
    ]
    unbounded = []
    for cell in entry_list(data.get("unbounded_cells", []), "unbounded cell"):
        cell = _object(cell, "unbounded cell")
        if "vertices" not in cell:
            raise SchemaError("unbounded cell entry %s has no vertices"
                              % brief(cell))
        rays = entry_list(cell.get("rays", []), "ray")
        unbounded.append(UnboundedCell(
            tuple(sorted(int_entry(cell["vertices"], None,
                                   "unbounded cell vertices"))),
            tuple(sorted(int_entries(rays, None, "ray"))),
        ))
    sheets = _object(data.get("sheets", {}), "sheets")
    counts = int_table(sheets.get("counts", []), 3, "sheet count")
    maps = {}
    for entry in entry_list(sheets.get("face_sheet_maps", []), "face sheet map"):
        if not isinstance(entry, list) or len(entry) != 4:
            raise SchemaError("face sheet map entry %s is not [k, index, slot, "
                              "images]" % brief(entry))
        key = int_entry(entry[:3], 3, "face sheet map")
        maps[key] = int_entry(entry[3], None, "face sheet map images")
    return EmbeddedComplex(N, vertices, bounded, unbounded, counts, maps)


# ---------------------------------------------------------------------------
# Sheet duplication


def duplicate_sheets(E: EmbeddedComplex):
    """Abstract complex with one simplex per (bounded cell, sheet).

    Returns (DeltaComplex, pi) where pi[k][i] is the bounded-cell index of
    the i-th k-simplex.  EmbeddedComplex has checked each sheet map's length
    and targets; maps that do not commute raise InconsistentSheets here.
    """
    nb = E.bounded_dim()
    simplices = {}
    pi = []
    for k in range(nb + 1):
        level = []
        for idx, _ in enumerate(E.bounded[k]):
            for sheet in range(E.sheets(k, idx)):
                simplices[(k, idx, sheet)] = len(level)
                level.append((idx, sheet))
        pi.append([idx for idx, _ in level])
    counts = [len(level) for level in pi]
    faces = {}
    for k in range(1, nb + 1):
        rows = []
        for idx, cell in enumerate(E.bounded[k]):
            for sheet in range(E.sheets(k, idx)):
                row = []
                for slot in range(k + 1):
                    fidx = E._bounded_index[cell[:slot] + cell[slot + 1:]]
                    fsheet = E.sheet_map(k, idx, slot)[sheet]
                    row.append(simplices[(k - 1, fidx, fsheet)])
                rows.append(row)
        faces[k] = rows
    try:
        X = DeltaComplex(nb, counts, faces)
    except SimplicialIdentityViolation as exc:
        raise InconsistentSheets(
            "sheet maps do not commute with face relations: %s" % exc
        ) from exc
    return X, pi


# ---------------------------------------------------------------------------
# Structure constants from balancing


def alpha_from_balancing(E: EmbeddedComplex, ridge_index):
    """Solve the weight-1 balancing relation at a bounded (n-1)-cell.

    phi(w_1) + ... + phi(w_d) + u_1 + ... + u_m = sum c_i phi(v_i), where the
    w_i run over extra vertices of adjacent bounded facets counted with
    sheets and the u_j over rays of adjacent unbounded facets.  The ridge's
    vectors were checked unimodular at construction, so a solution, when
    there is one, is integral; and the height coordinate (1 at vertices, 0
    on rays) makes the c_i sum to d.  NoSolution when there is none.
    """
    n = E.n
    if not E.has_bounded(n - 1, ridge_index):
        raise IndexMismatch("no bounded (n-1)-cell with index %d" % ridge_index)
    # a bounded cell, so construction has tested its cone for unimodularity
    ridge = E.bounded[n - 1][ridge_index]
    rhs = [0] * (E.N + 1)
    d = 0
    bounded_facets, unbounded_facets = E.facets_through(ridge)
    for fidx in bounded_facets:
        (extra,) = set(E.bounded[n][fidx]) - set(ridge)
        mult = E.sheets(n, fidx)
        d += mult
        rhs = [a + mult * b for a, b in zip(rhs, E.vertices[extra])]
    for ci in unbounded_facets:
        for r in E.unbounded[ci].rays:
            rhs = [a + b for a, b in zip(rhs, r + (0,))]
    rows = [[E.vertices[v][j] for v in ridge] for j in range(E.N + 1)]
    sol = solve(rows, rhs)
    if sol is None:
        raise NoSolution("balancing relation inconsistent at ridge %s" % (ridge,))
    # integral (the ridge is unimodular), summing to d (the height row)
    return BalancingSolution(ridge_index, tuple(int(x) for x in sol), d)


def derive_structure(E: EmbeddedComplex):
    """Duplicated complex with alpha from balancing on every ridge.

    Each sheet of a ridge cell receives the same coefficients, indexed by
    the cell's vertex order.
    """
    n = E.n
    if E.bounded_dim() != n:
        raise NoSolution("no bounded cells of top dimension %d" % n)
    X, pi = duplicate_sheets(E)
    solutions = {}
    alpha = {}
    if n >= 1:
        for ridge_index in range(len(E.bounded[n - 1])):
            solutions[ridge_index] = alpha_from_balancing(E, ridge_index)
        for dup_idx, cell_idx in enumerate(pi[n - 1]):
            sol = solutions[cell_idx]
            for slot, c in enumerate(sol.coefficients):
                alpha[(dup_idx, slot)] = c
    return X, pi, TropicalStructure(X, alpha), solutions


# ---------------------------------------------------------------------------
# Robustness


class RobustResult(NamedTuple):
    robust: bool
    certificate: tuple | None  # primitive integer functional, or None
    maximal_unbounded_cell: int | None  # index into E.unbounded, or None


def robustness_check(E: EmbeddedComplex, k, idx):
    """Strict-feasibility test at a bounded k-cell.

    Robust iff some rational functional vanishes on the cell's direction
    space and is strictly positive on every ray of the unbounded (k+1)-cells
    containing it, decided by exact Fourier-Motzkin elimination.
    """
    if not E.has_bounded(k, idx):
        raise IndexMismatch("no bounded %d-cell with index %d" % (k, idx))
    cell = E.bounded[k][idx]
    base = E.vertices[cell[0]][:-1]
    dirs = [tuple(a - b for a, b in zip(E.vertices[v][:-1], base))
            for v in cell[1:]]
    rays = []
    adjacent = []
    for ci, u in enumerate(E.unbounded):
        if set(cell) <= set(u.vertices):
            adjacent.append(ci)
            if u.dim == k + 1:
                rays.extend(u.rays)
    if rays:
        y = feasible_strict(dirs, rays, E.N)
        robust = y is not None
        cert = primitive_integer(y) if robust else None
    else:
        robust = True
        cert = tuple(0 for _ in range(E.N))
    maximal = None
    cells_k1 = [ci for ci in adjacent if E.unbounded[ci].dim == k + 1]
    best = None
    for ci in adjacent:
        u = E.unbounded[ci]
        ok = all(
            set(E.unbounded[a].vertices) <= set(u.vertices)
            and set(E.unbounded[a].rays) <= set(u.rays)
            for a in cells_k1
        )
        if ok:
            cand = (u.dim, -ci)
            if best is None or cand > best:
                best = cand
                maximal = ci
    if robust and rays:
        if any(sum(a * b for a, b in zip(cert, r)) <= 0 for r in rays) \
                or any(sum(a * b for a, b in zip(cert, v)) for v in dirs):
            raise InconsistentData("robustness certificate %s fails at bounded "
                                   "cell %s" % (cert, cell))
    return RobustResult(robust, cert, maximal)


# ---------------------------------------------------------------------------
# Push-forward and the weight oracle


class PushResult(NamedTuple):
    pushed: dict  # bounded ridge-cell index -> integer
    oracle: dict | None  # same keys, from the lattice-distance computation
    verdict: str | None  # "pass" | "fail" when f was supplied


def _ridge_environment(E: EmbeddedComplex, ridge):
    """Adjacent facets of a bounded ridge: ('b', extra vertex, sheets) and
    ('u', ray, 1) entries."""
    n = E.bounded_dim()
    out = []
    bounded_facets, unbounded_facets = E.facets_through(ridge)
    for fidx in bounded_facets:
        (extra,) = set(E.bounded[n][fidx]) - set(ridge)
        out.append(("b", extra, E.sheets(n, fidx)))
    for ci in unbounded_facets:
        for r in E.unbounded[ci].rays:
            out.append(("u", r, 1))
    return out


def embedded_weights(E: EmbeddedComplex, f):
    """Divisor weights of a simplexwise-linear f with zero slope along rays,
    computed per bounded ridge by lattice distances between facet slopes.

    The slope difference across the ridge is evaluated at the unit point of
    each adjacent facet (the extra vertex, or base + ray) after subtracting
    an affine gauge h matching f on the ridge and on the first facet.
    """
    n = E.bounded_dim()
    weights = {}
    for ridx, ridge in enumerate(E.bounded[n - 1] if n >= 1 else ()):
        env = _ridge_environment(E, ridge)
        rows = [list(E.vertices[v]) for v in ridge]
        rhs = [f[v] for v in ridge]
        kind, data, _ = env[0]
        if kind == "b":
            rows.append(list(E.vertices[data]))
            rhs.append(f[data])
        else:
            rows.append(list(data + (0,)))
            rhs.append(0)
        h = solve(rows, rhs)
        if h is None:
            raise NoSolution("no affine gauge at ridge %s" % (ridge,))
        total = Fraction(0)
        for kind, data, mult in env:
            if kind == "b":
                total += mult * (Fraction(f[data]) - sum(
                    a * b for a, b in zip(h, E.vertices[data])))
            else:
                total -= mult * sum(a * b for a, b in zip(h, data + (0,)))
        if total.denominator != 1:
            raise InconsistentData("weight %s at ridge %s is not an integer"
                                   % (total, ridge), ridge=ridx)
        weights[ridx] = int(total)
    return weights


def push_forward_and_compare(E: EmbeddedComplex, D: Divisor = None, f=None):
    """Push multiplicities along the duplication map; with f supplied,
    compare the push-forward of div(f o pi) against the weight oracle.

    D must be ridge-supported on the duplicated (n-1)-simplices, or
    IndexMismatch names the entry, as for lin_equiv_witness.
    """
    n = E.bounded_dim()
    n_ridges = len(E.bounded[n - 1]) if n >= 1 else 0
    if f is not None:
        if len(f) != len(E.vertices):
            raise IndexMismatch(
                "expected %d vertex values, got %d" % (len(E.vertices), len(f))
            )
        _, pi, T, _ = derive_structure(E)
        D = div_vertex_function(T, [f[E.bounded[0][cell][0]] for cell in pi[0]])
    elif D is None:
        raise IndexMismatch("need a divisor or a vertex function")
    else:
        _, pi = duplicate_sheets(E)
    # the bounded ridge cell of each duplicated (n-1)-simplex
    ridge_cells = pi[n - 1] if n >= 1 else ()
    if D.facet_pieces:
        raise IndexMismatch("push-forward needs a ridge-supported divisor")
    for r, c in D.ridge_part:
        if not 0 <= r < len(ridge_cells):
            raise IndexMismatch(
                "divisor entry [%d, %d]: ridge %d out of range (%d "
                "duplicated ridges)" % (r, c, r, len(ridge_cells)))
    pushed = {r: 0 for r in range(n_ridges)}
    for dup_idx, cell_idx in enumerate(ridge_cells):
        pushed[cell_idx] += D.coeff(dup_idx)
    if f is None:
        return PushResult(pushed, None, None)
    oracle = embedded_weights(E, f)
    return PushResult(pushed, oracle, "pass" if pushed == oracle else "fail")
