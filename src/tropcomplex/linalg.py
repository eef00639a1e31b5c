"""Exact linear algebra over the rationals and the integers.

Everything here is deterministic and uses arbitrary-precision integers.
Rational elimination (rref, solve, kernel_basis, inertia) runs
fraction-free on integer rows under one rule, Bareiss's: each update
divides exactly by the previous pivot scale, so every working entry is a
minor of the input, within Hadamard's bound, and no gcd is taken.
`_echelon` and `inertia` are front doors that copy their input (and
`inertia` checks symmetry) before one in-place kernel each,
`_echelon_in_place` and `_inertia_in_place`.  The kernels take ints only:
they make no type test and no Fraction.  Rational input is scaled to
integers once, before a kernel sees it, by one helper, `_scaled`, which
passes ints through after one type test per value: the front doors
`_echelon` and `solve` call it per row and `inertia` on the whole
matrix, and the callers that feed the kernels the rows of
`structure.local_systems`, the one builder of local intersection
matrices, call it through `_integral_part`, by one lcm of denominators
per call over supp D or supp C.

`_echelon_in_place` builds no list per pivot: it loops over the rows by
index, skips the pivot row, and tests each pivot-row entry for zero
inside the update.  `_inertia_in_place` deletes no line: it eliminates
over a list of the indices not yet eliminated and leaves the lines it is
done with in place.  When a pivot equals the previous scale, as every
inertia pivot of the local matrices of the alpha = 1 tori does, a row
with zero in the pivot column does not change and any other row changes
only where the pivot line is nonzero; otherwise the whole remaining
block is rescaled.  After a reduced `_echelon_in_place` every
pivot entry has the same absolute value, so a solution is one integer
vector over that common scale: `curves.intersect_degree` sums each
vertex total as one integer numerator over it.

The integer elimination is kept apart from rref's Fraction output: the
Weil test and the balancing test of `curves` only need the pivots, and
build no Fraction; `solve` and `kernel_basis` build one
Fraction per nonzero entry they return.  The Smith normal form (`smith`)
eliminates on sparse integer rows (dense lists, or `{column: entry}`
dicts such as the chip-firing rows of `divisors.chip_matrix`), pivoting
on an entry of smallest absolute value (ties by position) and reducing
the pivot row and column modulo it.  The pivot search reads the rows in
index order and stops after the first row that holds a unit, which is
where the smallest entry lies whenever there is one.  Each row operation
is applied inside the pivot loop, and a unit pivot p takes -x * p as the
nearest quotient of x and clears its row and column in one pass, so it
is never pivoted on again.  U and V are kept
as logs of row and column operations that are replayed on one vector at
a time; `smith_normal_form` builds them dense on request.  The
transforms are not reduced, so their entries can exceed Hadamard's
bound.  No floating point enters any verdict anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple

from .errors import InconsistentData


_ZERO = Fraction(0)


def _scaled(values):
    """(ints, den): the values times den, the lcm of their denominators, as
    a new list of ints.  Ints come back as they are, with den = 1, after
    one type test per value and no Fraction; otherwise each value is read
    through Fraction.  No positive den changes the pivots or solutions of
    an augmented system or the inertia of a symmetric matrix."""
    values = list(values)
    for x in values:
        if type(x) is not int:
            break
    else:
        return values, 1
    fracs = [Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (den // x.denominator) for x in fracs], den


def _integral_part(part):
    """(part, den): a sorted (index, rational value) part, such as a
    divisor's ridge part or a curve's multiplicities, with every value
    times den, the lcm of the denominators, as an int.  A part of ints
    comes back as it is, with den = 1, after one type test per value and
    no Fraction.  The callers that feed the kernels from it read a verdict
    that no positive scale changes, or divide their result by den."""
    for _, x in part:
        if type(x) is not int:
            break
    else:
        return part, 1
    values, den = _scaled(x for _, x in part)
    return tuple(zip((i for i, _ in part), values)), den


def _echelon(rows, ncols=None, reduced=True):
    """Fraction-free Gauss-Jordan elimination of a copy of rows, each row
    scaled to integers by `_scaled`: (rows, pivot columns) of
    `_echelon_in_place`."""
    return _echelon_in_place([_scaled(row)[0] for row in rows], ncols,
                             reduced)


def _echelon_in_place(m, ncols=None, reduced=True):
    """Fraction-free Gauss-Jordan elimination of the integer rows m, which
    the caller owns: (rows, pivot columns).

    The rows are ints and are updated in place; no entry is type-tested
    and no Fraction is made.  A caller with rational input scales it to
    integers first through `_scaled`: the front doors `_echelon` and
    `solve` row by row, and the callers in `divisors` and `curves` once
    per call, by the lcm of the denominators over supp D or supp C
    (`_integral_part`).  Pivots are chosen as the first nonzero entry when
    scanning columns left to right, which keeps the output (and
    everything derived from it) deterministic.  With p the pivot's absolute value, prev the one before
    it and s the pivot's sign, every other row becomes
    (p * row - s * row[c] * pivot_row) / prev (Bareiss), as if the pivot
    row had been negated to a positive pivot.  The division is exact and
    every working entry is a minor of the input, so each returned row is a
    nonzero integer multiple of the rational row that Gauss-Jordan
    elimination would hold at the same step: the zero patterns and the
    pivots are the same, and only the first len(pivots) rows are nonzero.
    When p equals prev a row with zero in column c does not change, and
    any other row changes only in the pivot row's nonzero columns;
    otherwise every row is rescaled.  No list is built per pivot: the
    loop over the rows skips the pivot row by its index, and the sparse
    update tests each pivot-row entry for zero as it goes.  With
    reduced=False only the rows below each pivot are cleared (row echelon
    form): the pivots do not change.  Columns past ncols are carried
    along and never pivot.  After a reduced elimination every pivot entry
    has the same absolute value, the last p: a rescale multiplies each
    earlier pivot entry by p / prev, as the pivot row is zero in the
    earlier pivot columns, and a sparse update leaves it alone.  So the
    solution of an augmented system is one integer vector over that
    common scale.
    `_echelon` and `solve` build the rows fresh from their input, the Weil
    test passes the augmented rows of `structure.local_systems` at each
    cell that supp D touches, balancing and the intersection product at
    n = 2 those rows with the curve's multiplicities appended at each
    support vertex, and `curves._balance` the transposed germ relations
    with the slope functional appended.
    """
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots = []
    prev = 1
    r = 0
    height = len(m)
    for c in range(ncols):
        for i in range(r, height):
            if m[i][c]:
                break
        else:
            continue
        prow = m[i]
        m[r], m[i] = prow, m[r]
        p = prow[c]
        s = 1 if p > 0 else -1
        p *= s
        start = 0 if reduced else r + 1
        if p == prev:
            width = len(prow)
            for i in range(start, height):
                row = m[i]
                f = row[c]
                if f and i != r:
                    f *= s
                    for j in range(c, width):
                        y = prow[j]
                        if y:
                            row[j] -= f * y // prev
        else:
            for i in range(start, height):
                if i != r:
                    row = m[i]
                    f = s * row[c]
                    row[:] = [(p * x - f * y) // prev
                              for x, y in zip(row, prow)]
        pivots.append(c)
        prev = p
        r += 1
        if r == height:
            break
    return m, pivots


def rref(rows, ncols=None):
    """Reduced row echelon form.

    Returns (reduced rows, pivot column list): the rows of `_echelon`
    divided by their pivots, as Fractions.
    """
    m, pivots = _echelon(rows, ncols)
    return [[Fraction(x, row[c]) if x else _ZERO for x in row]
            for row, c in zip(m, pivots)], pivots


def kernel_basis(rows, ncols):
    """Basis of {x : rows . x = 0} over Q.

    Free variables are set to 1 one at a time (increasing column order), so
    the basis is deterministic.  The entries are read off the rows of
    `_echelon`, one Fraction per nonzero entry.
    """
    m, pivots = _echelon(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [_ZERO] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(m, pivots):
            if row[f]:
                vec[p] = Fraction(-row[f], row[p])
        basis.append(tuple(vec))
    return basis


def solve(rows, rhs):
    """One rational solution of rows . x = rhs, or None if inconsistent.

    The augmented rows are built fresh, each scaled to integers by
    `_scaled`, and `_echelon_in_place` reduces them over their first
    ncols columns; the system is inconsistent if a
    row past the pivots keeps a nonzero right-hand side.  Free variables
    are set to 0 (deterministic particular solution), so each pivot
    variable is the right-hand side of its row divided by the pivot.
    """
    ncols = len(rows[0]) if rows else 0
    m, pivots = _echelon_in_place(
        [_scaled((*row, b))[0] for row, b in zip(rows, rhs)], ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    x = [_ZERO] * ncols
    for row, p in zip(m, pivots):
        if row[ncols]:
            x[p] = Fraction(row[ncols], row[p])
    return tuple(x)


# ---------------------------------------------------------------------------
# Smith normal form


class SmithForm(NamedTuple):
    """The Smith form U . a . V = S of an integer m x n matrix a, with U and
    V kept as operation logs.

    `diagonal` holds the min(m, n) diagonal entries of S: the nonzero ones
    positive, each dividing the next, then the zeros.  U is the row log
    replayed in order, then row rows[t] moved to position t; V is the column
    log replayed in order, then column cols[t] moved to position t.  A log
    entry (i, k, q) adds q times line i to line k, (i,) negates line i, and
    (i, k, a, b, c, d) replaces lines i and k by a*i + b*k and c*i + d*k.
    `smith` writes the sign operations (i,) to the row log only.
    """

    shape: tuple
    diagonal: tuple
    rows: tuple
    cols: tuple
    row_log: tuple
    col_log: tuple

    @property
    def factors(self):
        """The nonzero diagonal entries (invariant factors), in order."""
        return self.diagonal[:len(self.diagonal) - self.diagonal.count(0)]

    def apply_u(self, b):
        """U . b, replaying the row log on one vector of values as given:
        ints stay ints, and Fractions stay exact."""
        x = list(b)
        for op in self.row_log:
            if len(op) == 3:
                i, k, q = op
                x[k] += q * x[i]
            elif len(op) == 1:
                x[op[0]] = -x[op[0]]
            else:
                i, k, a, b, c, d = op
                x[i], x[k] = a * x[i] + b * x[k], c * x[i] + d * x[k]
        return [x[i] for i in self.rows]

    def apply_v(self, y):
        """V . y, replaying the column log backwards on one vector; entries
        missing at the end of y count as zero."""
        z = [0] * self.shape[1]
        for j, v in zip(self.cols, y):
            z[j] = v
        for op in reversed(self.col_log):
            # no sign operation: `smith` logs those on rows only
            if len(op) == 3:
                i, k, q = op
                z[i] += q * z[k]
            else:
                i, k, a, b, c, d = op
                z[i], z[k] = a * z[i] + c * z[k], b * z[i] + d * z[k]
        return z


def _nearest(a, p):
    """The integer nearest to a / p (p != 0)."""
    q, r = divmod(a, p)
    return q + 1 if 2 * abs(r) > abs(p) else q


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) = x*a + y*b, for a, b > 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return a, x0, y0


def _pivot(live):
    """The smallest key (|v|, row, column) over the live entries of `smith`.

    `live` maps row -> {column: nonzero entry} and iterates its rows in
    increasing index: `smith` fills it in row order, changes rows in place
    and only ever deletes them.  So the rows are read in order, a later row
    wins only with a strictly smaller |v|, and the search stops at the end
    of the first row that holds a unit, since no entry after it has a
    smaller key.  With no unit anywhere every row is read.
    """
    best = row = None
    for i, entries in live.items():
        a = min(map(abs, entries.values()))
        if best is None or a < best:
            best, row = a, i
            if a == 1:
                break
    entries = live[row]
    return best, row, min(j for j, v in entries.items() if abs(v) == best)


def smith(a, ncols=None):
    """Smith form of an integer matrix by sparse elimination, as a SmithForm.

    The rows of a are lists, or {column: nonzero int} dicts such as those
    of `divisors.chip_matrix`; dict rows are copied as they are and need
    the column count ncols, which list rows give by their length.  Rows
    are kept as dicts with a column -> rows index.  Each pivot is an entry
    of smallest |value| in the remaining block, ties broken by (row,
    column), found by `_pivot`.  The pivot column and then the pivot row
    are reduced modulo the pivot with nearest quotients; while a remainder
    is left the pivot is chosen again, so entries shrink towards the gcd
    instead of growing as in Euclid-by-swapping.  Each row operation
    updates the target row and the column index in place, inside the
    loop over the pivot column.  For a pivot p = +-1 the nearest quotient
    of x is -x * p, what `_nearest` gives, and every remainder is zero:
    the column operations then clear the pivot row with no division, and
    no second pivot is tested for.  The pivots are finally put under the
    divisibility chain by gcd/lcm steps on pairs.
    """
    m = len(a)
    n = ncols if ncols is not None else len(a[0]) if m else 0
    live = {}                       # row -> {column: nonzero entry}
    at = [set() for _ in range(n)]  # column -> live rows with an entry there
    for i, row in enumerate(a):
        entries = (dict(row) if isinstance(row, dict) else
                   {j: int(x) for j, x in enumerate(row) if x})
        if entries:
            live[i] = entries
            for j in entries:
                at[j].add(i)
    row_log, col_log = [], []
    pivots = []  # [row, column, value > 0]
    while live:
        _, i, j = _pivot(live)
        prow = live[i]
        p = prow[j]
        unit = p == 1 or p == -1
        again = False
        for k in sorted(at[j]):
            if k == i:
                continue
            # row k += q * row i, with q the nearest quotient; |x| >= |p|,
            # so q and every q * v are nonzero
            dst = live[k]
            x = dst[j]
            q = -x * p if unit else -_nearest(x, p)
            for l, v in prow.items():
                if l in dst:
                    w = dst[l] + q * v
                    if w:
                        dst[l] = w
                    else:
                        del dst[l]
                        at[l].discard(k)
                else:
                    dst[l] = q * v
                    at[l].add(k)
            row_log.append((i, k, q))
            if not dst:
                del live[k]
            elif not unit and j in dst:
                again = True
        if not again:
            # column j is now zero outside row i, so a column operation
            # against it changes only row i
            for l in sorted(prow):
                if l != j:
                    x = prow[l]
                    q = -x * p if unit else -_nearest(x, p)
                    col_log.append((j, l, q))
                    if x + q * p:
                        prow[l] = x + q * p
                        again = True
                    else:
                        del prow[l]
                        at[l].discard(i)
        if again:
            continue
        del live[i]
        at[j].discard(i)
        if p < 0:
            row_log.append((i,))
        pivots.append([i, j, abs(p)])

    units = [pv for pv in pivots if pv[2] == 1]
    rest = [pv for pv in pivots if pv[2] != 1]
    for s, first in enumerate(rest):
        for second in rest[s + 1:]:
            (ri, ci, x), (rk, ck, y) = first, second
            if y % x:
                g, u, w = _xgcd(x, y)
                row_log.append((ri, rk, u, w, -y // g, x // g))
                col_log.append((ci, ck, 1, 1, -w * y // g, u * x // g))
                first[2], second[2] = g, x // g * y
    pivots = units + rest
    rows = [pv[0] for pv in pivots]
    cols = [pv[1] for pv in pivots]
    done_rows, done_cols = set(rows), set(cols)
    return SmithForm(
        (m, n),
        tuple(pv[2] for pv in pivots) + (0,) * (min(m, n) - len(pivots)),
        tuple(rows + [i for i in range(m) if i not in done_rows]),
        tuple(cols + [j for j in range(n) if j not in done_cols]),
        tuple(row_log),
        tuple(col_log),
    )


def smith_normal_form(a):
    """Smith normal form with dense transforms.

    Returns (S, U, V) with U . a . V = S, U and V unimodular, S diagonal with
    nonnegative entries s_1 | s_2 | ... .  U and V are built by replaying the
    logs of `smith(a)` on unit vectors; the library itself only ever applies
    them to one vector and uses `smith` directly.
    """
    f = smith(a)
    m, n = f.shape
    s = [[0] * n for _ in range(m)]
    for t, d in enumerate(f.diagonal):
        s[t][t] = d
    u = [list(r) for r in zip(*(f.apply_u([int(i == j) for i in range(m)])
                                for j in range(m)))]
    v = [list(r) for r in zip(*(f.apply_v([int(i == t) for i in range(n)])
                                for t in range(n)))]
    return s, u, v


def smith_solve(f, b):
    """One integer solution of a . x = b, or None, from the SmithForm f of
    a: c = U . b must be divisible by the invariant factors and vanish past
    them, and then x = V . y with y = c / factors, padded with zeros."""
    c = f.apply_u(b)
    factors = f.factors
    if any(c[len(factors):]):
        return None
    y = []
    for ct, d in zip(c, factors):
        q, r = divmod(ct, d)
        if r:
            return None
        y.append(q)
    return tuple(f.apply_v(y))


# ---------------------------------------------------------------------------
# Exact inertia of a symmetric rational matrix


def inertia(a):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    A copy of a goes to `_inertia_in_place`, scaled to integers by
    `_scaled` with one common denominator, so it stays symmetric.  An
    asymmetric matrix raises ValueError.
    """
    if list(map(tuple, a)) != list(zip(*a)):
        raise ValueError("matrix not symmetric")
    n = len(a)
    flat, _ = _scaled(chain.from_iterable(a))
    return _inertia_in_place([flat[i * n:(i + 1) * n] for i in range(n)])


def _inertia_in_place(m):
    """(positive, negative, zero) eigenvalue counts of the symmetric integer
    matrix m, which the caller owns and which is consumed.

    Symmetric congruence elimination on integers: no entry is type-tested
    and no Fraction is made (`inertia` scales rational input).  No line is
    deleted: `rest` lists the indices of the lines not yet eliminated, in
    increasing order, and the active block is m restricted to them.  The
    pivot is the first nonzero diagonal entry d in that order; when all
    remaining diagonal entries vanish, the first nonzero off-diagonal
    entry b (row-major over `rest`) gives a 2x2 block [[0,b],[b,0]],
    which contributes one positive and one negative eigenvalue.  The
    active block is kept as |det| of the eliminated principal block times
    the rational Schur complement, a positive multiple, so the inertia is
    kept (Sylvester's law).  Each update divides exactly by the previous
    scale (Bareiss): every working entry is a minor of the input, within
    Hadamard's bound, and no gcd is taken.  The block is updated in place,
    as in `_echelon_in_place`: when the new scale (|d|, or |b| for a 2x2
    block) equals the previous one, only the rows and columns where the
    pivot lines are nonzero change; otherwise the whole block is rescaled.
    Eliminated lines keep the values they had when they left the block.
    `inertia` copies its input, and `structure.classify` passes the rows
    that `structure.local_systems` builds at every cell, after packing
    them into its records.
    """
    rest = list(range(len(m)))  # the lines not yet eliminated, in order
    pos = neg = zero = 0
    prev = 1
    while rest:
        for piv in rest:
            if m[piv][piv]:
                break
        else:
            piv = None
        if piv is not None:
            # (|d| A - sign(d) c c^T) / prev, with c the pivot line
            rest.remove(piv)
            c = m[piv]
            d = c[piv]
            if d > 0:
                pos += 1
                sign = 1
            else:
                neg += 1
                d = -d
                sign = -1
            if d == prev:
                nz = [i for i in rest if c[i]]
                for i in nz:
                    row, f = m[i], sign * c[i]
                    for j in nz:
                        row[j] -= f * c[j] // prev
            else:
                for i in rest:
                    row, f = m[i], sign * c[i]
                    for j in rest:
                        row[j] = (d * row[j] - f * c[j]) // prev
            prev = d
        else:
            off = next(((i, j) for t, i in enumerate(rest)
                        for j in rest[t + 1:] if m[i][j]), None)
            if off is None:
                zero += len(rest)
                break
            i0, j0 = off
            rest.remove(i0)
            rest.remove(j0)
            c, e = m[i0], m[j0]
            b = c[j0]
            pos += 1
            neg += 1
            # |b| (|b| A - sign(b) (c e^T + e c^T)) / prev^2, against the
            # block [[0,b],[b,0]], with sign(b) folded into c
            scale = abs(b)
            if b < 0:
                c = [-x for x in c]
            if scale == prev:
                nz = [i for i in rest if c[i] or e[i]]
                for i in nz:
                    row, ci, ei = m[i], c[i], e[i]
                    for j in nz:
                        row[j] -= (ci * e[j] + ei * c[j]) // prev
            else:
                q = prev * prev
                for i in rest:
                    row, ci, ei = m[i], c[i], e[i]
                    for j in rest:
                        row[j] = (scale * (scale * row[j] - ci * e[j]
                                           - ei * c[j]) // q)
            prev = scale * scale // prev
    return pos, neg, zero


# ---------------------------------------------------------------------------
# Strict feasibility via Fourier-Motzkin elimination


def _eliminate(ineqs, t):
    """Eliminate variable t from rows (coeffs, const) meaning sum a_i z_i >= c."""
    pos, negs, zero = [], [], []
    for coeffs, c in ineqs:
        if coeffs[t] > 0:
            pos.append((coeffs, c))
        elif coeffs[t] < 0:
            negs.append((coeffs, c))
        else:
            zero.append((coeffs, c))
    out = list(zero)
    for cp, dp in pos:
        for cn, dn in negs:
            # cp[t] * (from cn) + (-cn[t]) * (from cp)
            a, b = cp[t], -cn[t]
            coeffs = tuple(a * x + b * y for x, y in zip(cn, cp))
            out.append((coeffs, a * dn + b * dp))
    return out, pos, negs


def feasible_strict(equalities, positives, dim):
    """Find rational y with eq . y = 0 for all equalities and p . y > 0 for
    all positives, or None.

    Strictness is normalized to p . y >= 1 (scale invariance), solved by
    exact Fourier-Motzkin elimination with deterministic back-substitution.
    """
    # kernel_basis([], dim) is the identity, and it scales rational rows
    kern = kernel_basis(equalities, dim)
    if not kern:
        return None if positives else tuple(Fraction(0) for _ in range(dim))
    k = len(kern)
    ineqs = []
    for p in positives:
        coeffs = tuple(
            sum(p[j] * kern[i][j] for j in range(dim)) for i in range(k)
        )
        ineqs.append((coeffs, Fraction(1)))
    stack = []
    cur = ineqs
    for t in range(k):
        cur, pos, negs = _eliminate(cur, t)
        stack.append((t, pos, negs))
    for coeffs, c in cur:
        if c > 0:
            return None
    z = [Fraction(0)] * k
    for t, pos, negs in reversed(stack):
        lo = hi = None
        for coeffs, c in negs:
            # coeffs[t] < 0: z_t <= (c - rest) / coeffs[t] flipped
            rest = sum(coeffs[i] * z[i] for i in range(k) if i != t)
            bound = (c - rest) / coeffs[t]
            hi = bound if hi is None else min(hi, bound)
        for coeffs, c in pos:
            rest = sum(coeffs[i] * z[i] for i in range(k) if i != t)
            bound = (c - rest) / coeffs[t]
            lo = bound if lo is None else max(lo, bound)
        if lo is not None and hi is not None:
            z[t] = (lo + hi) / 2
        elif lo is not None:
            z[t] = lo + 1
        elif hi is not None:
            z[t] = hi - 1
        else:
            z[t] = Fraction(0)
    y = tuple(sum(z[i] * kern[i][j] for i in range(k)) for j in range(dim))
    for i, e in enumerate(equalities):
        if sum(Fraction(a) * b for a, b in zip(e, y)) != 0:
            raise InconsistentData("Fourier-Motzkin point violates equality "
                                   "row %d" % i)
    for i, p in enumerate(positives):
        if sum(Fraction(a) * b for a, b in zip(p, y)) <= 0:
            raise InconsistentData("Fourier-Motzkin point violates strict "
                                   "row %d" % i)
    return y


def primitive_integer(vec):
    """Scale a rational vector to a primitive integer vector (same ray); a
    zero vector stays zero."""
    row, _ = _scaled(vec)
    g = gcd(*row) or 1
    return tuple(x // g for x in row)
