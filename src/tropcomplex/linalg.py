"""Exact linear algebra over the rationals and the integers.

Everything here is deterministic and uses arbitrary-precision integers.
Rational elimination (rref, solve, kernel_basis, rank, inertia) runs
fraction-free on integer rows and divides each row, or the active block, by
the gcd of its entries after every step, so every working entry stays within
Hadamard's bound for a minor of the input; Fraction values are built only
for the results.  The Smith normal form works on int throughout.  No
floating point enters any verdict anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


_ZERO = Fraction(0)


def _integers(values):
    """The values as ints, scaled by the lcm of their denominators.

    Integer input is used as it is; anything else goes through Fraction.
    """
    values = list(values)
    if all(type(x) is int for x in values):
        return values
    fracs = [Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (den // x.denominator) for x in fracs]


def _primitive(row):
    """The row divided by the gcd of its entries (a zero row stays zero)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(rows, ncols=None):
    """Reduced row echelon form.

    Returns (reduced rows, pivot column list).  Pivots are chosen as the
    first nonzero entry when scanning columns left to right, which keeps the
    output (and everything derived from it) deterministic.

    Each row is held as a nonzero integer multiple of the rational row that
    Gauss-Jordan elimination would hold at the same step (row_i becomes
    p * row_i - row_i[c] * pivot_row, divided by its gcd), so the zero
    patterns, the pivots and the reduced rows are the same.
    """
    m = [_integers(row) for row in rows]
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        p = prow[c]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = _primitive([p * a - f * b for a, b in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [[Fraction(x, row[c]) if x else _ZERO for x in row]
            for row, c in zip(m, pivots)], pivots


def kernel_basis(rows, ncols):
    """Basis of {x : rows . x = 0} over Q.

    Free variables are set to 1 one at a time (increasing column order), so
    the basis is deterministic.
    """
    red, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -red[i][f]
        basis.append(tuple(vec))
    return basis


def solve(rows, rhs):
    """One rational solution of rows . x = rhs, or None if inconsistent.

    Free variables are set to 0 (deterministic particular solution).
    """
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    return tuple(x)


def rank(rows, ncols=None):
    red, pivots = rref(rows, ncols)
    return len(pivots)


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(a):
    """Smith normal form with transforms.

    Returns (S, U, V) with U . a . V = S, U and V unimodular, S diagonal with
    nonnegative entries s_1 | s_2 | ... .  Classical elimination; fine at the
    scale of the complexes handled here.
    """
    s = [[int(x) for x in row] for row in a]
    m = len(s)
    n = len(s[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in s:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # find a nonzero pivot in the remaining block
        pr = pc = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0:
                    pr, pc = i, j
                    break
            if pr is not None:
                break
        if pr is None:
            break
        swap_rows(t, pr)
        swap_cols(t, pc)
        while True:
            # clear column t
            again = False
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    qt, rm = divmod(s[i][t], s[t][t])
                    add_row(t, i, -qt)
                    if rm:
                        swap_rows(t, i)
                        again = True
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    qt, rm = divmod(s[t][j], s[t][t])
                    add_col(t, j, -qt)
                    if rm:
                        swap_cols(t, j)
                        again = True
            if not again:
                break
        if s[t][t] < 0:
            negate_row(t)
        # enforce divisibility against the remaining block
        d = s[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % d != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    return s, u, v


def invariant_factors(a):
    return smith_factors(smith_normal_form(a)[0])


def smith_factors(s):
    """The nonzero diagonal entries of a Smith form S, in order."""
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))
            if s[i][i] != 0]


def solve_integral(a, b):
    """One integer solution of a . x = b, or None.

    Decided via Smith normal form, so this answers solvability over the
    solution set, not just integrality of one rational solution.
    """
    return smith_solve(smith_normal_form(a), b)


def smith_solve(snf, b):
    """One integer solution of a . x = b, or None, from the Smith form
    (S, U, V) of a."""
    s, u, v = snf
    m = len(s)
    n = len(s[0]) if m else 0
    c = [sum(u[i][k] * int(b[k]) for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(m):
        d = s[i][i] if i < min(m, n) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            q, r = divmod(c[i], d)
            if r != 0:
                return None
            if i < n:
                y[i] = q
    return tuple(sum(v[i][k] * y[k] for k in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# Exact inertia of a symmetric rational matrix


def inertia(a):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    Symmetric congruence elimination on integers.  Rational input is scaled
    once by a common denominator, so it stays symmetric.  The active block
    is kept as a positive integer multiple of the rational Schur complement:
    a 1x1 pivot d scales it by |d|, and when all remaining diagonal entries
    vanish, a 2x2 block [[0,b],[b,0]] is eliminated, scales it by |b| and
    contributes one positive and one negative eigenvalue.  Positive scaling
    keeps the inertia (Sylvester's law), and the block is divided by the gcd
    of its entries after every step.
    """
    n = len(a)
    flat = _integers(a[i][j] for i in range(n) for j in range(n))
    m = [flat[i * n:(i + 1) * n] for i in range(n)]
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix not symmetric")
    pos = neg = zero = 0
    while m:
        k = len(m)
        piv = None
        for i in range(k):
            if m[i][i] != 0:
                piv = i
                break
        if piv is not None:
            d = m[piv][piv]
            if d > 0:
                pos += 1
            else:
                neg += 1
            scale, sign = abs(d), (1 if d > 0 else -1)
            col = [row[piv] for row in m]
            keep = [i for i in range(k) if i != piv]
            # |d| (A - a a^T / d), with a the pivot column
            m = [[scale * m[i][j] - sign * col[i] * col[j] for j in keep]
                 for i in keep]
        else:
            off = None
            for i in range(k):
                for j in range(i + 1, k):
                    if m[i][j] != 0:
                        off = (i, j)
                        break
                if off is not None:
                    break
            if off is None:
                zero += k
                break
            i0, j0 = off
            b = m[i0][j0]
            pos += 1
            neg += 1
            scale, sign = abs(b), (1 if b > 0 else -1)
            c = [row[i0] for row in m]
            e = [row[j0] for row in m]
            keep = [i for i in range(k) if i not in off]
            # |b| times the Schur complement against the block [[0,b],[b,0]]
            m = [[scale * m[i][j] - sign * (c[i] * e[j] + e[i] * c[j])
                  for j in keep] for i in keep]
        g = gcd(*(x for row in m for x in row))
        if g > 1:
            m = [[x // g for x in row] for row in m]
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
    eqs = [[Fraction(x) for x in e] for e in equalities]
    kern = kernel_basis(eqs, dim) if eqs else [
        tuple(Fraction(i == j) for j in range(dim)) for i in range(dim)
    ]
    if not kern:
        return None if positives else tuple(Fraction(0) for _ in range(dim))
    k = len(kern)
    ineqs = []
    for p in positives:
        coeffs = tuple(
            sum(Fraction(p[j]) * kern[i][j] for j in range(dim)) for i in range(k)
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
    for e in equalities:
        assert sum(Fraction(a) * b for a, b in zip(e, y)) == 0
    for p in positives:
        assert sum(Fraction(a) * b for a, b in zip(p, y)) > 0
    return y


def primitive_integer(vec):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    fracs = [Fraction(x) for x in vec]
    if all(x == 0 for x in fracs):
        return tuple(0 for _ in fracs)
    denom = 1
    for x in fracs:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)
