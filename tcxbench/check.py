#!/usr/bin/env python3
"""Self-check of the generators and oracles at small sizes.

Usage: python3 tcxbench/check.py     (from the repository root)

Every generated input is loaded by tropcomplex and must meet its oracle:
closed forms on tori, graphs and embedded squares, sympy for the grids, and
the paper's identities (principal divisors meet balanced curves in degree
0; a witness phi satisfies div(phi) = D - D').  Then one deck of every
workload runs with its deadline; no answer may be wrong.  Exits 1 on the
first mismatch.
"""

from __future__ import annotations

import os
import random
import shutil
import sys

import run
import gen
from workloads import WORKLOADS, sympy_invariant_factors


def require(ok, what):
    if not ok:
        sys.exit("check failed: " + what)


def check_torus(tc, k, rng, lexicographic=False):
    t = gen.torus(k, None if lexicographic else rng)
    T = tc.load_fixture(t.fixture).structure()
    res = tc.classify(T)
    require(res.verdict == "tropical"
            and all(x.as_tuple() == (1, 3, 2) for _, x in res.inertias),
            "torus %d classify" % k)
    phi = [rng.randint(-3, 3) for _ in range(t.nv)]
    D = tc.div_vertex_function(T, phi)
    require(dict(D.ridge_part) == gen.torus_principal(t, phi), "torus %d div" % k)
    require(tc.weil_test(T, D) == (True, ()), "torus %d weil" % k)
    for cyc in t.straight_cycles():
        C = tc.Curve.on_edges({e: 1 for e in cyc})
        require(tc.is_balanced(T, C).balanced, "torus %d cycle balanced" % k)
        require(tc.intersect_degree(T, D, C).degree == 0, "torus %d P.C = 0" % k)
    g = tc.class_group(T)
    require((g.free_rank, g.invariant_factors) == (2 * k * k + 1, (k, k)),
            "torus %d class group" % k)
    data = gen.torus_degeneration(t, rng)
    fx = tc.load_fixture(data)
    S = tc.build_structure_from_degeneration(fx.complex, fx.degeneration)
    require(set(S.alpha.values()) == {1} and len(S.alpha) == 2 * len(t.edges),
            "torus %d degeneration alpha" % k)
    for dname, cname in fx.degeneration.claimed:
        v = tc.verify_theorem(S, fx.degeneration, dname, cname)
        require(v.match and v.computed == 0, "torus %d verify %s.%s" % (k, dname, cname))


def check_graphs(tc, rng):
    graphs = [gen.cycle_graph(m) for m in (3, 5, 8)]
    graphs += [gen.complete_graph(m) for m in (3, 4, 5)]
    grids = [gen.grid_graph(k) for k in (2, 3)]
    grid_want = {g.name: [f for f in facs if f > 1] for g, facs in zip(
        grids, sympy_invariant_factors([g.laplacian() for g in grids]))}
    for g in graphs + grids:
        T = tc.load_fixture(g.fixture).structure()
        cg = tc.class_group(T)
        m = g.nv
        want = {"C": (m,), "K": (m,) * (m - 2)}.get(g.name[0])
        want = want if want is not None else tuple(grid_want[g.name])
        require((cg.free_rank, cg.invariant_factors) == (1, want), "%s class group" % g.name)
        phi = [rng.randint(-3, 3) for _ in range(m)]
        D = tc.Divisor.on_ridges({0: 2})
        Dp = D + tc.Divisor.on_ridges(dict(enumerate(g.laplacian_apply(phi))))
        w = tc.lin_equiv_witness(T, D, Dp)
        diff = dict((D - Dp).ridge_part)
        require(w.phi is not None and
                g.laplacian_apply(list(w.phi)) == [diff.get(v, 0) for v in range(m)],
                "%s witness" % g.name)


def check_square(tc, k, rng):
    sq = gen.embedded_square(k, rng)
    E = tc.load_fixture(sq.fixture).embedded
    _, _, _, sols = tc.derive_structure(E)
    for r, sol in sols.items():
        require(gen.square_balancing_holds(sq, r, sol.coefficients, sol.d),
                "square %d balancing at %d" % (k, r))
    for dim, level in enumerate(E.bounded):
        for i in range(len(level)):
            require(tc.robustness_check(E, dim, i).robust, "square %d robust (%d,%d)"
                    % (k, dim, i))
    res = tc.push_forward_and_compare(E, f=sq.fixture["functions"]["f"])
    require(res.verdict == "pass", "square %d push-forward" % k)


def main():
    tc = run.import_program()
    rng = random.Random(0)
    for k in (3, 4):
        check_torus(tc, k, rng)
        check_torus(tc, k, rng, lexicographic=True)
    check_graphs(tc, rng)
    for k in (1, 2, 3):
        check_square(tc, k, rng)
    timer = run.Timer()
    for name, W in sorted(WORKLOADS.items()):
        workdir = os.path.join(run.HERE, ".work", "check-%s-%d" % (name, os.getpid()))
        os.makedirs(workdir)
        try:
            wl = W(0, workdir)
            wl.load(tc)
            records, _ = run.run_ops(wl, timer, decks=1)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        run.report_failures(name, records)
        wrong = [r for r in records if r[2] == "wrong"]
        require(not wrong, "%s: wrong answers %s" % (name, wrong))
        print("%s: one deck of %d operations, %d failed, none wrong"
              % (name, len(records), sum(r[2] != "ok" for r in records)))
    print("generators and oracles ok")


if __name__ == "__main__":
    main()
