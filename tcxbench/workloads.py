"""The three workloads: inputs, resident set-up, decks of operations, oracles.

A workload writes its generated inputs to a work directory, names the files
it keeps resident (set-up parses and builds those), and deals operations in
decks.  Deck i is a seeded shuffle of a fixed mix, so every run sees the
same share of each operation kind and only its inputs and order depend on
the seed.  Generated inputs come in a few seeded draws per run that the
decks reuse; `Op.same` marks operations that repeat a call on the same
inputs, whose timings run.py pools.  Each operation is one call (or one
short chain of calls) into `tropcomplex`, made through module attributes at
call time so that the traced run's wrappers see it.  Its check compares the answer with an oracle
that does not use the code under test and returns None or a mismatch text.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(os.path.dirname(HERE), "fixtures")


@dataclass
class Op:
    name: str                       # operation kind
    label: str                      # the input it runs on
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    # Shared by every operation that makes the same call on the same
    # inputs, in any deck; None when the inputs are drawn per operation.
    same: object = None


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(data, str):
            fh.write(data)
        else:
            json.dump(data, fh, sort_keys=True)
    return path


def sympy_invariant_factors(matrices):
    """Nonzero invariant factors of each matrix, by sympy in a child."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "sympy_oracle.py")],
        input=json.dumps(matrices), capture_output=True, text=True,
        timeout=170, check=True)
    return json.loads(proc.stdout)


def _expect(label, got, want):
    return None if got == want else "%s: got %r, want %r" % (label, got, want)


def _first(*results):
    return next((r for r in results if r), None)


# Kernel of the local matrix A(C6) - I at a hexagonal torus vertex, in the
# cyclic order of its neighbours.  Its Smith form is diag(1, 1, 1, 1, 0, 0),
# so a local divisor is Cartier exactly when it is orthogonal to both.
_HEX_KERNEL = ((2, 1, -1, -2, -1, 1), (0, 1, 1, 0, -1, -1))


def hex_cartier_status(t: gen.Torus, coeffs, v):
    star = t.vertex_star(v)
    d = [coeffs.get(t.edge_index(v, w), 0) for w in star]
    ok = all(sum(a * b for a, b in zip(d, kv)) == 0 for kv in _HEX_KERNEL)
    return ("cartier" if ok else "neither"), star, d


def hex_germ_error(t: gen.Torus, verdict, v, star, d):
    """The germ slopes x must solve x[i-1] + x[i+1] - x[i] = d[i] around v,
    with integral slopes."""
    slope = {}
    for elem, x in zip(verdict.germ.elements, verdict.germ.slopes):
        a, b = t.edges[elem.coface[1]]
        slope[b if a == v else a] = x
    x = [slope.get(w) for w in star]
    if None in x or any(s.denominator != 1 for s in x):
        return "germ at %d does not cover the star integrally" % v
    for i in range(6):
        if x[i - 1] + x[(i + 1) % 6] - x[i] != d[i]:
            return "germ at %d fails the local equation %d" % (v, i)
    return None


# ---------------------------------------------------------------------------
# torus-session


class TorusSession:
    """The library as a session: a resident pool of tori, seeded queries."""

    name = "torus-session"
    deadline = 2.0
    sizes = (6, 8, 10)
    # Input draws per operation kind and torus; a deck picks one at random.
    draws = 5

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = random.Random("%s:%d" % (self.name, seed))
        self.tori = [gen.torus(k, rng) for k in self.sizes]
        self.resident = [_write(os.path.join(workdir, "torus%d.json" % t.k), t.fixture)
                         for t in self.tori]

    def load(self, tc):
        self.tc = tc
        self.structures = [tc.load_fixture_file(p).structure() for p in self.resident]

    def deck(self, i):
        rng = random.Random("%s:%d:deck%d" % (self.name, self.seed, i))
        ops = []
        for t, T in zip(self.tori, self.structures):
            ops.append(self._classify(t, T))
            for make in (self._weil, self._cartier, self._balanced, self._intersect):
                ops.append(self._drawn(make, t, T, rng.randrange(self.draws)))
        rng.shuffle(ops)
        return ops

    def _drawn(self, make, t, T, j):
        """make's operation on draw j of its inputs on torus t: a draw
        gives the same inputs in every deck, so its timings can be pooled."""
        op = make(t, T, random.Random("%s:%d:%s:%d:%d"
                                      % (self.name, self.seed, make.__name__, t.k, j)))
        op.same = (op.name, t.k, j)
        return op

    def _label(self, t):
        return "torus k=%d seed=%d" % (t.k, self.seed)

    def _classify(self, t, T):
        tc = self.tc

        def check(res):
            ine = [(qi, x.as_tuple()) for qi, x in res.inertias]
            return _first(_expect("verdict", res.verdict, "tropical"),
                          _expect("inertias", ine, [(q, (1, 3, 2)) for q in range(t.nv)]))
        return Op("classify", self._label(t), lambda: tc.classify(T), check,
                  same=("classify", t.k))

    def _weil(self, t, T, rng):
        tc = self.tc
        phi = [rng.randint(-3, 3) for _ in range(t.nv)]
        want = gen.torus_principal(t, phi)

        def call():
            D = tc.div_vertex_function(T, phi)
            return D, tc.weil_test(T, D)

        def check(res):
            D, weil = res
            return _first(_expect("div(phi)", dict(D.ridge_part), want),
                          _expect("weil", weil, (True, ())))
        return Op("div+weil", self._label(t), call, check)

    def _cartier(self, t, T, rng):
        tc = self.tc
        v = rng.randrange(t.nv)
        coeffs = gen.torus_principal(t, [rng.randint(-3, 3) for _ in range(t.nv)])
        mode = rng.randrange(3)
        if mode:
            r = (t.edge_index(v, rng.choice(t.vertex_star(v))) if mode == 1
                 else rng.randrange(len(t.edges)))
            coeffs[r] = coeffs.get(r, 0) + rng.choice((-2, -1, 1, 2))
        D = tc.Divisor.on_ridges(coeffs)
        status, star, d = hex_cartier_status(t, coeffs, v)

        def check(res):
            err = _expect("status at %d" % v, res.status, status)
            if err or status != "cartier":
                return err
            return hex_germ_error(t, res, v, star, d)
        return Op("cartier", self._label(t),
                  lambda: tc.local_cartier_test(T, D, (0, v)), check)

    def _balanced(self, t, T, rng):
        tc = self.tc
        C = tc.Curve.on_edges(gen.torus_curve(t, rng))
        return Op("balanced", self._label(t), lambda: tc.is_balanced(T, C),
                  lambda res: _expect("balanced", (res.balanced, res.certificate),
                                      (True, None)))

    def _intersect(self, t, T, rng):
        tc = self.tc
        phi = [rng.randint(-3, 3) for _ in range(t.nv)]
        want = gen.torus_principal(t, phi)
        C = tc.Curve.on_edges(gen.torus_curve(t, rng))

        def call():
            D = tc.div_vertex_function(T, phi)
            return D, tc.intersect_degree(T, D, C)

        def check(res):
            D, inter = res
            return _first(_expect("div(phi)", dict(D.ridge_part), want),
                          _expect("degree", inter.degree, 0))
        return Op("div+intersect", self._label(t), call, check)


# ---------------------------------------------------------------------------
# chip-smith


class ChipSmith:
    """Class groups and linear-equivalence witnesses on chip-firing
    matrices.  The blow-up instances never finish at the seed's Smith form
    and are cut by the deadline."""

    name = "chip-smith"
    deadline = 0.25
    graph_specs = (("cycle", 12), ("cycle", 24), ("complete", 6), ("complete", 8),
                   ("grid", 3), ("grid", 4), ("grid", 5))
    torus_sizes = (3, 4, 5, 6)
    # The instances whose Smith form blows up at the seed code, and the one
    # operation a deck runs on each; every other instance gets all of them.
    blowups = {"grid4": "class_group", "grid5": "equiv",
               "torus5": "class_group", "torus6": "equiv"}

    def __init__(self, seed, workdir):
        self.seed = seed
        make = {"cycle": gen.cycle_graph, "complete": gen.complete_graph,
                "grid": gen.grid_graph}
        self.graphs = [make[kind](m) for kind, m in self.graph_specs]
        # Tori in lexicographic order: the order the Smith form is known
        # to blow up on at k >= 5.
        self.tori = [gen.torus(k) for k in self.torus_sizes]
        self.resident = [_write(os.path.join(workdir, "%s.json" % g.name), g.fixture)
                         for g in self.graphs]
        self.resident += [_write(os.path.join(workdir, "torus%d.json" % t.k), t.fixture)
                          for t in self.tori]
        grids = [g for g in self.graphs if g.name.startswith("grid")]
        self.grid_factors = {g.name: [f for f in facs if f > 1] for g, facs in zip(
            grids, sympy_invariant_factors([g.laplacian() for g in grids]))}

    def load(self, tc):
        self.tc = tc
        self.structures = [tc.load_fixture_file(p).structure() for p in self.resident]

    def _class_group_want(self, inst):
        if isinstance(inst, gen.Torus):
            return (2 * inst.k * inst.k + 1, (inst.k, inst.k))
        m = inst.nv
        if inst.name.startswith("C"):
            return (1, (m,))
        if inst.name.startswith("K"):
            return (1, (m,) * (m - 2))
        return (1, tuple(self.grid_factors[inst.name]))

    def _name(self, inst):
        return inst.name if isinstance(inst, gen.Graph) else "torus%d" % inst.k

    def deck(self, i):
        rng = random.Random("%s:%d:deck%d" % (self.name, self.seed, i))
        ops = []
        for inst, T in zip(self.graphs + self.tori, self.structures):
            name = self._name(inst)
            if name in self.blowups:
                kinds = [self.blowups[name]]
            else:
                kinds = ["class_group", "equiv"]
                if isinstance(inst, gen.Graph):
                    kinds.append("torsion")
            for kind in kinds:
                if kind == "class_group":
                    ops.append(self._class_group(inst, T))
                elif kind == "equiv":
                    ops.append(self._equiv(inst, T, rng))
                else:
                    ops.append(self._torsion(inst, T, rng))
        rng.shuffle(ops)
        return ops

    def _class_group(self, inst, T):
        tc = self.tc
        want = self._class_group_want(inst)
        return Op("class_group", self._name(inst), lambda: tc.class_group(T),
                  lambda res: _expect("(free rank, torsion)",
                                      (res.free_rank, res.invariant_factors), want),
                  same=("class_group", self._name(inst)))

    def _div(self, inst, phi):
        if isinstance(inst, gen.Torus):
            return gen.torus_principal(inst, phi)
        return {v: c for v, c in enumerate(inst.laplacian_apply(phi)) if c}

    def _random_divisor(self, inst, rng):
        nr = len(inst.edges) if isinstance(inst, gen.Torus) else inst.nv
        return {r: rng.randint(-2, 2) for r in rng.sample(range(nr), min(nr, 6))}

    def _equiv(self, inst, T, rng):
        """D against D + div(phi): the witness phi' must satisfy
        div(phi') = D - D'."""
        tc = self.tc
        phi = [rng.randint(-3, 3) for _ in range(inst.nv)]
        base = self._random_divisor(inst, rng)
        D = tc.Divisor.on_ridges(base)
        Dp = D + tc.Divisor.on_ridges(self._div(inst, phi))
        want = dict((D - Dp).ridge_part)

        def check(res):
            if res.phi is None:
                return "no witness for a principal difference"
            return _first(_expect("div(witness)", self._div(inst, list(res.phi)), want),
                          _expect("min(witness)", min(res.phi), 0))
        return Op("equiv", self._name(inst), lambda: tc.lin_equiv_witness(T, D, Dp), check)

    def _torsion(self, g, T, rng):
        """D + v_a against D + v_b: on a bridgeless graph the difference is
        a nonzero torsion class, so no witness exists."""
        tc = self.tc
        a, b = rng.sample(range(g.nv), 2)
        base = tc.Divisor.on_ridges(self._random_divisor(g, rng))
        D = base + tc.Divisor.on_ridges({a: 1})
        Dp = base + tc.Divisor.on_ridges({b: 1})

        def check(res):
            cert = res.certificate or {}
            return _first(_expect("witness", res.phi, None),
                          _expect("kind", cert.get("kind"), "torsion"),
                          None if any(cert.get("torsion_residues", ()))
                          else "torsion residues are all zero")
        return Op("equiv-torsion", g.name, lambda: tc.lin_equiv_witness(T, D, Dp), check)


# ---------------------------------------------------------------------------
# cli-mix


def run_cli(cli, argv):
    """cli.main(argv) with stdout and stderr captured: (exit code, stdout)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def expect_report(code, fn=None, **fields):
    """Check of a CLI report: the exit code, then the given result fields,
    then fn(result) when given."""
    def check(got_code, report):
        res = report.get("result") or {}
        return _first(_expect("exit", got_code, code),
                      *(_expect(k, res.get(k), v) for k, v in fields.items()),
                      fn(res) if fn else None)
    return check


def tetrahedron_chip_matrix():
    """Chip-firing matrix of the shipped tetrahedron (alpha = 1): edge
    {a, b} in fixture order ab ac ad bc bd cd has +1 at the two other
    vertices and -1 at a and b."""
    rows = []
    for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        row = [1, 1, 1, 1]
        row[a] = row[b] = -1
        rows.append(row)
    return rows


class CliMix:
    """`tcx` subcommands called in-process over shipped, generated and
    malformed fixture files; every call re-parses and rebuilds."""

    name = "cli-mix"
    deadline = 2.0
    # Independent draws of the generated inputs; deck i uses draw i % draws.
    # The costliest calls (cartier and balance on the k = 6 torus) depend on
    # the labelling and the curve drawn, so with a single draw a run's tail
    # latency would be set by its seed rather than by the code.
    draws = 5

    def __init__(self, seed, workdir):
        self.seed = seed
        rng = random.Random("%s:%d" % (self.name, seed))
        self.resident = []
        self.drawn = [self._draw(rng, workdir, i) for i in range(self.draws)]
        first = self.drawn[0]
        t4 = first["tori"][4][0]
        bad = json.loads(json.dumps(t4.fixture))
        bad["faces"][rng.randrange(len(bad["faces"]))][3] = "x"
        self.files = {"torus4": first["files"]["torus4"],
                      "square3": first["files"]["square3"]}
        for key, data in (("bad-face", bad), ("array", [t4.fixture]),
                          ("bad-json", json.dumps(t4.fixture)[:-7])):
            self.files[key] = _write(os.path.join(workdir, key + ".json"), data)
        self.tet_factors = [f for f in sympy_invariant_factors(
            [tetrahedron_chip_matrix()])[0] if f > 1]

    def _draw(self, rng, workdir, i):
        """One draw of the generated inputs, written to files: tori k = 4
        and 6 with stored divisors, a curve and a function, strict
        degeneration data on the k = 5 torus, and the embedded k = 3
        square."""
        files = {}

        def put(key, data):
            files[key] = _write(os.path.join(workdir, "%s-%d.json" % (key, i)), data)

        # torus k -> (torus, its stored divisors)
        tori = {}
        for k in (4, 6):
            t = gen.torus(k, rng)
            phi = [rng.randint(-3, 3) for _ in range(t.nv)]
            divisors = {"P": gen.torus_principal(t, phi),
                        "E": {rng.randrange(len(t.edges)): 1}, "Zero": {}}
            data = dict(t.fixture)
            data["divisors"] = {n: sorted([e, c] for e, c in d.items())
                                for n, d in divisors.items()}
            data["curves"] = {"L": sorted([e, m] for e, m in gen.torus_curve(t, rng).items())}
            data["functions"] = {"phi": phi}
            put("torus%d" % k, data)
            tori[k] = (t, divisors)
        degen = gen.torus_degeneration(gen.torus(5, rng), rng)
        put("degen5", degen)
        square = gen.embedded_square(3, rng)
        put("square3", square.fixture)
        return {"index": i, "files": files, "tori": tori, "degen": degen, "square": square}

    def load(self, tc):
        self.tc = tc

    def _op(self, label, argv, check):
        cli = self.tc.cli

        def verify(res):
            code, out = res
            try:
                report = json.loads(out)
            except ValueError:
                return "exit %r with no JSON report" % (code,)
            return check(code, report)
        return Op(argv[0], label, lambda: run_cli(cli, argv), verify, same=tuple(argv))

    def deck(self, i):
        rng = random.Random("%s:%d:deck%d" % (self.name, self.seed, i))
        ops = (self._shipped() + self._generated(rng, self.drawn[i % self.draws])
               + self._malformed(rng))
        rng.shuffle(ops)
        return ops

    def _shipped(self):
        fx = {n: os.path.join(FIXTURES, n + ".json") for n in (
            "triangle", "triangle-tropical", "tetrahedron", "path", "loop",
            "plane", "twosheet", "tet-degen")}

        want = expect_report

        def path_witness(res):
            phi = res.get("phi")
            if phi is None:
                return "no witness for Da - Db on a tree"
            g = gen.graph("path", 3, [(0, 1), (1, 2)])
            return _expect("div(witness)", g.laplacian_apply(phi), [1, -1, 0])

        def import_plane(res):
            bal = res.get("balancing", [])
            return _first(_expect("ridge 0", bal[0][1] if bal else None, [1, 0]),
                          None if all(sum(c) == d for _, c, d in bal) else "sum c != d")

        S = "shipped "
        return [
            self._op(S + "triangle", ["validate", fx["triangle"]], want(0, simplices=[3, 3, 1])),
            self._op(S + "path", ["validate", fx["path"]], want(0, simplices=[3, 2])),
            self._op(S + "plane", ["validate", fx["plane"]], want(0, kind="embedded", n=2)),
            self._op(S + "triangle", ["classify", fx["triangle"]], want(1, verdict="weak-only")),
            self._op(S + "triangle-tropical", ["classify", fx["triangle-tropical"]],
                     want(0, verdict="tropical")),
            self._op(S + "tetrahedron", ["classify", fx["tetrahedron"]],
                     want(0, verdict="tropical")),
            self._op(S + "tetrahedron", ["div", fx["tetrahedron"], "--phi", "1,1,0,0"],
                     want(0, divisor={"ridge_part": [[0, -2], [5, 2]], "facet_pieces": []})),
            self._op(S + "tetrahedron", ["cartier", fx["tetrahedron"], "-D", "D2cd"],
                     want(0, weil={"passed": True, "failures": []})),
            self._op(S + "tetrahedron", ["classgroup", fx["tetrahedron"]],
                     want(0, invariant_factors=self.tet_factors)),
            self._op(S + "loop", ["classgroup", fx["loop"]],
                     want(0, free_rank=1, invariant_factors=[])),
            self._op(S + "tetrahedron", ["equiv", fx["tetrahedron"], "-D", "D2cd", "-E", "D2ab"],
                     want(0, phi=[1, 1, 0, 0])),
            self._op(S + "path", ["equiv", fx["path"], "-D", "Da", "-E", "Db"],
                     want(0, path_witness)),
            self._op(S + "tetrahedron", ["balance", fx["tetrahedron"], "-C", "C"],
                     want(0, balanced=True)),
            self._op(S + "tetrahedron", ["intersect", fx["tetrahedron"], "-D", "Dcd", "-C", "C"],
                     want(0, degree=[2, 1])),
            self._op(S + "plane", ["import-embedded", fx["plane"]], want(0, import_plane)),
            self._op(S + "plane", ["robust", fx["plane"], "--cell", "0,0"], want(0, robust=True)),
            self._op(S + "plane", ["robust", fx["plane"], "--cell", "0,1"], want(1, robust=False)),
            self._op(S + "plane", ["pushforward", fx["plane"], "-f", "f1"],
                     want(0, verdict="pass")),
            self._op(S + "twosheet", ["pushforward", fx["twosheet"], "-D", "Ddup"],
                     want(0, pushed=[[0, 1], [1, 2]])),
            self._op(S + "tet-degen", ["degen-build", fx["tet-degen"]],
                     want(0, lambda res: _expect(
                         "alpha values", {a[2] for a in res.get("alpha", [])}, {1}))),
            self._op(S + "tet-degen", ["specialize", fx["tet-degen"], "D"],
                     want(0, kind="divisor", verdict="pass")),
            self._op(S + "tet-degen", ["verify", fx["tet-degen"], "-D", "D", "-C", "C"],
                     want(0, computed=[2, 1], match=True)),
        ]

    def _generated(self, rng, drawn):
        f = drawn["files"]
        (t4, div4), (t6, div6) = drawn["tori"][4], drawn["tori"][6]
        sq = drawn["square"]

        def ridge_list(d):
            return sorted([e, c] for e, c in d.items())

        (r,) = div6["E"]
        ends = sorted(t6.edges[r])

        def witness_check(res):
            phi = res.get("phi")
            if phi is None:
                return "no witness for a principal divisor"
            return _expect("div(witness)", gen.torus_principal(t4, phi), div4["P"])

        def import_check(res):
            bad = [rd for rd, c, d in res.get("balancing", [])
                   if not gen.square_balancing_holds(sq, rd, c, d)]
            return _first(_expect("balanced ridges", len(res.get("balancing", [])),
                                  len(sq.edges)),
                          "balancing fails at ridges %s" % bad if bad else None)

        pushed_want = [[e, dict(sq.fixture["divisors"]["D"]).get(e, 0)]
                       for e in range(len(sq.edges))]
        nr = drawn["degen"]["complex"]["simplices"][1]
        cell = rng.choice(("0,%d" % rng.randrange(len(sq.points)),
                           "1,%d" % rng.randrange(len(sq.edges))))
        T6, T4, DG, SQ = ("%s, draw %d" % (what, drawn["index"]) for what in (
            "torus k=6", "torus k=4", "degeneration k=5", "square k=3"))
        want = expect_report
        return [
            self._op(T6, ["validate", f["torus6"]], want(0, lambda res: _expect(
                "link sizes", set(res.get("vertex_link_sizes", [])), {6}),
                simplices=[36, 108, 72])),
            self._op(T6, ["classify", f["torus6"]], want(
                0, verdict="tropical", inertia=[[q, [1, 3, 2]] for q in range(36)])),
            self._op(T6, ["div", f["torus6"], "--phi", "phi"], want(0, lambda res: _expect(
                "divisor", res.get("divisor", {}).get("ridge_part"), ridge_list(div6["P"])))),
            self._op(T6, ["cartier", f["torus6"], "-D", "P"], want(0, lambda res: _expect(
                "statuses", {s for _, s in res.get("statuses", [])}, {"cartier"}))),
            self._op(T6, ["cartier", f["torus6"], "-D", "E"],
                     want(1, weil={"passed": False, "failures": ends})),
            self._op(T6, ["balance", f["torus6"], "-C", "L"], want(0, balanced=True)),
            self._op(T6, ["intersect", f["torus6"], "-D", "P", "-C", "L"], want(0, degree=[0, 1])),
            self._op(T4, ["classgroup", f["torus4"]],
                     want(0, free_rank=33, invariant_factors=[4, 4])),
            self._op(T4, ["equiv", f["torus4"], "-D", "P", "-E", "Zero"], want(0, witness_check)),
            self._op(DG, ["degen-build", f["degen5"]],
                     want(0, alpha=[[r, s, 1] for r in range(nr) for s in range(2)])),
            self._op(DG, ["specialize", f["degen5"], "P%d" % rng.randrange(2)],
                     want(0, kind="divisor", verdict="pass")),
            self._op(DG, ["specialize", f["degen5"], "L%d" % rng.randrange(2)],
                     want(0, kind="curve", verdict="balanced")),
            self._op(DG, ["verify", f["degen5"], "-D", "P%d" % rng.randrange(2),
                          "-C", "L%d" % rng.randrange(2)],
                     want(0, computed=[0, 1], match=True)),
            self._op(SQ, ["import-embedded", f["square3"]], want(0, import_check)),
            self._op(SQ, ["robust", f["square3"], "--cell", cell], want(0, robust=True)),
            self._op(SQ, ["pushforward", f["square3"], "-f", "f"], want(0, verdict="pass")),
            self._op(SQ, ["pushforward", f["square3"], "-D", "D"], want(0, pushed=pushed_want)),
        ]

    def _malformed(self, rng):
        """Inputs the CLI contract answers with exit 2 and an error report.
        The first three raise tracebacks at the seed code."""
        f = self.files

        def rejected(code, report):
            return _first(_expect("exit", code, 2),
                          None if "error" in report else "report has no error")
        return [
            self._op("non-integer face", ["validate", f["bad-face"]], rejected),
            self._op("top-level array", ["classify", f["array"]], rejected),
            self._op("cell 9,9", ["robust", f["square3"], "--cell", "9,9"], rejected),
            self._op("truncated JSON", ["validate", f["bad-json"]], rejected),
            self._op("unknown divisor", ["cartier", f["torus4"], "-D", "Nope"], rejected),
        ]


WORKLOADS = {w.name: w for w in (TorusSession, ChipSmith, CliMix)}
