"""Command line driver.

Every subcommand reads one fixture, runs one slice of the library, and
prints a JSON report: {"format", "command", "inputs", "result", "verdicts"}
with verdict entries [check name, "pass" | "fail", detail].  Exit code 0
when all checks pass, 1 when any fails, 2 on invalid input.  Reports use
sorted keys and lowest-terms rationals so identical inputs give
byte-identical output.

`SUBCOMMANDS` is the one table of subcommands: each entry holds the
handler, its help text and its arguments after the fixture.  There is
one argument parser per subcommand per process; a fresh `tcx` process
builds only its own.  A call reads its fixture file once: the report's
sha256 and the parsed fixture come from the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import re
import sys
from typing import NamedTuple

from .errors import InputError, PreconditionFailed, UnknownName, brief
from .structure import classify
from .divisors import (class_group, div_two_piece, div_vertex_function,
                       lin_equiv_witness, local_cartier_test,
                       ridge_multiplicity)
from .curves import intersect_degree, is_balanced, restrict_divisor
from .embedded import derive_structure, push_forward_and_compare, robustness_check
from .degeneration import (build_structure_from_degeneration, specialize,
                           verify_theorem)
from .serialize import (FORMAT, alpha_to_json, breakpoints_from_json,
                        canonical_json, curve_to_json, divisor_to_json,
                        germ_to_json, load_fixture_file, point_sum_to_json,
                        rat, read_json, two_piece_from_json)


class Subcommand(NamedTuple):
    handler: object  # (fixture, args) -> (result, verdicts, extra inputs)
    help: str
    arguments: tuple  # (flags, add_argument keywords) after the fixture


class _Verbatim(argparse.Action):
    """Store an option's string as given.  argparse in Python 3.11 drops
    the value of `--flag=--` and hands the action an empty list instead."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, "--" if values == [] else values)


def arg(*flags, **kwargs):
    """One argument of a subcommand: add_argument's flags and keywords.
    An option keeps its string verbatim, '--' included."""
    if flags[0].startswith("-"):
        kwargs.setdefault("action", _Verbatim)
    return flags, kwargs


INTEGER = re.compile("-?[0-9]+")  # ASCII digits only, unlike str.isdigit
DIVISOR = arg("--divisor", "-D", required=True)
CURVE = arg("--curve", "-C", required=True)


def _read_input(path):
    """A file's bytes and its {"path", "sha256"} input record."""
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, {"path": str(path), "sha256": hashlib.sha256(raw).hexdigest()}


def _side_file(path, extra, key):
    """The JSON value of a side file, recorded under extra[key]."""
    raw, extra[key] = _read_input(path)
    return read_json(path, raw)


def _named(table, kind, name):
    """The fixture's divisor or curve (kind) called name."""
    if name not in table:
        raise UnknownName("no %s named %s in the fixture"
                          % (kind, brief(name)))
    return table[name]


def _embedded(fx, args):
    """The embedded complex of the subcommand's fixture."""
    if fx.embedded is None:
        raise InputError("%s needs an embedded fixture" % args.command)
    return fx.embedded


def _degeneration_structure(fx, args):
    """The structure that the subcommand's degeneration fixture determines."""
    if fx.degeneration is None:
        raise InputError("%s needs a degeneration fixture" % args.command)
    return build_structure_from_degeneration(fx.complex, fx.degeneration)


def _integers(spec_str):
    """The comma-separated integers of an argument, or None unless every
    part is one: ASCII digits with an optional leading minus, spaces around
    it allowed.  No other digits, no plus sign, no underscores."""
    parts = [p.strip() for p in spec_str.split(",")]
    if all(INTEGER.fullmatch(p) for p in parts):
        return [int(p) for p in parts]
    return None


def _values(spec_str, fx, count):
    """Comma-separated integers, or the name of a stored vertex function.
    Every part must be an integer, so an empty part makes a name."""
    values = _integers(spec_str)
    if values is None:
        if spec_str not in fx.functions:
            raise UnknownName("no vertex function named %s"
                              % brief(spec_str))
        values = list(fx.functions[spec_str])
    if len(values) != count:
        raise InputError(
            "expected %d vertex values, got %d" % (count, len(values))
        )
    return values


def _cell(spec_str):
    values = _integers(spec_str)
    if values is None or len(values) != 2:
        raise InputError("cell must be given as 'dim,index', not %s"
                         % brief(spec_str))
    return tuple(values)


# ---------------------------------------------------------------------------
# Subcommand handlers: (fixture, args) -> (result, verdicts, extra inputs)


def cmd_validate(fx, args):
    if fx.kind == "embedded":
        E = fx.embedded
        result = {
            "kind": "embedded",
            "N": E.N,
            "n": E.n,
            "bounded_cells": [len(level) for level in E.bounded],
            "unbounded_cells": len(E.unbounded),
        }
        return result, [["validate", "pass", "embedded complex well formed"]], {}
    X = fx.complex
    degrees = [X.degree((0, v)) for v in range(X.counts[0])]
    result = {
        "kind": fx.kind,
        "n": X.n,
        "simplices": list(X.counts),
        "regular": X.is_regular(),
        "vertex_link_sizes": degrees,
    }
    return result, [["validate", "pass", "complex well formed"]], {}


def cmd_classify(fx, args):
    T = fx.structure()
    res = classify(T)
    matrices = [[qi, [list(row) for row in m.matrix]] for qi, m in res.matrices]
    result = {
        "verdict": res.verdict,
        "violations": [[r, lhs, rhs] for r, lhs, rhs in res.weak.violations],
        "isolated_ridges": list(res.weak.isolated_ridges),
        "inertia": [[qi, list(ine.as_tuple())] for qi, ine in res.inertias],
        "local_matrices": matrices,
    }
    ok = res.verdict == "tropical"
    return result, [["classify", "pass" if ok else "fail", res.verdict]], {}


def cmd_div(fx, args):
    T = fx.structure()
    X = T.complex
    verdicts = []
    extra = {}
    if args.phi is not None:
        values = _values(args.phi, fx, X.counts[0])
        D = div_vertex_function(T, values)
        result = {"divisor": divisor_to_json(D), "phi": values}
        consistent = True
        if X.n >= 1:
            for r in range(X.counts[X.n - 1]):
                ridge = (X.n - 1, r)
                base = [values[v] for v in X.vertices_of(ridge)]
                opp = [values[X.opp_vertex(t)] for t in X.link0(ridge)]
                if ridge_multiplicity(T, r, base, opp) != D.coeff(r):
                    consistent = False
        verdicts.append(["div", "pass", "divisor computed"])
        verdicts.append(["ridge-multiplicity-consistency",
                        "pass" if consistent else "fail",
                         "linear local values reproduce the coefficients"])
    elif args.two_piece is not None:
        piece = two_piece_from_json(
            _side_file(args.two_piece, extra, "two_piece"))
        D = div_two_piece(T, piece)
        result = {"divisor": divisor_to_json(D)}
        verdicts.append(["div", "pass", "divisor computed"])
    else:
        raise InputError("div needs --phi or --two-piece")
    return result, verdicts, extra


def cmd_cartier(fx, args):
    T = fx.structure()
    X = T.complex
    D = _named(fx.divisors, "divisor", args.divisor)
    statuses = []
    germs = []
    if X.n >= 2:
        for qi in range(X.counts[X.n - 2]):
            verdict = local_cartier_test(T, D, (X.n - 2, qi))
            statuses.append([qi, verdict.status])
            if verdict.germ is not None:
                germs.append([qi, germ_to_json(verdict.germ)])
    # the Weil test is Q-Cartier at every cell: no cell is "neither"
    failures = [qi for qi, status in statuses if status == "neither"]
    passed = not failures
    result = {
        "statuses": statuses,
        "germs": germs,
        "weil": {"passed": passed, "failures": failures},
    }
    verdicts = [["weil", "pass" if passed else "fail",
                 "Q-Cartier at every codimension-two cell" if passed
                 else "fails at %s" % (failures,)]]
    return result, verdicts, {}


def cmd_classgroup(fx, args):
    T = fx.structure()
    pres = class_group(T)
    result = {
        "free_rank": pres.free_rank,
        "invariant_factors": list(pres.invariant_factors),
        "matrix": [[row.get(v, 0) for v in range(pres.smith.shape[1])]
                   for row in pres.matrix],
        "snf_diagonal": list(pres.smith.diagonal),
    }
    return result, [["classgroup", "pass", "presentation computed"]], {}


def cmd_equiv(fx, args):
    T = fx.structure()
    D = _named(fx.divisors, "divisor", args.divisor)
    Dp = _named(fx.divisors, "divisor", args.other)
    res = lin_equiv_witness(T, D, Dp)
    result = {
        "phi": list(res.phi) if res.phi is not None else None,
        "certificate": None,
    }
    if res.certificate is not None:
        cert = res.certificate
        result["certificate"] = {
            "kind": cert["kind"],
            "torsion_residues": cert["torsion_residues"],
            "free_residues": [rat(x) for x in cert["free_residues"]],
        }
    ok = res.phi is not None
    detail = "witness found" if ok else "no integral witness"
    return result, [["equivalent", "pass" if ok else "fail", detail]], {}


def cmd_balance(fx, args):
    T = fx.structure()
    C = _named(fx.curves, "curve", args.curve)
    res = is_balanced(T, C)
    result = {
        "balanced": res.balanced,
        "germ_dimensions": [list(pair) for pair in res.dims],
        "certificate": None,
    }
    if res.certificate is not None:
        v, germ = res.certificate
        result["certificate"] = [v, [rat(x) for x in germ]]
    ok = res.balanced
    return result, [["balanced", "pass" if ok else "fail",
                     "curve is balanced" if ok else "balancing fails"]], {}


def cmd_intersect(fx, args):
    T = fx.structure()
    D = _named(fx.divisors, "divisor", args.divisor)
    C = _named(fx.curves, "curve", args.curve)
    res = intersect_degree(T, D, C)
    result = {
        "point_sum": point_sum_to_json(res.point_sum),
        "degree": rat(res.degree),
    }
    extra = {}
    if args.breakpoints is not None:
        g = breakpoints_from_json(
            _side_file(args.breakpoints, extra, "breakpoints"))
        P = restrict_divisor(T, C, g)
        result["restricted"] = point_sum_to_json(P)
        result["restricted_degree"] = rat(P.degree)
    detail = "degree %d/%d" % (res.degree.numerator, res.degree.denominator)
    return result, [["intersect", "pass", detail]], extra


def cmd_import_embedded(fx, args):
    X, pi, T, solutions = derive_structure(_embedded(fx, args))
    result = {
        "complex": X.to_json(),
        "pi": [list(level) for level in pi],
        "alpha": alpha_to_json(T),
        "balancing": [
            [ridge, list(sol.coefficients), sol.d]
            for ridge, sol in sorted(solutions.items())
        ],
    }
    return result, [["import", "pass", "structure constants derived"]], {}


def cmd_robust(fx, args):
    E = _embedded(fx, args)
    k, idx = _cell(args.cell)
    res = robustness_check(E, k, idx)
    result = {
        "cell": [k, idx],
        "robust": res.robust,
        "certificate": list(res.certificate) if res.certificate is not None
        else None,
        "maximal_unbounded_cell": res.maximal_unbounded_cell,
    }
    detail = "cell (%d,%d)" % (k, idx)
    return result, [["robust", "pass" if res.robust else "fail", detail]], {}


def cmd_pushforward(fx, args):
    E = _embedded(fx, args)
    if args.function is not None:
        f = _values(args.function, fx, len(E.vertices))
        res = push_forward_and_compare(E, f=f)
        result = {
            "pushed": [[r, m] for r, m in sorted(res.pushed.items())],
            "oracle": [[r, m] for r, m in sorted(res.oracle.items())],
            "verdict": res.verdict,
        }
        ok = res.verdict == "pass"
        return result, [["pushforward-oracle", "pass" if ok else "fail",
                         "divisor push-forward matches embedded weights"]], {}
    if args.divisor is not None:
        D = _named(fx.divisors, "divisor", args.divisor)
        res = push_forward_and_compare(E, D=D)
        result = {"pushed": [[r, m] for r, m in sorted(res.pushed.items())]}
        return result, [["pushforward", "pass", "multiplicities summed"]], {}
    raise InputError("pushforward needs --function or --divisor")


def cmd_degen_build(fx, args):
    T = _degeneration_structure(fx, args)
    result = {"mode": fx.degeneration.mode, "alpha": alpha_to_json(T)}
    return result, [["consistency", "pass",
                     "%s data consistent" % fx.degeneration.mode]], {}


def cmd_specialize(fx, args):
    T = _degeneration_structure(fx, args)
    res = specialize(T, fx.degeneration, args.name)
    if res.kind == "divisor":
        result = {
            "kind": "divisor",
            "divisor": divisor_to_json(res.divisor),
            "verdict": res.verdict,
        }
        ok = res.verdict == "pass"
        verdicts = [["weil", "pass" if ok else "fail",
                     "specialized divisor is summable" if ok
                     else "specialized divisor fails the summable test"]]
    else:
        result = {
            "kind": "curve",
            "curve": curve_to_json(res.curve),
            "verdict": res.verdict,
        }
        detail = ("specialized curve is balanced" if res.verdict == "balanced"
                  else "specialized curve is not balanced (warning)")
        verdicts = [["specialize", "pass", detail]]
    return result, verdicts, {}


def cmd_verify(fx, args):
    T = _degeneration_structure(fx, args)
    try:
        res = verify_theorem(T, fx.degeneration, args.divisor, args.curve)
    except PreconditionFailed as exc:
        result = {"precondition": exc.verdict, "message": str(exc)}
        return result, [[exc.verdict, "fail", str(exc)]], {}
    result = {
        "divisor": res.divisor,
        "curve": res.curve,
        "computed": rat(res.computed),
        "claimed": rat(res.claimed),
        "match": res.match,
    }
    detail = "computed %d/%d, claimed %d/%d" % (
        res.computed.numerator, res.computed.denominator,
        res.claimed.numerator, res.claimed.denominator,
    )
    return result, [["theorem", "pass" if res.match else "fail", detail]], {}


# The subcommands, in the order `tcx -h` lists them.
SUBCOMMANDS = {
    "validate": Subcommand(
        cmd_validate, "check a fixture's complex is well formed", ()),
    "classify": Subcommand(
        cmd_classify, "weak test and local inertia classification", ()),
    "div": Subcommand(
        cmd_div, "divisor of a PL function",
        (arg("--phi", help="comma-separated vertex values, or a stored "
                           "function name"),
         arg("--two-piece", help="JSON file {facet, normal, offset}"))),
    "cartier": Subcommand(
        cmd_cartier, "local Cartier test and summable-divisor check", (DIVISOR,)),
    "classgroup": Subcommand(
        cmd_classgroup, "divisor class group presentation", ()),
    "equiv": Subcommand(
        cmd_equiv, "linear equivalence witness",
        (DIVISOR, arg("--other", "-E", required=True))),
    "balance": Subcommand(
        cmd_balance, "germ spaces and the balancing test", (CURVE,)),
    "intersect": Subcommand(
        cmd_intersect, "divisor-curve intersection product",
        (DIVISOR, CURVE,
         arg("--breakpoints", help="JSON breakpoint function on the "
                                   "curve; also reports its divisor"))),
    "import-embedded": Subcommand(
        cmd_import_embedded, "duplicate sheets and derive structure constants",
        ()),
    "robust": Subcommand(
        cmd_robust, "robustness at a bounded cell of an embedded complex",
        (arg("--cell", required=True, help="'dim,index'"),)),
    "pushforward": Subcommand(
        cmd_pushforward, "push a divisor or div(f) to bounded cells",
        (arg("--divisor", "-D"),
         arg("--function", "-f",
             help="vertex values (or stored name); compared against "
                  "the embedded weight oracle"))),
    "degen-build": Subcommand(
        cmd_degen_build, "structure constants from degeneration data", ()),
    "specialize": Subcommand(
        cmd_specialize, "specialize a named divisor or curve", (arg("name"),)),
    "verify": Subcommand(
        cmd_verify, "compare computed and claimed intersection numbers",
        (DIVISOR, CURVE)),
}


def build_parser(argv=()):
    """The `tcx` parser, with the one subparser that argv[0] names, or with
    all of them when it names none (no argument, -h, an unknown name), so
    that help and argument errors read as with every subparser.  Each is
    built on its first use in a process and reused after."""
    return _parser(argv[0] if argv and argv[0] in SUBCOMMANDS else None)


@functools.cache
def _parser(name):
    """The `tcx` parser with the subparser of name, or of every subcommand
    when name is None.  Parsing leaves a parser as it was, and help is
    wrapped to the terminal width of the call that prints it."""
    parser = argparse.ArgumentParser(
        prog="tcx",
        description="Tropical complexes: structure constants, divisors, "
                    "curves, and intersection numbers.",
    )
    # one subparser keeps the full usage line through its metavar
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if name is None else "{%s}" % ",".join(SUBCOMMANDS))
    for each, spec in SUBCOMMANDS.items():
        if name in (None, each):
            p = sub.add_parser(each, help=spec.help)
            p.add_argument("fixture", help="fixture file (JSON, format tcx-1)")
            for flags, kwargs in spec.arguments:
                p.add_argument(*flags, **kwargs)
    return parser


def main(argv=None):
    """Execute one subcommand (argv defaults to sys.argv[1:]); print the
    report; return the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    handler = SUBCOMMANDS[args.command].handler
    report = {"format": FORMAT, "command": args.command, "inputs": {}}
    try:
        raw, report["inputs"]["fixture"] = _read_input(args.fixture)
        fx = load_fixture_file(args.fixture, raw)
        result, verdicts, extra_inputs = handler(fx, args)
    except (InputError, OSError) as exc:
        report["result"] = {}
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        report["verdicts"] = []
        print(canonical_json(report))
        print("%s: error: %s" % (args.command, exc), file=sys.stderr)
        return 2
    report["inputs"].update(extra_inputs)
    report["result"] = result
    report["verdicts"] = verdicts
    print(canonical_json(report))
    summary = ", ".join("%s: %s" % (name, status) for name, status, _ in verdicts)
    print("%s: %s" % (args.command, summary or "ok"), file=sys.stderr)
    return 0 if all(status == "pass" for _, status, _ in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
