#!/usr/bin/env python3
"""Run every tcx subcommand over fixture files and print the reports as JSON.

    python3 scripts/report_sweep.py [FIXTURE.json ...] > sweep.json

Without arguments the shipped fixtures in fixtures/ are swept.  For each
file the calls are: validate, classify, classgroup, import-embedded and
degen-build; div with every stored function and three seeded --phi vectors;
cartier, pushforward -D and specialize with every stored divisor; balance
and specialize with every stored curve; pushforward -f with every stored
function; equiv with every ordered pair of divisors; intersect and verify
with every divisor and curve; robust at every bounded cell plus one past
each level.  Calls run in-process against the `src/` next to this script;
the output is a JSON list of {"argv", "exit", "stdout"} in call order, so
the sweeps of two trees can be compared with diff.  Paths are printed as
given (the shipped fixtures relative to the working directory), so run
each tree's sweep from its own root.

Before the fixture calls come the parser-level calls: no argument, -h, an
unknown subcommand, `<subcommand> -h` for every subcommand of
`cli.SUBCOMMANDS`, in the order `tcx -h` lists them, cartier
without -D, and div with an extra argument.  A call that argparse rejects
also records its stderr.  COLUMNS is pinned to 80 so that help text does
not depend on the terminal.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["COLUMNS"] = "80"

from tropcomplex import cli  # noqa: E402


def vertex_count(data):
    if "vertices" in data:
        return len(data["vertices"])
    complex_data = data.get("complex", data)
    return complex_data["simplices"][0]


def calls(path, data):
    """The argv lists swept for one fixture file."""
    f = str(path)
    divisors = sorted(data.get("divisors", {}))
    curves = sorted(data.get("curves", {}))
    functions = sorted(data.get("functions", {}))
    out = [["validate", f], ["classify", f], ["classgroup", f],
           ["import-embedded", f], ["degen-build", f]]
    rng = random.Random(path.name)
    nv = vertex_count(data)
    phis = functions + [",".join(str(rng.randint(-3, 3)) for _ in range(nv))
                        for _ in range(3)]
    out += [["div", f, "--phi=" + phi] for phi in phis]
    out += [["cartier", f, "-D", d] for d in divisors]
    out += [["equiv", f, "-D", d, "-E", e] for d in divisors for e in divisors]
    out += [["balance", f, "-C", c] for c in curves]
    out += [["intersect", f, "-D", d, "-C", c] for d in divisors for c in curves]
    out += [["verify", f, "-D", d, "-C", c] for d in divisors for c in curves]
    out += [["specialize", f, name] for name in divisors + curves]
    out += [["pushforward", f, "-f", name] for name in functions]
    out += [["pushforward", f, "-D", d] for d in divisors]
    levels = data.get("bounded_cells", [[]])
    out += [["robust", f, "--cell", "%d,%d" % (k, i)]
            for k, level in enumerate(levels) for i in range(len(level) + 1)]
    return out


def parser_calls(fixture):
    """The argv lists that argparse answers before any fixture is read."""
    f = str(fixture)
    return ([[], ["-h"], ["bogus", f]] + [[c, "-h"] for c in cli.SUBCOMMANDS]
            + [["cartier", f], ["div", f, "--phi=0,0,0,0", "extra"]])


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    rejected = False
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse answered: help or an error
            code = exc.code
            rejected = code != 0
    report = {"argv": argv, "exit": code, "stdout": stdout.getvalue()}
    if rejected:
        report["stderr"] = stderr.getvalue()
    return report


def main(args):
    paths = [pathlib.Path(p) for p in args] or [
        pathlib.Path(os.path.relpath(p))
        for p in sorted((ROOT / "fixtures").glob("*.json"))]
    reports = [run(argv) for argv in parser_calls(paths[0])]
    for path in paths:
        data = json.loads(path.read_text())
        reports += [run(argv) for argv in calls(path, data)]
    json.dump(reports, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
