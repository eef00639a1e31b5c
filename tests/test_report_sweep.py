"""`scripts/report_sweep.py`, the tool that compares the reports of two
trees, run in-process over the shipped fixtures."""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys

import pytest

from tcxbench import gen
from tests.conftest import FIXDIR, checked_report
from tests.test_degeneration import tetra_nonstrict_rows
from tropcomplex import build_complex

SCRIPT = FIXDIR.parent / "scripts" / "report_sweep.py"

# sha256 of every fixture call's exit code and stdout on the shipped
# fixtures, in sweep order, with the fixture directory written `fixtures/`.
# A change that changes a report updates this digest and names the change.
SHIPPED_REPORTS_SHA256 = (
    "71035550a7e9f0dc4f11321354e3d1311e2ac3b8f84eb2b49e691ea851b72161")

# sha256 of the classify, cartier, div --phi and intersect reports of the
# sweep on `skewed_torus()`, built as SHIPPED_REPORTS_SHA256 is, with the
# file written `torus.json`.
GENERATED_REPORTS_SHA256 = (
    "1455fb3aff2a1eb48f05bc6e9f4498af3ac9971166d49fbc6697fed30f1d111e")

# sha256 of every sweep call's report on `generated_families()`, in file
# and sweep order, built as SHIPPED_REPORTS_SHA256 is, with each file
# written by its name.
FAMILY_REPORTS_SHA256 = (
    "115f2566484048f19e6d240b8b3a302b6502ceb7d16c81e221499c53eb2d17eb")

# sha256 of the balance and intersect reports of the sweep on
# `skewed_torus()` and on `weak_failing(skewed_torus())`, built as
# SHIPPED_REPORTS_SHA256 is, with the files written `torus.json` and
# `weak.json`: certificates, germ dimensions, degrees and NotBalanced.
CURVE_REPORTS_SHA256 = (
    "c89a5131ef76b8a92ff7a3eb42dc6f930d206d1efc0a09db6420c37ea1f04f3c")


@pytest.fixture
def sweep(monkeypatch):
    # the script pins COLUMNS and puts src/ on sys.path when loaded
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("report_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixture_reports(sweep):
    """(argv, result) of every fixture call on the shipped fixtures."""
    for path in sorted(FIXDIR.glob("*.json")):
        argvs = sweep.calls(path, json.loads(path.read_text()))
        assert argvs[0] == ["validate", str(path)]
        for argv in argvs:
            yield argv, sweep.run(argv)


def test_every_sweep_call_gives_a_report(sweep):
    codes = set()
    for argv, result in fixture_reports(sweep):
        checked_report(argv, result["exit"], result["stdout"])
        codes.add(result["exit"])
    assert codes == {0, 1, 2}


def shipped_digest(sweep):
    """The sha256 that SHIPPED_REPORTS_SHA256 pins, of one sweep now.
    Parser-level and -h calls stay out: argparse's text changes across
    Python versions."""
    digest = hashlib.sha256()
    for _, result in fixture_reports(sweep):
        stdout = result["stdout"].replace(str(FIXDIR) + "/", "fixtures/")
        digest.update(json.dumps([result["exit"], stdout]).encode())
    return digest.hexdigest()


def test_shipped_reports_are_pinned(sweep):
    assert shipped_digest(sweep) == SHIPPED_REPORTS_SHA256


def answer(cli, argv):
    """(exit code, stdout, stderr) of one in-process tcx call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse answered: help or an error
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def test_one_process_answers_every_call_as_a_fresh_parser_does(
        sweep, monkeypatch):
    # the sweep's parser-level calls (rejections, -h, an unknown name)
    # spread among its fixture calls, all in one process with the parsers
    # cached, answer as with the cache cleared before each call
    cli = sweep.cli
    paths = sorted(FIXDIR.glob("*.json"))
    fixture_calls = [argv for path in paths
                     for argv in sweep.calls(path, json.loads(path.read_text()))]
    parser_calls = sweep.parser_calls(paths[0])
    step = len(fixture_calls) // len(parser_calls)
    order = []
    for i, argv in enumerate(parser_calls):
        order += fixture_calls[i * step:(i + 1) * step] + [argv]
    order += fixture_calls[len(parser_calls) * step:]
    assert len(order) == len(fixture_calls) + len(parser_calls)

    def fresh(argv):
        cli._parser.cache_clear()
        return answer(cli, argv)

    expected = [fresh(argv) for argv in order]
    cli._parser.cache_clear()
    assert [answer(cli, argv) for argv in order] == expected
    assert {code for code, _, _ in expected} == {0, 1, 2}
    assert cli._parser.cache_info().currsize == len(cli.SUBCOMMANDS) + 1
    # help is wrapped to the COLUMNS of the call that prints it
    for argv in (["-h"], ["cartier", "-h"]):
        wide = answer(cli, argv)
        monkeypatch.setenv("COLUMNS", "40")
        narrow = answer(cli, argv)
        assert narrow == fresh(argv)
        assert narrow[1] != wide[1]
        monkeypatch.setenv("COLUMNS", "80")
        assert answer(cli, argv) == wide
    # the shipped sweep twice over in one process
    assert shipped_digest(sweep) == shipped_digest(sweep) \
        == SHIPPED_REPORTS_SHA256


def skewed_torus():
    """The shuffled 5 x 5 torus of gen.torus with skewed alpha, three random
    ridge divisors, one principal divisor and two curves, as fixture data.
    Each edge's two slots still sum to 2, so the weak test passes and the
    local matrices decide the verdicts."""
    rng = random.Random(3)
    t = gen.torus(5, rng)
    alpha = []
    for e in range(len(t.edges)):
        a = rng.choice((-1, 0, 1, 1, 2, 3))
        alpha += [[e, 0, a], [e, 1, 2 - a]]
    divisors = {"D%d" % i: sorted([e, rng.randint(-2, 2)] for e in
                                  rng.sample(range(len(t.edges)), 4))
                for i in range(3)}
    phi = [rng.randint(-2, 2) for _ in range(t.nv)]
    divisors["P"] = sorted(map(list, gen.torus_principal(t, phi).items()))
    curves = {"L%d" % i: sorted(map(list, gen.torus_curve(t, rng).items()))
              for i in range(2)}
    return dict(t.fixture, alpha=alpha, divisors=divisors, curves=curves)


def test_generated_reports_are_pinned(sweep, tmp_path):
    # the local systems of a generated complex whose local matrices vary:
    # inertias other than (1, 3, 2), pivots other than +-1, and cartier
    # statuses of every kind
    data = skewed_torus()
    sums = {}
    for e, _, a in data["alpha"]:
        sums[e] = sums.get(e, 0) + a
    assert set(sums.values()) == {2}
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(data))
    digest = hashlib.sha256()
    inertias, statuses = set(), set()
    for argv in sweep.calls(path, data):
        if argv[0] not in ("classify", "cartier", "div", "intersect"):
            continue
        result = sweep.run(argv)
        report = checked_report(argv, result["exit"], result["stdout"])
        if argv[0] == "classify":
            inertias = {tuple(x) for _, x in report["result"]["inertia"]}
        elif argv[0] == "cartier":
            statuses.update(s for _, s in report["result"]["statuses"])
        stdout = result["stdout"].replace(str(path), "torus.json")
        digest.update(json.dumps([result["exit"], stdout]).encode())
    assert len(inertias) > 1
    assert statuses == {"cartier", "qcartier", "neither"}
    assert digest.hexdigest() == GENERATED_REPORTS_SHA256


def graph_fixture(g, rng):
    """A generated graph with a principal and a random divisor, a random
    and an all-ones curve, and a stored vertex function."""
    phi = [rng.randint(-2, 2) for _ in range(g.nv)]
    principal = [[v, c] for v, c in enumerate(g.laplacian_apply(phi)) if c]
    edges = range(len(g.edges))
    return dict(g.fixture,
                divisors={"P": principal,
                          "D": sorted([v, rng.choice((-2, -1, 1, 2))]
                                      for v in rng.sample(range(g.nv), 3))},
                curves={"L": sorted([e, rng.randint(1, 2)]
                                    for e in rng.sample(edges, 3)),
                        "All": [[e, 1] for e in edges]},
                functions={"f": [rng.randint(-3, 3) for _ in range(g.nv)]})


def generated_families():
    """(file name, fixture data) of the generated families beyond the
    shipped fixtures: three graphs (n = 1 balance, intersect and equiv),
    strict degeneration data on the 3 x 3 torus, non-strict data on the
    tetrahedron made of local-matrix diagonals, and the embedded 2 x 2
    square."""
    rng = random.Random(7)
    out = [(g.name + ".json", graph_fixture(g, rng))
           for g in (gen.cycle_graph(8), gen.complete_graph(5),
                     gen.grid_graph(3))]
    out.append(("degen3.json",
                gen.torus_degeneration(gen.torus(3, rng), rng)))
    tet = json.loads((FIXDIR / "tet-degen.json").read_text())
    X = build_complex(tet["complex"])
    out.append(("nonstrict.json", dict(
        tet, mode="nonstrict", self_intersections=tetra_nonstrict_rows(X))))
    out.append(("square2.json", gen.embedded_square(2, rng).fixture))
    return out


def test_generated_family_reports_are_pinned(sweep, tmp_path):
    digest = hashlib.sha256()
    codes = set()
    for name, data in generated_families():
        path = tmp_path / name
        path.write_text(json.dumps(data))
        for argv in sweep.calls(path, data):
            result = sweep.run(argv)
            checked_report(argv, result["exit"], result["stdout"])
            codes.add(result["exit"])
            stdout = result["stdout"].replace(str(path), name)
            digest.update(json.dumps([result["exit"], stdout]).encode())
    assert codes == {0, 1, 2}
    assert digest.hexdigest() == FAMILY_REPORTS_SHA256


def weak_failing(data):
    """A copy of fixture data with alpha raised by 1 at slot 0 of every
    third edge: those edges' slot sums miss their degree."""
    alpha = [[e, s, a + (s == 0 and e % 3 == 0)] for e, s, a in data["alpha"]]
    return dict(data, alpha=alpha)


def test_curve_reports_are_pinned(sweep, tmp_path):
    # balancing and intersection at support vertices whose alpha meets the
    # weak constraint, and at vertices whose alpha misses it
    data = skewed_torus()
    digest = hashlib.sha256()
    balanced = set()
    for name, fixture in (("torus.json", data),
                          ("weak.json", weak_failing(data))):
        path = tmp_path / name
        path.write_text(json.dumps(fixture))
        for argv in sweep.calls(path, fixture):
            if argv[0] not in ("balance", "intersect"):
                continue
            result = sweep.run(argv)
            report = checked_report(argv, result["exit"], result["stdout"])
            if argv[0] == "balance":
                balanced.add((name, report["result"]["balanced"]))
            stdout = result["stdout"].replace(str(path), name)
            digest.update(json.dumps([result["exit"], stdout]).encode())
    assert balanced == {("torus.json", True), ("torus.json", False),
                        ("weak.json", False)}
    assert digest.hexdigest() == CURVE_REPORTS_SHA256
