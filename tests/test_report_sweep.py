"""`scripts/report_sweep.py`, the tool that compares the reports of two
trees, run in-process over the shipped fixtures."""

import hashlib
import importlib.util
import json
import random
import sys

import pytest

from tcxbench import gen
from tests.conftest import FIXDIR, checked_report

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


def test_shipped_reports_are_pinned(sweep):
    # parser-level and -h calls stay out: argparse's text changes across
    # Python versions
    digest = hashlib.sha256()
    for _, result in fixture_reports(sweep):
        stdout = result["stdout"].replace(str(FIXDIR) + "/", "fixtures/")
        digest.update(json.dumps([result["exit"], stdout]).encode())
    assert digest.hexdigest() == SHIPPED_REPORTS_SHA256


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
