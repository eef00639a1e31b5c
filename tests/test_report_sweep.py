"""`scripts/report_sweep.py`, the tool that compares the reports of two
trees, run in-process over the shipped fixtures."""

import hashlib
import importlib.util
import json
import sys

import pytest

from tests.conftest import FIXDIR, checked_report

SCRIPT = FIXDIR.parent / "scripts" / "report_sweep.py"

# sha256 of every fixture call's exit code and stdout on the shipped
# fixtures, in sweep order, with the fixture directory written `fixtures/`.
# A change that changes a report updates this digest and names the change.
SHIPPED_REPORTS_SHA256 = (
    "71035550a7e9f0dc4f11321354e3d1311e2ac3b8f84eb2b49e691ea851b72161")


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
