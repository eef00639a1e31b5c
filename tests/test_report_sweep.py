"""`scripts/report_sweep.py`, the tool that compares the reports of two
trees, run in-process over the shipped fixtures."""

import importlib.util
import json
import sys

from tests.conftest import FIXDIR, checked_report

SCRIPT = FIXDIR.parent / "scripts" / "report_sweep.py"


def test_every_sweep_call_gives_a_report(monkeypatch):
    # the script pins COLUMNS and puts src/ on sys.path when loaded
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("report_sweep", SCRIPT)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    codes = set()
    for path in sorted(FIXDIR.glob("*.json")):
        argvs = sweep.calls(path, json.loads(path.read_text()))
        assert argvs[0] == ["validate", str(path)]
        for argv in argvs:
            result = sweep.run(argv)
            checked_report(argv, result["exit"], result["stdout"])
            codes.add(result["exit"])
    assert codes == {0, 1, 2}
