"""The input boundary under fuzzing: a shipped fixture with one keyed
integer table mutated goes through every subcommand, and each call ends in
a JSON report whose exit code agrees with its error and its verdicts."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropcomplex.cli import main
from tests.conftest import ALL, fixture_path

# the keyed tables at the top level of a fixture or of its "complex"
TABLES = (("alpha",), ("faces",), ("complex", "faces"),
          ("vertex_ridge_degrees",), ("self_intersections",),
          ("sheets", "counts"))


def lookup(data, path):
    for key in path:
        data = data.get(key) if isinstance(data, dict) else None
    return data


def keyed_tables(data):
    """Paths to the nonempty keyed integer tables of a fixture: lists of
    entries whose leading integers name a key and whose last integer is
    its value."""
    paths = list(TABLES)
    for kind in ("divisors", "curves"):
        for name, value in data.get(kind, {}).items():
            paths.append((kind, name, "ridge_part") if isinstance(value, dict)
                         else (kind, name))
    return [p for p in paths if lookup(data, p)]


@st.composite
def mutated_fixtures(draw):
    """(fixture name, original data, mutated data, table path)."""
    name = draw(st.sampled_from(ALL))
    text = fixture_path(name).read_text()
    original, data = json.loads(text), json.loads(text)
    path = draw(st.sampled_from(keyed_tables(data)))
    table = lookup(data, path)
    i = draw(st.integers(0, len(table) - 1))
    entry = list(table[i])
    how = draw(st.sampled_from(("repeat", "retype", "truncate")))
    if how == "repeat":
        entry[-1] += draw(st.integers(-3, 3).filter(bool))
        table.insert(draw(st.integers(0, len(table))), entry)
    elif how == "retype":
        entry[draw(st.integers(0, len(entry) - 1))] = draw(
            st.sampled_from((1.0, True, "1")))
        table[i] = entry
    else:
        table[i] = entry[:draw(st.integers(0, len(entry) - 1))]
    return name, original, data, path


def argvs(fixture, original, path):
    """One call of every subcommand; the divisor or curve whose table was
    mutated is the one named."""
    def first(kind):
        names = sorted(original.get(kind, {}))
        return path[1] if path[0] == kind else (names[0] if names else "X")

    f, d, c, fn = fixture, first("divisors"), first("curves"), first("functions")
    complex_data = original.get("complex", original)
    nv = len(original["vertices"]) if "vertices" in original \
        else complex_data["simplices"][0]
    return [["validate", f], ["classify", f], ["classgroup", f],
            ["div", f, "--phi=" + ",".join(["1"] + ["0"] * (nv - 1))],
            ["cartier", f, "-D", d], ["equiv", f, "-D", d, "-E", d],
            ["balance", f, "-C", c], ["intersect", f, "-D", d, "-C", c],
            ["import-embedded", f], ["robust", f, "--cell", "1,0"],
            ["pushforward", f, "-D", d], ["pushforward", f, "-f", fn],
            ["degen-build", f], ["specialize", f, d], ["specialize", f, c],
            ["verify", f, "-D", d, "-C", c]]


@given(mutated_fixtures())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_keyed_table_gives_a_report_in_every_subcommand(
        tmp_path, case):
    name, original, data, path = case
    fixture = tmp_path / (name + ".json")
    fixture.write_text(json.dumps(data))
    for argv in argvs(str(fixture), original, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        report = json.loads(out.getvalue())
        assert report["command"] == argv[0]
        assert code in (0, 1, 2), argv
        assert ("error" in report) == (code == 2), argv
        failed = any(status == "fail" for _, status, _ in report["verdicts"])
        assert failed == (code == 1), argv
