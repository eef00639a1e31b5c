"""The input boundary under fuzzing: a shipped fixture with one keyed
integer table mutated goes through every subcommand, and so do argument
strings for --cell, --phi and --function.  Each call ends in a JSON report
whose exit code agrees with its error and its verdicts."""

import contextlib
import io
import json
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tropcomplex.cli import main
from tests.conftest import ALL, checked_report, fixture_path

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


def run(argv):
    """The exit code and checked JSON report of one call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, checked_report(argv, code, out.getvalue())


@given(mutated_fixtures())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_keyed_table_gives_a_report_in_every_subcommand(
        tmp_path, case):
    name, original, data, path = case
    fixture = tmp_path / (name + ".json")
    fixture.write_text(json.dumps(data))
    for argv in argvs(str(fixture), original, path):
        run(argv)


# ASCII, Arabic-Indic and fullwidth digits, signs, underscores and spaces
ARGUMENT = st.text(alphabet="019-+_ ,\t\u0661\uff11", max_size=8)


def ascii_integers(text):
    """The integers of a comma-separated argument under the documented
    rule (ASCII digits, an optional minus, spaces around), or None."""
    parts = [p.strip() for p in text.split(",")]
    if all(re.fullmatch("-?[0-9]+", p) for p in parts):
        return [int(p) for p in parts]
    return None


@given(ARGUMENT)
@example("0,\u0661")
@example("0,1_0")
@example("0,+1")
@example(" 2 ,5")
@example("--")
@settings(max_examples=150, deadline=None)
def test_cell_argument_gives_a_report(text):
    code, report = run(["robust", str(fixture_path("plane")),
                        "--cell=" + text])
    cell = ascii_integers(text)
    if cell is None or len(cell) != 2:
        assert report["error"] == {
            "type": "InputError",
            "message": "cell must be given as 'dim,index', not %r" % (text,)}
    elif code != 2:
        assert report["result"]["cell"] == cell
    else:
        assert report["error"]["type"] == "IndexMismatch"


@given(st.sampled_from((("div", "triangle", "--phi=", 3),
                        ("pushforward", "plane", "--function=", 7))),
       ARGUMENT)
@example(("div", "triangle", "--phi=", 3), "1,\u0661,0")
@example(("pushforward", "plane", "--function=", 7), "0,0,0,0,0,0,+1")
@settings(max_examples=150, deadline=None)
def test_vertex_values_argument_gives_a_report(call, text):
    command, name, flag, count = call
    code, report = run([command, str(fixture_path(name)), flag + text])
    values = ascii_integers(text)
    if values is None:
        assert report["error"] == {
            "type": "UnknownName",
            "message": "no vertex function named %r" % (text,)}
    elif len(values) != count:
        assert report["error"] == {
            "type": "InputError",
            "message": "expected %d vertex values, got %d" % (count,
                                                             len(values))}
    else:
        assert "error" not in report
