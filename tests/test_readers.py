"""The fixture-entry readers against per-entry reference readers.

`errors.int_table`, `errors.int_entries` and `delta._face_rows` test every
entry inline in one pass.  The first two read an entry that the inline
test stops at through `int_entry` and go on; `_face_rows` then reads
every entry one by one, to name the first bad one.  The references below read one entry at a time, as the
readers did before, and every reader must give the same value, or raise
the same exception type with the same message.
"""

import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.conftest import FIXDIR, checked_report
from tropcomplex.delta import _face_rows
from tropcomplex.errors import (DimensionExceeded, SchemaError, brief,
                                entry_list, int_entries, int_entry, int_table)


def reference_int_table(value, width, what):
    table = {}
    for entry in entry_list(value, what):
        if isinstance(entry, (list, tuple)) and len(entry) == width:
            for x in entry:
                if type(x) is not int:
                    break
            else:
                table[entry[0] if width == 2 else tuple(entry[:-1])] = entry[-1]
                continue
        raise SchemaError("%s entry %s is not %d integers"
                          % (what, brief(entry, ints=True), width))
    return table


def reference_int_entries(entries, size, what):
    return [int_entry(entry, size, what) for entry in entries]


def reference_face_rows(entries, n, counts):
    faces = {k: [[None] * (k + 1) for _ in range(counts[k])]
             for k in range(1, n + 1)}
    for entry in entries:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 4
                and type(entry[0]) is int and type(entry[1]) is int
                and type(entry[2]) is int and type(entry[3]) is int):
            raise SchemaError("face entry %s is not 4 integers"
                              % brief(entry, ints=True))
        k, i, slot, target = entry
        if not 1 <= k <= n:
            raise DimensionExceeded("face entry at dimension %d" % k)
        if not 0 <= i < counts[k]:
            raise DimensionExceeded("face entry for missing simplex (%d,%d)"
                                    % (k, i))
        if not 0 <= slot <= k:
            raise DimensionExceeded("face slot %d out of range" % slot)
        faces[k][i][slot] = target
    for k in range(1, n + 1):
        for i in range(counts[k]):
            if any(t is None for t in faces[k][i]):
                raise DimensionExceeded("missing face entries for (%d,%d)"
                                        % (k, i))
    return faces


def outcome(f, *args):
    """f(*args) as ("value", its value), or the type and message of what
    it raised."""
    try:
        return "value", f(*args)
    except Exception as exc:  # the references define what may be raised
        return type(exc), str(exc)


# JSON values a fixture entry may hold where an integer belongs (and a
# big integer, which is one)
SMALL = st.integers(-3, 6)
ODD = st.one_of(st.booleans(), st.floats(allow_nan=False),
                st.sampled_from((1.0, "1", "x", None, [1], 2**70)),
                st.lists(SMALL, max_size=3))


@st.composite
def entries(draw, good, width):
    """A list of `good` entries of `width` small integers (so repeated
    keys), with up to three edits at random places, most often one (a bad
    entry among good ones, which only the one-pass test can miss): an
    element made odd, an entry made a tuple, cut short or lengthened, a
    long run of integers with one odd element at the end, or a value that
    is no list."""
    table = draw(st.lists(st.lists(SMALL, min_size=width, max_size=width),
                          max_size=good))
    for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2, 3)))):
        edit = draw(st.sampled_from(("odd", "odd", "odd", "tuple", "short",
                                     "long", "long-odd", "not-a-list")))
        entry = draw(st.lists(SMALL, min_size=width, max_size=width))
        if edit == "odd":
            entry[draw(st.integers(0, width - 1))] = draw(ODD)
        elif edit == "tuple":
            entry = tuple(entry)
        elif edit == "short":
            entry = entry[:draw(st.integers(0, width - 1))]
        elif edit == "long":
            entry += draw(st.lists(SMALL, min_size=1, max_size=3))
        elif edit == "long-odd":
            entry = list(range(draw(st.integers(30, 200)))) + [draw(ODD)]
        else:
            entry = draw(ODD)
        table.insert(draw(st.integers(0, len(table))), entry)
    return table


# a tuple entry, read by int_entry, and then a bad entry, which is named;
# a bad entry and then a tuple, where the bad one is named
@example((2, [[1, 2], (3, 4), [5, "x"]]))
@example((2, [[1, 2], [5, 2.5], (3, 4), [6, "x"]]))
@example((3, [(1, 2, 3), [4, 5, True]]))
@example((3, [[4, None, 6], (1, 2, 3)]))
@given(st.sampled_from((2, 3)).flatmap(lambda width: st.tuples(
    st.just(width), st.one_of(entries(8, width), ODD))))
@settings(max_examples=400, deadline=None)
def test_int_table_matches_the_per_entry_reader(case):
    width, value = case
    assert outcome(int_table, value, width, "alpha") == outcome(
        reference_int_table, value, width, "alpha")


@example((3, [[1, 2, 3], (4, 5, 6), [7, "x", 9]]))
@example((None, [[1], [2, 2.5], (3,), ["x"]]))
@given(st.sampled_from((None, 1, 3)).flatmap(lambda size: st.tuples(
    st.just(size), entries(6, size or 2).map(
        lambda table: table + [[1] * len(table)]))))
@settings(max_examples=400, deadline=None)
def test_int_entries_match_the_per_entry_reader(case):
    # the last entry's length varies with the table's, so that size None
    # reads entries of several lengths
    size, value = case
    assert outcome(int_entries, value, size, "vertex") == outcome(
        reference_int_entries, value, size, "vertex")


@st.composite
def face_tables(draw):
    """(entries, n, counts): every face entry of a random complex shape in
    random order, then up to three edits: an entry dropped (a slot left
    empty), an entry repeated with another target (the later one wins), a
    field made odd, negative or out of range, in place or in an extra
    copy, an entry made a tuple, cut short or lengthened, or a long entry
    with one odd element."""
    n = draw(st.integers(1, 3))
    counts = [draw(st.integers(1, 3))] + [draw(st.integers(0, 3))
                                          for _ in range(n)]
    table = [[k, i, slot, draw(st.integers(0, 3))]
             for k in range(1, n + 1) for i in range(counts[k])
             for slot in range(k + 1)]
    table = draw(st.permutations(table))
    for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2, 3)))):
        edit = draw(st.sampled_from(("drop", "repeat", "field", "extra",
                                     "tuple", "short", "long", "long-odd",
                                     "odd", "count")))
        if edit == "count":  # more simplices than the entries can fill
            k = draw(st.integers(1, n)) if n else 0
            counts[k] += draw(st.integers(1, 3))
            continue
        if not table:
            break
        at = draw(st.integers(0, len(table) - 1))
        entry = list(table[at])
        if len(entry) != 4:
            continue
        if edit == "drop":
            del table[at]
        elif edit == "repeat":
            table.append(entry[:3] + [draw(st.integers(0, 3))])
        elif edit == "field":
            entry[draw(st.integers(0, 3))] = draw(st.one_of(
                st.integers(-2, 5), st.booleans()))
            table[at] = entry
        elif edit == "extra":
            entry[draw(st.integers(0, 2))] = draw(st.sampled_from(
                (-1, -2, 4, 5, True)))
            table.append(entry)
        elif edit == "tuple":
            table[at] = tuple(entry)
        elif edit == "short":
            table[at] = entry[:draw(st.integers(0, 3))]
        elif edit == "long":
            table[at] = entry + [0]
        elif edit == "long-odd":
            table[at] = list(range(40)) + [draw(ODD)]
        else:
            entry[draw(st.integers(0, 3))] = draw(ODD)
            table[at] = entry
    return table, n, counts


@given(face_tables())
@settings(max_examples=1000, deadline=None)
def test_face_rows_match_the_per_entry_reader(case):
    table, n, counts = case
    assert outcome(_face_rows, table, n, counts) == outcome(
        reference_face_rows, table, n, counts)


def test_a_cut_entry_names_its_first_bad_element():
    # cut at REPR_LIMIT characters, with the element the cut hid; a short
    # entry, or one of integers only, reads as it did
    long = list(range(5000)) + ["x", 2.5]
    assert brief(long, ints=True) == (
        repr(long)[:80] + "... (first bad element 'x' at index 5000)")
    assert brief(long) == repr(long)[:80] + "..."
    assert brief([1, "x"], ints=True) == "[1, 'x']"
    assert brief(list(range(100)), ints=True) == repr(list(range(100)))[:80] + "..."
    nested = list(range(40)) + [list(range(100))]
    assert brief(nested, ints=True) == "%s... (first bad element %s... at " \
        "index 40)" % (repr(nested)[:80], repr(list(range(100)))[:80])


# run in a child process whose address space is capped at 512 MB, so that
# a reader that allocates per counted simplex fails there and not here
CAPPED_VALIDATE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
sys.path.insert(0, sys.argv[1])
from tropcomplex import cli
sys.exit(cli.main(["validate", sys.argv[2]]))
"""


@pytest.mark.parametrize("dim, message", [
    (1, "missing face entries for (1,3)"),
    (0, "complex has 99999998 components"),
])
def test_counts_the_entries_cannot_fill_allocate_only_the_entries(
        tmp_path, dim, message):
    # the triangle with 10**8 edges or 10**8 vertices: the face reader and
    # the connectivity test allocate what the entries fill, and report as
    # they would at any count
    data = json.loads((FIXDIR / "triangle.json").read_text())
    data["simplices"][dim] = 10 ** 8
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    done = subprocess.run(
        [sys.executable, "-c", CAPPED_VALIDATE,
         str(FIXDIR.parent / "src"), str(path)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    report = checked_report(["validate"], done.returncode, done.stdout)
    assert report["error"]["message"] == message
