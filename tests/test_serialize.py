"""JSON round-trips, fixture detection, canonical form."""

import gc
import json
import math
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcomplex import (Divisor, InputError, canonical_json,
                         div_vertex_function, lin_equiv_witness, load_fixture,
                         local_cartier_test, weil_test)
from tropcomplex.curves import BreakpointFunction, PointSum
import tropcomplex.serialize
from tropcomplex.serialize import (
    FORMAT,
    breakpoints_from_json,
    curve_from_json,
    curve_to_json,
    detect_kind,
    divisor_from_json,
    divisor_to_json,
    load_fixture_file,
    point_sum_to_json,
    rat,
)
from tests.conftest import FIXDIR, fixture_path


def test_rational_encoding():
    assert rat(Fraction(3, 4)) == [3, 4]
    assert rat(5) == [5, 1]
    # ints and Fractions are read directly; a bool, a float or a numeric
    # string still goes through Fraction, so every value is encoded as the
    # ints of its lowest terms, as canonical_json prints them
    for x in (0, -7, 10 ** 30, Fraction(-6, 4), Fraction(5), Fraction(0),
              True, False, 0.375, "-2/6"):
        f = Fraction(x)
        got = rat(x)
        assert got == [f.numerator, f.denominator], x
        assert [type(v) for v in got] == [int, int], x
        assert canonical_json(got) == canonical_json(
            [f.numerator, f.denominator])


def test_divisor_round_trip(tetrahedron):
    for d in tetrahedron.divisors.values():
        assert divisor_from_json(divisor_to_json(d)) == d
    bare = divisor_from_json([[0, -2], [5, 2]])
    assert bare == tetrahedron.divisors["E"]


def test_repeated_ridge_reads_as_its_last_entry_in_both_forms(tetrahedron):
    # a principal divisor whose ridge 0 is listed twice, a wrong
    # coefficient first: both forms read the last entry, and so do the
    # Cartier, Weil and equivalence tests
    T = tetrahedron.structure()
    X = T.complex
    P = div_vertex_function(T, [2, 0, -1, 0])
    assert P.coeff(0) == -3
    pairs = [[0, 5]] + [[r, c] for r, c in P.ridge_part]
    listed = divisor_from_json(pairs)
    objected = divisor_from_json({"ridge_part": pairs, "facet_pieces": []})
    assert listed == objected == P
    for D in (listed, objected):
        assert D.coeff(0) == -3
        assert weil_test(T, D) == weil_test(T, P) == (True, ())
        for q in range(X.counts[0]):
            assert local_cartier_test(T, D, (0, q)) \
                == local_cartier_test(T, P, (0, q))
        assert lin_equiv_witness(T, D, Divisor(())) \
            == lin_equiv_witness(T, P, Divisor(()))
        assert lin_equiv_witness(T, D, P).phi is not None
    # the first entry's coefficient makes a divisor that is not principal
    first = Divisor(((0, 5),) + P.ridge_part[1:])
    assert lin_equiv_witness(T, first, Divisor(())).phi is None


def test_curve_round_trip(tetrahedron):
    for c in tetrahedron.curves.values():
        assert curve_from_json(curve_to_json(c)) == c


def test_point_sum_serialization():
    ps = PointSum.of(
        {("v", 1): Fraction(2), ("e", 0, Fraction(1, 2)): Fraction(-1, 3)}
    )
    data = point_sum_to_json(ps)
    assert [["v", 1], 2, 1] in data
    assert [["e", 0, 1, 2], -1, 3] in data


def test_breakpoints_parsing():
    f = breakpoints_from_json([[0, [[0, 1, 0, 1], [1, 1, 2, 1]]]])
    assert isinstance(f, BreakpointFunction)
    assert dict(f.pieces)[0] == ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(2)))


def test_detect_kind():
    assert detect_kind({"N": 2, "vertices": []}) == "embedded"
    assert detect_kind({"mode": "strict"}) == "degeneration"
    assert detect_kind({"n": 1, "simplices": [1, 1]}) == "abstract"
    assert detect_kind({"kind": "abstract"}) == "abstract"


def test_format_gate():
    with pytest.raises(InputError):
        load_fixture({"format": "other-1", "kind": "abstract"})


def test_fixture_kinds(fx):
    assert fx["triangle"].kind == "abstract"
    assert fx["plane"].kind == "embedded"
    assert fx["tet-degen"].kind == "degeneration"
    with pytest.raises(InputError):
        fx["plane"].structure()


def test_canonical_json_is_sorted_and_indented():
    text = canonical_json({"b": 1, "a": [1, 2]})
    assert text == json.dumps({"a": [1, 2], "b": 1}, sort_keys=True, indent=2)


class Pair(NamedTuple):
    left: object
    right: object


# text with the characters json escapes: non-ASCII, lone surrogates,
# control characters, quotes and backslashes
TEXT = st.text(st.one_of(
    st.characters(),
    st.characters(min_codepoint=0xd800, max_codepoint=0xdfff,
                  exclude_categories=()),
    st.characters(max_codepoint=0x1f),
    st.sampled_from('"\\/\x7f\u2028')))
BIG = st.integers(-2**200, 2**200)
SCALARS = st.one_of(st.none(), st.booleans(), BIG, st.floats(),
                    st.sampled_from((math.nan, math.inf, -math.inf)), TEXT,
                    st.lists(st.one_of(st.booleans(), BIG)))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner), st.lists(inner).map(tuple), st.builds(Pair, inner, inner),
    st.dictionaries(TEXT, inner), st.dictionaries(BIG, inner)), max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_canonical_json_writes_the_bytes_of_json_dumps(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    Fraction(1, 2), {1, 2}, [0, {"a": Fraction(1)}], {"k": [{3}]},
    {(1, 2): 0}])
def test_canonical_json_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as ours:
        canonical_json(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, sort_keys=True, indent=2)
    assert str(ours.value) == str(theirs.value)


def test_fixture_files_declare_format():
    for name in ["triangle", "plane", "tet-degen"]:
        data = json.loads(fixture_path(name).read_text())
        assert data["format"] == FORMAT


def test_divisor_facet_piece_round_trip(tetrahedron):
    from tropcomplex import TwoPieceFunction, div_two_piece

    T = tetrahedron.structure()
    d = div_two_piece(T, TwoPieceFunction(0, (2, 0), Fraction(1, 2)))
    back = divisor_from_json(divisor_to_json(d))
    assert back == d


def test_make_fixtures_writes_the_committed_files(tmp_path, capsys):
    # fixtures/ holds exactly what scripts/make_fixtures.py writes, byte
    # for byte: no stale file, and none without a builder
    from scripts import make_fixtures

    make_fixtures.main(tmp_path)
    capsys.readouterr()
    written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    committed = {p.name: p.read_bytes() for p in FIXDIR.iterdir()}
    assert written.keys() == make_fixtures.FIXTURES.keys()
    assert written == committed


def test_a_file_load_leaves_the_collector_as_it_found_it(monkeypatch,
                                                         tmp_path):
    # the collector is off during the load, and the caller's setting comes
    # back after a load, after one that raises, and when it was off already
    during = []
    load = tropcomplex.serialize.load_fixture

    def recording(data):
        during.append(gc.isenabled())
        return load(data)
    monkeypatch.setattr(tropcomplex.serialize, "load_fixture", recording)
    bad_entry = tmp_path / "bad-entry.json"
    bad_entry.write_text(json.dumps({"format": FORMAT, "n": 0,
                                     "simplices": ["x"]}))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{")
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            load_fixture_file(fixture_path("plane"))
            assert gc.isenabled() is enabled
            for bad in (bad_entry, bad_json):
                with pytest.raises(InputError):
                    load_fixture_file(bad)
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False] * 4
