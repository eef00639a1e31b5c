"""Command-line interface: reports, determinism, exit codes, dispatch table."""

import hashlib
import json
import random
import sys

import pytest

import tropcomplex
from tcxbench import gen
from tropcomplex import cli
from tropcomplex.cli import SUBCOMMANDS, main
from tests.conftest import checked_report, fixture_path
from tests.test_degeneration import TRIANGLE_DEGREES


def invoke(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, json.loads(out), err


def test_report_schema(capsys):
    path = fixture_path("triangle")
    code, report, err = invoke(capsys, "validate", path)
    assert code == 0
    assert report["format"] == "tcx-1"
    assert report["command"] == "validate"
    assert report["inputs"]["fixture"]["path"] == str(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert report["inputs"]["fixture"]["sha256"] == digest
    assert all(v[1] == "pass" for v in report["verdicts"])
    assert err.startswith("validate:")


def test_output_is_canonical_and_deterministic(capsys):
    path = fixture_path("tetrahedron")
    outs = set()
    for _ in range(2):
        main(["classify", str(path)])
        out, _ = capsys.readouterr()
        outs.add(out)
    assert len(outs) == 1
    (text,) = outs
    parsed = json.loads(text)
    assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"


def test_classify_exit_codes(capsys):
    code, report, _ = invoke(capsys, "classify", fixture_path("triangle"))
    assert code == 1
    assert report["result"]["verdict"] == "weak-only"
    code, report, _ = invoke(
        capsys, "classify", fixture_path("triangle-tropical")
    )
    assert code == 0
    assert report["result"]["verdict"] == "tropical"


def test_validate_embedded_fixture(capsys):
    code, report, _ = invoke(capsys, "validate", fixture_path("plane"))
    assert code == 0
    assert report["result"]["kind"] == "embedded"
    assert report["result"]["N"] == 2
    assert report["result"]["bounded_cells"] == [7, 12, 6]


def test_div_with_phi(capsys):
    code, report, _ = invoke(
        capsys, "div", fixture_path("tetrahedron"), "--phi", "1,1,0,0"
    )
    assert code == 0
    assert report["result"]["divisor"]["ridge_part"] == [[0, -2], [5, 2]]
    checks = dict((v[0], v[1]) for v in report["verdicts"])
    assert checks.get("ridge-multiplicity-consistency") == "pass"


def test_div_with_stored_function(capsys):
    code, report, _ = invoke(
        capsys, "div", fixture_path("tetrahedron"), "--phi", "phi_ab_cd"
    )
    assert code == 0
    assert report["result"]["divisor"]["ridge_part"] == [[0, -2], [5, 2]]


def test_cartier_report(capsys):
    code, report, _ = invoke(
        capsys, "cartier", fixture_path("tetrahedron"), "-D", "Dcd"
    )
    assert code == 0
    statuses = {q: st for q, st in report["result"]["statuses"]}
    assert statuses == {0: "cartier", 1: "cartier", 2: "qcartier", 3: "qcartier"}
    germs = {q: g for q, g in report["result"]["germs"]}
    assert germs[2]["slopes"] == [[1, 2], [1, 2], [0, 1]]
    assert report["result"]["weil"]["passed"] is True


def test_equiv_exit_codes(capsys):
    code, report, _ = invoke(
        capsys, "equiv", fixture_path("tetrahedron"), "-D", "Dcd", "-E", "Dab"
    )
    assert code == 1
    assert report["result"]["certificate"]["kind"] == "torsion"
    code, report, _ = invoke(
        capsys, "equiv", fixture_path("tetrahedron"), "-D", "E", "-E", "Zero"
    )
    assert code == 0
    assert report["result"]["phi"] == [1, 1, 0, 0]


def test_intersect_command(capsys):
    code, report, _ = invoke(
        capsys,
        "intersect",
        fixture_path("tetrahedron"),
        "-D",
        "Dcd",
        "-C",
        "C",
    )
    assert code == 0
    assert report["result"]["degree"] == [2, 1]


def test_robust_exit_codes(capsys):
    code, report, _ = invoke(
        capsys, "robust", fixture_path("plane"), "--cell", "0,0"
    )
    assert code == 0
    assert report["result"]["robust"] is True
    code, report, _ = invoke(
        capsys, "robust", fixture_path("plane"), "--cell", "0,1"
    )
    assert code == 1
    assert report["result"]["robust"] is False


def test_import_embedded_command(capsys):
    code, report, _ = invoke(capsys, "import-embedded", fixture_path("plane"))
    assert code == 0
    alpha = {tuple(x[:2]): x[2] for x in report["result"]["alpha"]}
    assert alpha[(0, 0)] == 1 and alpha[(0, 1)] == 0
    assert alpha[(3, 0)] == -2 and alpha[(3, 1)] == 3


def test_pushforward_command(capsys):
    code, report, _ = invoke(
        capsys, "pushforward", fixture_path("plane"), "-f", "f1"
    )
    assert code == 0
    checks = dict((v[0], v[1]) for v in report["verdicts"])
    assert checks.get("pushforward-oracle") == "pass"
    assert report["result"]["pushed"] == report["result"]["oracle"]


def test_degen_build_and_specialize(capsys):
    code, report, _ = invoke(capsys, "degen-build", fixture_path("tet-degen"))
    assert code == 0
    alpha = {tuple(x[:2]): x[2] for x in report["result"]["alpha"]}
    assert all(v == 1 for v in alpha.values())
    code, report, _ = invoke(
        capsys, "specialize", fixture_path("tet-degen"), "D"
    )
    assert code == 0
    code, report, _ = invoke(
        capsys, "specialize", fixture_path("tet-degen"), "C"
    )
    assert code == 0


def test_verify_match_and_mismatch(capsys, tmp_path):
    code, report, _ = invoke(
        capsys, "verify", fixture_path("tet-degen"), "-D", "D", "-C", "C"
    )
    assert code == 0
    assert report["result"]["match"] is True

    data = json.loads(fixture_path("tet-degen").read_text())
    data["claimed"] = [["D", "C", 3, 1]]
    bad = tmp_path / "bad-claim.json"
    bad.write_text(json.dumps(data))
    code, report, _ = invoke(capsys, "verify", bad, "-D", "D", "-C", "C")
    assert code == 1
    assert report["result"]["match"] is False


def test_missing_file_is_input_error(capsys, tmp_path):
    code, report, err = invoke(
        capsys, "validate", tmp_path / "nonexistent.json"
    )
    assert code == 2
    assert report["format"] == "tcx-1"
    assert "error" in report
    assert "error" in err


def test_unknown_name_is_input_error(capsys):
    code, report, _ = invoke(
        capsys, "equiv", fixture_path("tetrahedron"), "-D", "nope", "-E", "Zero"
    )
    assert code == 2


def test_wrong_fixture_kind_is_input_error(capsys):
    code, _, _ = invoke(capsys, "robust", fixture_path("triangle"), "--cell", "0,0")
    assert code == 2
    code, _, _ = invoke(capsys, "classify", fixture_path("plane"))
    assert code == 2


def test_malformed_json_is_input_error(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, report, _ = invoke(capsys, "validate", bad)
    assert code == 2


def test_balance_command(capsys):
    code, report, _ = invoke(
        capsys, "balance", fixture_path("tetrahedron"), "-C", "C"
    )
    assert code == 0
    assert report["result"]["balanced"] is True


def test_classgroup_command(capsys):
    code, report, _ = invoke(capsys, "classgroup", fixture_path("tetrahedron"))
    assert code == 0
    assert report["result"]["free_rank"] == 3
    assert report["result"]["invariant_factors"] == [2, 2]


def test_classgroup_matrix_is_the_dense_chip_matrix(capsys, tmp_path):
    # tetrahedron, alpha = 1: edge {a, b} in fixture order ab ac ad bc bd cd
    # has +1 at the two other vertices and -1 at a and b
    want = []
    for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        row = [1, 1, 1, 1]
        row[a] = row[b] = -1
        want.append(row)
    _, report, _ = invoke(capsys, "classgroup", fixture_path("tetrahedron"))
    assert report["result"]["matrix"] == want
    # lexicographic 3 x 3 torus: column v is gen's closed-form div(e_v)
    t = gen.torus(3)
    columns = [gen.torus_principal(t, [int(u == v) for u in range(t.nv)])
               for v in range(t.nv)]
    path = tmp_path / "torus3.json"
    path.write_text(json.dumps(t.fixture))
    _, report, _ = invoke(capsys, "classgroup", path)
    assert report["result"]["matrix"] == [
        [col.get(e, 0) for col in columns] for e in range(len(t.edges))]


def test_non_integer_face_entry_is_schema_error(capsys, tmp_path):
    data = json.loads(fixture_path("triangle").read_text())
    data["faces"][0][3] = "x"
    bad = tmp_path / "bad-face.json"
    bad.write_text(json.dumps(data))
    code, report, _ = invoke(capsys, "validate", bad)
    assert code == 2
    assert report["error"]["type"] == "SchemaError"


def test_top_level_array_is_schema_error(capsys, tmp_path):
    data = json.loads(fixture_path("triangle").read_text())
    bad = tmp_path / "array.json"
    bad.write_text(json.dumps([data]))
    code, report, _ = invoke(capsys, "classify", bad)
    assert code == 2
    assert report["error"]["type"] == "SchemaError"


def test_robust_cell_out_of_range_is_index_mismatch(capsys):
    code, report, _ = invoke(
        capsys, "robust", fixture_path("plane"), "--cell", "9,9"
    )
    assert code == 2
    assert report["error"]["type"] == "IndexMismatch"


def test_missing_required_key_is_schema_error(capsys, tmp_path):
    data = json.loads(fixture_path("triangle").read_text())
    del data["n"]
    bad = tmp_path / "no-n.json"
    bad.write_text(json.dumps(data))
    code, report, _ = invoke(capsys, "validate", bad)
    assert code == 2
    assert report["error"]["type"] == "SchemaError"


@pytest.mark.parametrize("field, entry", [
    ("divisors", {"D": [[0, "x"]]}),
    ("alpha", [[0, 0]]),
    ("n", True),
    ("simplices", ["3", 3, 1]),
    ("simplices", [3, 2.9, 1]),
    ("faces", [[1, 0, 0, 1.6]]),
    ("alpha", [[0, 0, 2.7]]),
])
def test_malformed_integer_entry_is_schema_error(capsys, tmp_path, field, entry):
    # a JSON integer only: booleans, floats and numeric strings are
    # rejected, not converted
    data = json.loads(fixture_path("triangle").read_text())
    if field == "faces":
        entry = data["faces"][1:] + entry
    data[field] = entry
    bad = tmp_path / "bad-entry.json"
    bad.write_text(json.dumps(data))
    code, report, _ = invoke(capsys, "validate", bad)
    assert code == 2
    assert report["error"]["type"] == "SchemaError"


@pytest.mark.parametrize("edit, named", [
    (lambda d: d.update(N="two"), "'two'"),
    (lambda d: d["unbounded_cells"].__setitem__(0, 5), "entry 5"),
    (lambda d: d["bounded_cells"].__setitem__(1, [0, 1]), "entry 0"),
    (lambda d: d.pop("vertices"), "'vertices'"),
    (lambda d: d["vertices"].__setitem__(0, [0, "x", 1]), "'x'"),
    (lambda d: d.update(sheets=[]), "sheets"),
    (lambda d: d["unbounded_cells"][0].update(rays=[[1, "x"]]), "'x'"),
    (lambda d: d.update(N=2.9), "2.9"),
    (lambda d: d["vertices"].__setitem__(0, [0.4, 0, 1]), "0.4"),
], ids=["N-not-integer", "unbounded-cell-not-object", "level-not-lists",
        "no-vertices", "vertex-not-integers", "sheets-not-object",
        "ray-not-integers", "N-float", "vertex-float"])
def test_malformed_embedded_entry_is_schema_error(capsys, tmp_path, edit, named):
    data = json.loads(fixture_path("plane").read_text())
    edit(data)
    bad = tmp_path / "bad-plane.json"
    bad.write_text(json.dumps(data))
    code, report, _ = invoke(capsys, "validate", bad)
    assert code == 2
    assert report["error"]["type"] == "SchemaError"
    assert named in report["error"]["message"]


def test_equiv_on_zero_dimensional_complex(capsys, tmp_path):
    data = {"format": "tcx-1", "n": 0, "simplices": [1],
            "divisors": {"A": [], "B": []}}
    point = tmp_path / "point.json"
    point.write_text(json.dumps(data))
    code, report, _ = invoke(capsys, "equiv", point, "-D", "A", "-E", "B")
    assert code == 0
    assert report["result"]["phi"] == [0]


@pytest.mark.parametrize("field, value", [
    ("functions", {"f": [0, "x", 1]}),
    ("divisors", {"F": {"ridge_part": [], "facet_pieces": [[0, [1, "a"], 0, 1, 1]]}}),
])
def test_malformed_function_and_facet_piece_are_schema_errors(
        capsys, tmp_path, field, value):
    data = json.loads(fixture_path("triangle").read_text())
    data[field] = value
    bad = tmp_path / "bad-entry.json"
    bad.write_text(json.dumps(data))
    code, report, _ = invoke(capsys, "validate", bad)
    assert code == 2
    assert report["error"]["type"] == "SchemaError"


def test_robust_cell_not_integers_is_input_error(capsys):
    code, report, _ = invoke(
        capsys, "robust", fixture_path("plane"), "--cell", "a,b"
    )
    assert code == 2
    assert report["error"]["type"] == "InputError"


@pytest.mark.parametrize("piece", [
    {"facet": 0, "offset": [0, 1]},
    {"facet": 0, "normal": [1, "x"], "offset": [0, 1]},
])
def test_malformed_two_piece_file_is_schema_error(capsys, tmp_path, piece):
    bad = tmp_path / "piece.json"
    bad.write_text(json.dumps(piece))
    code, report, _ = invoke(capsys, "div", fixture_path("tetrahedron"),
                             "--two-piece", bad)
    assert code == 2
    assert report["error"]["type"] == "SchemaError"


def test_div_with_two_piece_file(capsys, tmp_path):
    good = tmp_path / "piece.json"
    good.write_text(json.dumps({"facet": 0, "normal": [2, 0], "offset": [0, 1]}))
    code, report, _ = invoke(capsys, "div", fixture_path("tetrahedron"),
                             "--two-piece", good)
    assert code == 0
    assert report["result"]["divisor"]["facet_pieces"] == [[0, [1, 0], 0, 1, 2]]


def test_malformed_breakpoints_file_is_schema_error(capsys, tmp_path):
    bad = tmp_path / "breakpoints.json"
    bad.write_text(json.dumps([[0, [[0, 1, "x", 1]]]]))
    code, report, _ = invoke(capsys, "intersect", fixture_path("tetrahedron"),
                             "-D", "Dab", "-C", "C", "--breakpoints", bad)
    assert code == 2
    assert report["error"]["type"] == "SchemaError"


def test_intersect_records_breakpoints_file(capsys, tmp_path):
    good = tmp_path / "breakpoints.json"
    good.write_text(json.dumps([[0, [[0, 1, 0, 1], [1, 2, 1, 1], [1, 1, 0, 1]]],
                                [1, [[0, 1, 0, 1], [1, 1, 0, 1]]]]))
    code, report, _ = invoke(capsys, "intersect", fixture_path("path"),
                             "-D", "Da", "-C", "C", "--breakpoints", good)
    assert code == 0
    assert report["inputs"]["breakpoints"] == {
        "path": str(good),
        "sha256": hashlib.sha256(good.read_bytes()).hexdigest()}
    assert report["result"]["restricted_degree"] == [0, 1]


@pytest.mark.parametrize("values", ["--1,0,0", "1,\u00b2,0", "1,,0,0",
                                    "1,0,0,"])
@pytest.mark.parametrize("argv", [("div", "path", "--phi"),
                                  ("pushforward", "plane", "-f")])
def test_values_not_ascii_integers_are_unknown_names(capsys, argv, values):
    # "--1" and a superscript digit pass str.isdigit after lstrip("-") but
    # are no integers, and neither is an empty part: the value is looked up
    # as a stored function name
    command, fixture, flag = argv
    code, report, _ = invoke(capsys, command, fixture_path(fixture),
                             "%s=%s" % (flag, values))
    assert code == 2
    assert report["error"] == {
        "type": "UnknownName",
        "message": "no vertex function named %r" % (values,)}


@pytest.mark.parametrize("fixture, key, entry, argv", [
    ("tetrahedron", "curves", [99, 1], ["balance", "-C", "X"]),
    ("tetrahedron", "curves", [99, 1], ["intersect", "-D", "Dcd", "-C", "X"]),
    ("tetrahedron", "curves", [-1, 1], ["balance", "-C", "X"]),
    ("tetrahedron", "divisors", [99, 1], ["cartier", "-D", "X"]),
    ("tetrahedron", "divisors", [-1, 1], ["cartier", "-D", "X"]),
    ("tet-degen", "curves", [6, 1], ["specialize", "X"]),
    ("tet-degen", "divisors", [-1, 1], ["specialize", "X"]),
])
def test_out_of_range_curve_edge_or_divisor_ridge_is_index_mismatch(
        capsys, tmp_path, fixture, key, entry, argv):
    data = json.loads(fixture_path(fixture).read_text())
    data[key]["X"] = [entry]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, report, _ = invoke(capsys, argv[0], bad, *argv[1:])
    assert code == 2
    assert report["error"]["type"] == "IndexMismatch"
    assert "entry %s" % entry in report["error"]["message"]


@pytest.mark.parametrize("entry, problem", [
    ([0, 7, 1], "slot 7 out of range (2 slots)"),
    ([99, 0, 1], "ridge 99 out of range (3 ridges)"),
    ([-1, 0, 5], "ridge -1 out of range (3 ridges)"),
])
def test_out_of_range_alpha_entry_is_index_mismatch(capsys, tmp_path, entry,
                                                    problem):
    data = json.loads(fixture_path("triangle").read_text())
    data["alpha"].append(entry)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, report, _ = invoke(capsys, "classify", bad)
    assert code == 2
    assert report["error"]["type"] == "IndexMismatch"
    assert report["error"]["message"] == "alpha entry %s: %s" % (entry,
                                                                  problem)


def test_alpha_entry_at_n_0_is_index_mismatch(capsys, tmp_path):
    # a point has no ridges, so every alpha entry names none
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"format": "tcx-1", "n": 0, "simplices": [1],
                                 "alpha": [[0, 0, 1]]}))
    code, report, _ = invoke(capsys, "validate", point)
    assert code == 2
    assert report["error"] == {
        "type": "IndexMismatch",
        "message": "alpha entry [0, 0, 1]: ridge 0 out of range (0 ridges)"}


def test_short_alpha_table_is_missing_alpha_in_every_subcommand(capsys,
                                                               tmp_path):
    # the structure is made when the fixture loads, so validate and
    # div --two-piece, which read no alpha, refuse the table too
    data = json.loads(fixture_path("triangle").read_text())
    data["alpha"].remove([2, 1, 1])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    piece = tmp_path / "piece.json"
    piece.write_text(json.dumps({"facet": 0, "normal": [2, 0],
                                 "offset": [0, 1]}))
    for argv in (["validate"], ["classify"], ["div", "--phi", "1,0,0"],
                 ["div", "--two-piece", piece], ["cartier", "-D", "Duv"],
                 ["classgroup"], ["equiv", "-D", "Duv", "-E", "Dvw"],
                 ["balance", "-C", "C1"], ["intersect", "-D", "P1", "-C", "C1"]):
        code, report, _ = invoke(capsys, argv[0], bad, *argv[1:])
        assert code == 2, argv
        assert report["error"] == {
            "type": "MissingAlpha",
            "message": "no alpha for ridge 2 slot 1"}, argv


def test_negative_two_piece_facet_is_index_mismatch(capsys, tmp_path):
    bad = tmp_path / "piece.json"
    bad.write_text(json.dumps({"facet": -1, "normal": [1, 0],
                               "offset": [1, 2]}))
    code, report, _ = invoke(capsys, "div", fixture_path("triangle"),
                             "--two-piece", bad)
    assert code == 2
    assert report["error"]["type"] == "IndexMismatch"
    assert "facet -1" in report["error"]["message"]


def test_negative_embedded_dimension_is_index_mismatch(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "tcx-1", "N": -1, "vertices": [[]]}))
    code, report, _ = invoke(capsys, "validate", bad)
    assert code == 2
    assert report["error"] == {"type": "IndexMismatch",
                               "message": "N must be nonnegative, not -1"}


@pytest.mark.parametrize("cell", ["0,\u0661", "0,1_0", "0,+1", "\uff10,1",
                                  "0,1,2", "0", "0,"])
def test_cell_takes_ascii_integers_only(capsys, cell):
    # the integer rule of --phi: ASCII digits and an optional minus sign
    code, report, _ = invoke(capsys, "robust", fixture_path("plane"),
                             "--cell=" + cell)
    assert code == 2
    assert report["error"] == {
        "type": "InputError",
        "message": "cell must be given as 'dim,index', not %r" % (cell,)}


@pytest.mark.parametrize("piece, problem", [
    ([99, [1, 0], 0, 1, 1], "facet 99 out of range (4 facets)"),
    ([4, [1, 0], 0, 1, 1], "facet 4 out of range (4 facets)"),
    ([-1, [1, 0], 0, 1, 1], "facet -1 out of range (4 facets)"),
    ([0, [1], 0, 1, 1], "normal has 1 entries, not n = 2"),
    ([0, [1, 0, 0], 0, 1, 1], "normal has 3 entries, not n = 2"),
])
def test_out_of_range_facet_piece_is_index_mismatch(capsys, tmp_path, piece,
                                                    problem):
    bad = edited_tetrahedron(tmp_path, "divisors", {
        "X": {"ridge_part": [], "facet_pieces": [piece]}})
    code, report, _ = invoke(capsys, "cartier", bad, "-D", "X")
    assert code == 2
    assert report["error"]["type"] == "IndexMismatch"
    assert report["error"]["message"] == "divisor 'X' facet piece %s: %s" % (
        piece, problem)


@pytest.mark.parametrize("key, entry", [
    ("face_sheet_maps", [9, 9, 0, [0]]),
    ("face_sheet_maps", [1, 0, 7, [0, 0]]),
    ("counts", [-1, 0, 2]),
], ids=["map-of-no-cell", "map-slot-past-k", "count-of-negative-level"])
@pytest.mark.parametrize("command", ["import-embedded", "validate"])
def test_sheet_entry_naming_no_cell_is_inconsistent_sheets(
        capsys, tmp_path, command, key, entry):
    data = json.loads(fixture_path("twosheet").read_text())
    data["sheets"][key].append(entry)
    bad = tmp_path / "bad-sheets.json"
    bad.write_text(json.dumps(data))
    code, report, _ = invoke(capsys, command, bad)
    assert code == 2
    assert report["error"]["type"] == "InconsistentSheets"
    assert "entry %s" % entry in report["error"]["message"]


@pytest.mark.parametrize("entry, problem", [
    ([1, 0, 0, [0, 0, 0]], "sheet map of cell (1,0) slot 0 has length 3"),
    ([1, 0, 0, [0, 1]],
     "cell (1,0) slot 0 sends sheet 1 to missing sheet 1 of its face"),
    ([1, 0, 1, [-1, 0]],
     "cell (1,0) slot 1 sends sheet 0 to missing sheet -1 of its face"),
], ids=["wrong-length", "missing-sheet", "negative-sheet"])
@pytest.mark.parametrize("argv", [
    ["validate"], ["robust", "--cell", "0,0"], ["import-embedded"],
    ["pushforward", "-D", "Ddup"]])
def test_bad_face_sheet_map_is_inconsistent_sheets_in_every_subcommand(
        capsys, tmp_path, entry, problem, argv):
    data = json.loads(fixture_path("twosheet").read_text())
    data["sheets"]["face_sheet_maps"].append(entry)
    bad = tmp_path / "bad-map.json"
    bad.write_text(json.dumps(data))
    code, report, _ = invoke(capsys, argv[0], bad, *argv[1:])
    assert code == 2
    assert report["error"] == {"type": "InconsistentSheets",
                               "message": problem}


@pytest.mark.parametrize("divisor, named", [
    ([[99, 1]], "entry [99, 1]: ridge 99 out of range (2 duplicated ridges)"),
    ([[2, 1]], "entry [2, 1]: ridge 2 out of range (2 duplicated ridges)"),
    ({"facet_pieces": [[0, [1], 0, 1, 1]]}, "ridge-supported"),
])
def test_pushforward_divisor_off_the_duplicated_ridges_is_index_mismatch(
        capsys, tmp_path, divisor, named):
    data = json.loads(fixture_path("twosheet").read_text())
    data["divisors"]["Dbad"] = divisor
    bad = tmp_path / "bad-divisor.json"
    bad.write_text(json.dumps(data))
    code, report, _ = invoke(capsys, "pushforward", bad, "-D", "Dbad")
    assert code == 2
    assert report["error"]["type"] == "IndexMismatch"
    assert named in report["error"]["message"]


def test_side_file_with_invalid_json_is_input_error(capsys, tmp_path):
    bad = tmp_path / "piece.json"
    bad.write_text("{not json")
    code, report, _ = invoke(capsys, "div", fixture_path("tetrahedron"),
                             "--two-piece", bad)
    assert code == 2
    assert report["error"]["type"] == "InputError"


def torus_fixture(tmp_path, k):
    """The unit-alpha k x k torus of gen.torus with one ridge divisor, as a
    fixture file, and its complex."""
    data = dict(gen.torus(k, random.Random(k)).fixture,
                divisors={"D": [[0, 1], [5, -2]]})
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(data))
    return path, tropcomplex.build_complex(data)


def count_row_builds(monkeypatch):
    """Patch `local_systems` wherever the package binds it, and return the
    call log: the list of cells each call gets."""
    from tropcomplex import structure

    calls = []
    original = structure.local_systems

    def systems(T, cells, rhs=None):
        cells = list(cells)
        calls.append(cells)
        return original(T, cells, rhs)

    for name, module in list(sys.modules.items()):
        if name.startswith("tropcomplex") \
                and getattr(module, "local_systems", None) is original:
            monkeypatch.setattr(module, "local_systems", systems)
    return calls


def touched_cells(X, D):
    """The (n-2)-cells that a ridge of supp D contains, in q order."""
    return sorted({q for r, _ in D.ridge_part for q in X.faces[X.n - 1][r]})


def test_cartier_and_classify_build_each_local_matrix_once(
        capsys, monkeypatch, tmp_path):
    # local_systems is the one builder of local rows, and no call builds a
    # cell it does not need: classify gets every cell, in one call per
    # classify (no memo, so a second classify builds them again), the Weil
    # test the cells supp D touches, tcx cartier one call per touched
    # cell, and intersect_degree the curve's support vertices
    calls = count_row_builds(monkeypatch)
    runs = [(*torus_fixture(tmp_path, 4), "D")]
    for name, divisor in (("triangle", "Duv"), ("triangle-tropical", "Duv"),
                          ("tetrahedron", "Dcd")):
        path = fixture_path(name)
        runs.append((path, tropcomplex.load_fixture_file(path).complex, divisor))
    for path, X, divisor in runs:
        D = tropcomplex.load_fixture_file(path).divisors[divisor]
        touched = touched_cells(X, D)
        assert 0 < len(touched) < X.counts[X.n - 2], path
        for argv, expected in (
                (["classify", path], [list(range(X.counts[X.n - 2]))]),
                (["cartier", path, "-D", divisor], [[q] for q in touched])):
            calls.clear()
            code = main([str(a) for a in argv])
            capsys.readouterr()
            assert code in (0, 1) and calls == expected, argv
    t = gen.torus(4, random.Random(4))
    T = tropcomplex.load_fixture(t.fixture).structure()
    rng = random.Random(4)
    D = tropcomplex.div_vertex_function(
        T, [rng.randint(-3, 3) for _ in range(t.nv)])
    C = tropcomplex.Curve.on_edges(gen.torus_curve(t, rng))
    touched = touched_cells(T.complex, D)
    assert D.ridge_part and tropcomplex.is_balanced(T, C).balanced
    for call, expected in ((tropcomplex.classify, [list(range(t.nv))]),
                           (tropcomplex.classify, [list(range(t.nv))]),
                           (lambda T: tropcomplex.weil_test(T, D),
                            [touched])):
        calls.clear()
        call(T)
        assert calls == expected, call
    calls.clear()
    assert tropcomplex.intersect_degree(T, D, C).degree == 0
    assert calls == [C.support_vertices(T.complex)]


def test_surface_curve_queries_build_one_local_system_per_support_vertex(
        monkeypatch):
    # at n = 2 one local_systems call over the support vertices, in order,
    # serves is_balanced on a balanced curve and intersect_degree, without
    # the germ relations; an unbalanced curve stops intersect_degree with
    # NotBalanced, still without them
    systems = count_row_builds(monkeypatch)
    relations = counting_calls(monkeypatch, "curves", "_germ_relations")
    rng = random.Random(28)
    t = gen.torus(5, rng)
    T = tropcomplex.load_fixture(t.fixture).structure()
    D = tropcomplex.Divisor.on_ridges(gen.torus_principal(
        t, [rng.randint(-3, 3) for _ in range(t.nv)]))
    C = tropcomplex.Curve.on_edges(gen.torus_curve(t, rng))
    U = tropcomplex.Curve.on_edges({0: 1})
    support = C.support_vertices(T.complex)
    assert tropcomplex.is_balanced(T, C).balanced
    assert systems == [support] and relations == []
    systems.clear()
    assert tropcomplex.intersect_degree(T, D, C).degree == 0
    assert systems == [support] and relations == []
    systems.clear()
    with pytest.raises(tropcomplex.NotBalanced):
        tropcomplex.intersect_degree(T, D, U)
    assert systems == [U.support_vertices(T.complex)] and relations == []


def test_verify_builds_each_support_vertex_once(capsys, monkeypatch):
    # tcx verify at n = 2 leaves balance to intersect_degree: past the Weil
    # test's cells, one local_systems call over the curve's support
    # vertices, with no is_balanced and no germ relations
    systems = count_row_builds(monkeypatch)
    relations = counting_calls(monkeypatch, "curves", "_germ_relations")
    balanced = counting_calls(monkeypatch, "curves", "is_balanced")
    path = fixture_path("tet-degen")
    f = tropcomplex.load_fixture_file(path)
    D, C = f.degeneration.divisors["D"], f.degeneration.curves["C"]
    code, _, _ = invoke(capsys, "verify", path, "-D", "D", "-C", "C")
    assert code == 0
    assert systems == [touched_cells(f.complex, D),
                       C.support_vertices(f.complex)]
    assert relations == [] and balanced == []


def test_weil_and_cartier_eliminate_only_where_the_divisor_touches(
        capsys, monkeypatch, tmp_path):
    # on the 32 x 32 torus a two-ridge divisor touches at most 4 of 1024
    # cells: those are the only local systems built, with one elimination
    # each in the Weil test, one Smith form each in tcx cartier, and
    # nothing at the other cells
    from tropcomplex import divisors

    path, X = torus_fixture(tmp_path, 32)
    fx = tropcomplex.load_fixture_file(path)
    D = fx.divisors["D"]
    touched = touched_cells(X, D)
    assert len(D.ridge_part) == 2 and 2 < len(touched) <= 4
    assert X.counts[0] == 1024
    eliminations = []
    smiths = []
    echelon, smith = divisors._echelon_in_place, divisors.smith

    def counting_echelon(rows, *args, **kwargs):
        eliminations.append(len(rows))
        return echelon(rows, *args, **kwargs)

    def counting_smith(matrix, *args):
        smiths.append(len(matrix))
        return smith(matrix, *args)

    monkeypatch.setattr(divisors, "_echelon_in_place", counting_echelon)
    monkeypatch.setattr(divisors, "smith", counting_smith)
    builds = count_row_builds(monkeypatch)
    sizes = [X.degree((0, q)) for q in touched]
    passed, failures = tropcomplex.weil_test(fx.structure(), D)
    assert eliminations == sizes and smiths == []
    assert builds == [touched]
    assert set(failures) <= set(touched)
    eliminations.clear()
    builds.clear()
    code, report, _ = invoke(capsys, "cartier", path, "-D", "D")
    assert eliminations == [] and smiths == sizes
    assert builds == [[q] for q in touched]
    assert report["result"]["weil"] == {"passed": passed,
                                        "failures": list(failures)}
    assert len(report["result"]["statuses"]) == 1024


def test_cartier_weil_verdict_matches_statuses(capsys, tmp_path):
    torus_path, _ = torus_fixture(tmp_path, 4)
    for path, divisor in ((fixture_path("triangle"), "Duv"),
                          (fixture_path("tetrahedron"), "Dcd"),
                          (torus_path, "D")):
        code, report, _ = invoke(capsys, "cartier", path, "-D", divisor)
        result = report["result"]
        failures = [q for q, status in result["statuses"] if status == "neither"]
        assert result["weil"] == {"passed": not failures, "failures": failures}
        assert code == (1 if failures else 0)


@pytest.mark.parametrize("field, value", [
    ("vertex_ridge_degrees", [[0, 0, "x"]]),
    ("claimed", [["D", "C", 2, 0]]),
    ("claimed", [["D", "C", 2]]),
    ("self_intersections", [[0, 0]]),
    ("divisors", {"D": [[0, "x"]]}),
    ("curves", [[0, 1]]),
])
def test_malformed_degeneration_entry_is_schema_error(
        capsys, tmp_path, field, value):
    data = json.loads(fixture_path("tet-degen").read_text())
    data[field] = value
    bad = tmp_path / "bad-degen.json"
    bad.write_text(json.dumps(data))
    code, report, _ = invoke(capsys, "verify", bad, "-D", "D", "-C", "C")
    assert code == 2
    assert report["error"]["type"] == "SchemaError"


def test_degeneration_without_complex_is_schema_error(capsys, tmp_path):
    data = json.loads(fixture_path("tet-degen").read_text())
    del data["complex"]
    bad = tmp_path / "no-complex.json"
    bad.write_text(json.dumps(data))
    code, report, _ = invoke(capsys, "degen-build", bad)
    assert code == 2
    assert report["error"]["type"] == "SchemaError"


def test_div_call_builds_two_parsers_and_reads_fixture_once(
        capsys, monkeypatch):
    import argparse
    import builtins

    path = fixture_path("tetrahedron")
    parsers = []
    opened = []
    init, real_open = argparse.ArgumentParser.__init__, builtins.open

    def counting_init(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    # the first div call in a process builds the tcx parser and div's
    # subparser; a second reuses both.  Each call reads its fixture once.
    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(builtins, "open", counting_open)
    built = []
    for _ in range(2):
        parsers.clear()
        opened.clear()
        code = main(["div", str(path), "--phi", "1,1,0,0"])
        built.append(len(parsers))
        assert code == 0
        assert opened.count(str(path)) == 1
    monkeypatch.undo()
    capsys.readouterr()
    assert built == [2, 0]


# one argv per subcommand, with every argument it takes
SAMPLE_ARGV = {
    "validate": ["f.json"],
    "classify": ["f.json"],
    "div": ["f.json", "--phi", "1,2", "--two-piece", "p.json"],
    "cartier": ["f.json", "-D", "D"],
    "classgroup": ["f.json"],
    "equiv": ["f.json", "-D", "D", "-E", "E"],
    "balance": ["f.json", "-C", "C"],
    "intersect": ["f.json", "-D", "D", "-C", "C", "--breakpoints", "b.json"],
    "import-embedded": ["f.json"],
    "robust": ["f.json", "--cell", "1,2"],
    "pushforward": ["f.json", "--divisor", "D", "-f", "phi"],
    "degen-build": ["f.json"],
    "specialize": ["f.json", "X"],
    "verify": ["f.json", "--divisor", "D", "--curve", "C"],
}


def test_one_subparser_parses_as_all_of_them(capsys):
    from tropcomplex.cli import build_parser

    assert list(SAMPLE_ARGV) == list(SUBCOMMANDS)

    def help_text(parser, argv):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    for name, rest in SAMPLE_ARGV.items():
        argv = [name] + rest
        one = build_parser(argv)
        assert one.parse_args(argv) == build_parser().parse_args(argv)
        assert help_text(build_parser([name, "-h"]), [name, "-h"]) \
            == help_text(build_parser(), [name, "-h"])


def edited_tetrahedron(tmp_path, field, value):
    data = json.loads(fixture_path("tetrahedron").read_text())
    data[field] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("field, value", [
    ("divisors", [["Dab", [[0, 1]]]]),
    ("curves", 7),
    ("functions", "phi"),
    ("faces", 5),
    ("alpha", 5),
    ("divisors", {"D": 5}),
    ("divisors", {"D": {"ridge_part": 5}}),
    ("curves", {"C": {"01": 1}}),
    ("functions", {"f": "0101"}),
])
def test_wrong_container_type_is_schema_error(capsys, tmp_path, field, value):
    bad = edited_tetrahedron(tmp_path, field, value)
    code, report, _ = invoke(capsys, "classify", bad)
    assert code == 2
    assert report["error"]["type"] == "SchemaError"


NOT_UTF8 = b'{"format": "tcx-1", "name": "caf\xe9"}'


def test_fixture_not_utf8_is_input_error(capsys, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(fixture_path("tetrahedron").read_bytes()
                    .replace(b'"tcx-1"', b'"tcx-1\xe9"', 1))
    code, report, _ = invoke(capsys, "classify", bad)
    assert code == 2
    assert report["error"]["type"] == "InputError"
    assert report["inputs"]["fixture"]["sha256"] \
        == hashlib.sha256(bad.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv", [
    ["div", fixture_path("tetrahedron"), "--two-piece"],
    ["intersect", fixture_path("tetrahedron"), "-D", "Dab", "-C", "C",
     "--breakpoints"],
])
def test_side_file_not_utf8_is_input_error(capsys, tmp_path, argv):
    bad = tmp_path / "side.json"
    bad.write_bytes(NOT_UTF8)
    code, report, _ = invoke(capsys, *argv, bad)
    assert code == 2
    assert report["error"]["type"] == "InputError"


def counting_calls(monkeypatch, module_name, attr):
    """Rebind tropcomplex's `attr` to a wrapper that records its calls, in
    every tropcomplex module that holds it; returns the call list."""
    original = getattr(sys.modules["tropcomplex." + module_name], attr)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("tropcomplex") \
                and getattr(module, attr, None) is original:
            monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("argv", [
    ["balance", fixture_path("tetrahedron"), "-C", "C"],
    ["verify", fixture_path("tet-degen"), "-D", "D", "-C", "C"],
])
def test_balanced_curve_builds_no_germ_basis(capsys, monkeypatch, argv):
    calls = counting_calls(monkeypatch, "linalg", "kernel_basis")
    code = main([str(a) for a in argv])
    capsys.readouterr()
    assert code == 0
    assert calls == []


def test_unbalanced_curve_builds_one_germ_space(capsys, monkeypatch, tmp_path):
    # edge 0 of the triangle alone is unbalanced at its first support vertex
    data = json.loads(fixture_path("triangle").read_text())
    data["curves"]["U"] = [[0, 1], [2, 1]]
    path = tmp_path / "unbalanced.json"
    path.write_text(json.dumps(data))
    calls = counting_calls(monkeypatch, "curves", "germ_space")
    code, report, _ = invoke(capsys, "balance", path, "-C", "U")
    assert code == 1
    v, _ = report["result"]["certificate"]
    assert [args[1] for args in calls] == [v]
    assert [v for v, _ in report["result"]["germ_dimensions"]] == [0, 1, 2]


def test_intersect_runs_no_smith_form(capsys, monkeypatch):
    calls = counting_calls(monkeypatch, "linalg", "smith")
    for argv in (["intersect", fixture_path("tetrahedron"), "-D", "Dcd", "-C", "C"],
                 ["intersect", fixture_path("triangle"), "-D", "P1", "-C", "C1"],
                 ["verify", fixture_path("tet-degen"), "-D", "D", "-C", "C"]):
        code, _, _ = invoke(capsys, *argv)
        assert code == 0, argv
    assert calls == []


def edit(*path, value=None, append=None, delete=None):
    """A fixture edit: at the object or list under path, set value, append
    an entry, or delete an index or key."""
    def apply(data):
        *parents, last = path
        for key in parents:
            data = data[key]
        if append is not None:
            data[last].append(append)
        elif delete is not None:
            del data[last][delete]
        else:
            data[last] = value
    return apply


def replace_all(value):
    def apply(data):
        data.clear()
        data.update(value)
    return apply


def triangle_degeneration(data):
    """The triangle fixture as strict degeneration data, with a claim on
    its divisor Duv, which fails the summable test."""
    complex_data = {key: data[key] for key in ("format", "n", "simplices",
                                               "faces")}
    replace_all({"format": "tcx-1", "kind": "degeneration", "mode": "strict",
                 "complex": complex_data,
                 "vertex_ridge_degrees": TRIANGLE_DEGREES,
                 "divisors": {"Duv": data["divisors"]["Duv"]},
                 "curves": {"C1": data["curves"]["C1"]},
                 "claimed": [["Duv", "C1", 0, 1]]})(data)


# one small edit per input-error raise, with the call that reaches it, and
# the error type and message it reports; SIDE in the arguments names a
# side file
TYPED_ERRORS = {
    # build_complex and DeltaComplex
    "complex-not-an-object": (
        "tet-degen", edit("complex", value=[1]), ["degen-build"], None,
        "SchemaError",
        "a complex is a JSON object, not list"),
    "counts-of-wrong-length": (
        "triangle", edit("simplices", value=[3, 3]), ["validate"], None,
        "DimensionExceeded",
        "expected 3 per-dimension counts, got 2"),
    "face-entry-dimension": (
        "triangle", edit("faces", append=[3, 0, 0, 0]), ["validate"], None,
        "DimensionExceeded",
        "face entry at dimension 3"),
    "face-entry-simplex": (
        "triangle", edit("faces", append=[1, 9, 0, 0]), ["validate"], None,
        "DimensionExceeded",
        "face entry for missing simplex (1,9)"),
    "face-entry-slot": (
        "triangle", edit("faces", append=[1, 0, 2, 0]), ["validate"], None,
        "DimensionExceeded",
        "face slot 2 out of range"),
    "face-entries-missing": (
        "triangle", edit("faces", delete=-1), ["validate"], None,
        "DimensionExceeded",
        "missing face entries for (2,0)"),
    # a scalar is quoted as it is, a bool refused like any non-integer
    "n-not-an-integer": (
        "triangle", edit("n", value="x"), ["validate"], None, "SchemaError",
        "n 'x' is not an integer"),
    "no-vertices": (
        "path", replace_all({"format": "tcx-1", "kind": "abstract", "n": 0,
                             "simplices": [0], "faces": []}),
        ["validate"], None, "Disconnected",
        "complex has no vertices"),
    # EmbeddedComplex
    "N-not-an-integer": (
        "plane", edit("N", value=True), ["validate"], None, "SchemaError",
        "N True is not an integer"),
    "bounded-cell-repeats-a-vertex": (
        "plane", edit("bounded_cells", 1, 0, value=[0, 0]), ["validate"],
        None, "IndexMismatch",
        "bounded 1-cell needs 2 distinct vertices"),
    "unbounded-cell-without-rays": (
        "plane", edit("unbounded_cells",
                      append={"vertices": [0], "rays": []}),
        ["validate"], None, "IndexMismatch",
        "unbounded cells need vertices and rays"),
    "zero-ray": (
        "plane", edit("unbounded_cells", 0, "rays", value=[[0, 0]]),
        ["validate"], None, "IndexMismatch",
        "bad ray (0, 0)"),
    "ray-not-primitive": (
        "plane", edit("unbounded_cells", 0, "rays", value=[[-2, 0]]),
        ["validate"], None, "IndexMismatch",
        "ray (-2, 0) not primitive"),
    "unbounded-cell-not-unimodular": (
        "plane", edit("unbounded_cells", 0, "rays", value=[[-2, 1]]),
        ["validate"], None, "NonUnimodular",
        "unbounded cell UnboundedCell(vertices=(0, 1), rays=((-2, 1),))"),
    "unbounded-cell-twice": (
        "plane", edit("unbounded_cells",
                      append={"vertices": [0, 1], "rays": [[-1, 0]]}),
        ["validate"], None, "IndexMismatch",
        "duplicate unbounded cell UnboundedCell(vertices=(0, 1), "
        "rays=((-1, 0),))"),
    "bounded-cell-twice": (
        "plane", edit("bounded_cells", 2, append=[0, 1, 2]), ["validate"],
        None, "IndexMismatch",
        "duplicate bounded cell (0, 1, 2)"),
    # the face of a two-ray cell that drops a ray, the face of an edge's
    # cell that drops a vertex, and a bounded face
    "unbounded-ray-face-missing": (
        "plane", edit("unbounded_cells", delete=13), ["validate"], None,
        "IndexMismatch",
        "missing unbounded face of UnboundedCell(vertices=(0,), "
        "rays=((-1, -1), (-1, 0)))"),
    "unbounded-vertex-face-missing": (
        "plane", edit("unbounded_cells", delete=12), ["validate"], None,
        "IndexMismatch",
        "missing unbounded face of UnboundedCell(vertices=(0, 1), "
        "rays=((-1, 0),))"),
    "bounded-face-missing": (
        "plane", edit("unbounded_cells",
                      append={"vertices": [1, 3], "rays": [[0, 1]]}),
        ["validate"], None, "IndexMismatch",
        "missing bounded face (1, 3)"),
    "sheet-count-zero": (
        "twosheet", edit("sheets", "counts", 0, value=[1, 0, 0]),
        ["validate"], None, "InconsistentSheets",
        "sheet count entry [1, 0, 0] is not positive"),
    "unbounded-entry-without-vertices": (
        "plane", edit("unbounded_cells", append={"rays": [[1, 0]]}),
        ["validate"], None, "SchemaError",
        "unbounded cell entry {'rays': [[1, 0]]} has no vertices"),
    "face-sheet-map-malformed": (
        "twosheet", edit("sheets", "face_sheet_maps", append=[1, 0, 0]),
        ["validate"], None, "SchemaError",
        "face sheet map entry [1, 0, 0] is not [k, index, slot, images]"),
    "face-sheet-map-element": (
        "twosheet", edit("sheets", "face_sheet_maps",
                         append=[1, "x", 0, [0]]),
        ["validate"], None, "SchemaError",
        "face sheet map entry [1, 'x', 0, [0]] has 'x' at index 1, not an "
        "integer"),
    # vertex 0 gets two sheets, and edge [0, 1] sends it to the second
    # while edge [0, 2] sends it to the first: d_1 d_2 != d_1 d_1
    "sheet-maps-do-not-commute": (
        "plane", edit("sheets", value={"counts": [[0, 0, 2]],
                                       "face_sheet_maps": [[1, 0, 1, [1]]]}),
        ["import-embedded"], None, "InconsistentSheets",
        "sheet maps do not commute with face relations: simplicial "
        "identity fails at (2, 0): d_1 d_2 != d_1 d_1"),
    "no-top-dimensional-bounded-cell": (
        "plane", edit("bounded_cells", delete=2), ["import-embedded"], None,
        "NoSolution",
        "no bounded cells of top dimension 2"),
    # readers
    "facet-piece-malformed": (
        "triangle", edit("divisors", "F", value={
            "facet_pieces": [[0, [1, 0], 0, 1]]}), ["validate"], None,
        "SchemaError",
        "facet piece entry [0, [1, 0], 0, 1] is not [facet, normal, "
        "numerator, denominator, multiplicity]"),
    # an entry of mixed shape is quoted whole, with its bad element named
    "facet-piece-element": (
        "triangle", edit("divisors", "F", value={
            "facet_pieces": [[0, [1, 0, 0], "x", 1, 1]]}), ["validate"], None,
        "SchemaError",
        "facet piece entry [0, [1, 0, 0], 'x', 1, 1] has 'x' at index 2, "
        "not an integer"),
    "facet-piece-denominator-0": (
        "triangle", edit("divisors", "F", value={
            "facet_pieces": [[0, [1, 0], 0, 0, 1]]}), ["validate"], None,
        "SchemaError",
        "facet piece entry [0, [1, 0], 0, 0, 1] has denominator 0"),
    "two-piece-denominator-0": (
        "tetrahedron", None, ["div", "--two-piece", "SIDE"],
        {"facet": 0, "normal": [1, 0], "offset": [0, 0]}, "SchemaError",
        "two-piece offset [0, 0] has denominator 0"),
    "two-piece-facet-not-an-integer": (
        "tetrahedron", None, ["div", "--two-piece", "SIDE"],
        {"facet": 1.5, "normal": [1, 0], "offset": [0, 1]}, "SchemaError",
        "two-piece facet 1.5 is not an integer"),
    "breakpoint-denominator-0": (
        "tetrahedron", None,
        ["intersect", "-D", "Dab", "-C", "C", "--breakpoints", "SIDE"],
        [[0, [[0, 0, 0, 1], [1, 1, 0, 1]]]], "SchemaError",
        "breakpoint entry [0, [[0, 0, 0, 1], [1, 1, 0, 1]]] has "
        "denominator 0"),
    "breakpoint-edge-element": (
        "tetrahedron", None,
        ["intersect", "-D", "Dab", "-C", "C", "--breakpoints", "SIDE"],
        [["0", [[0, 1, 0, 1], [1, 1, 0, 1]]]], "SchemaError",
        "breakpoint entry ['0', [[0, 1, 0, 1], [1, 1, 0, 1]]] has '0' at "
        "index 0, not an integer"),
    "breakpoints-not-a-list": (
        "tetrahedron", None,
        ["intersect", "-D", "Dab", "-C", "C", "--breakpoints", "SIDE"],
        {}, "SchemaError",
        "breakpoints are a list of [edge, points], not {}"),
    "breakpoint-entry-malformed": (
        "tetrahedron", None,
        ["intersect", "-D", "Dab", "-C", "C", "--breakpoints", "SIDE"],
        [[0]], "SchemaError",
        "breakpoint entry [0] is not [edge, points]"),
    "kind-undetectable": (
        "triangle", replace_all({"format": "tcx-1"}), ["validate"], None,
        "InputError",
        "cannot determine fixture kind"),
    "kind-unknown": (
        "triangle", edit("kind", value="weird"), ["validate"], None,
        "InputError",
        "unknown fixture kind 'weird'"),
    "degeneration-mode-unknown": (
        "tet-degen", edit("mode", value="loose"), ["degen-build"], None,
        "InconsistentData",
        "unknown mode 'loose'"),
    "claimed-denominator-0": (
        "tet-degen", edit("claimed", 0, value=["D", "C", 2, 0]),
        ["degen-build"], None, "SchemaError",
        "claimed entry ['D', 'C', 2, 0] has denominator 0"),
    "claimed-element": (
        "tet-degen", edit("claimed", 0, value=["D", "C", 2, 1.5]),
        ["degen-build"], None, "SchemaError",
        "claimed entry ['D', 'C', 2, 1.5] has 1.5 at index 3, not an "
        "integer"),
    # handlers
    "div-without-option": (
        "tetrahedron", None, ["div"], None, "InputError",
        "div needs --phi or --two-piece"),
    "pushforward-without-option": (
        "plane", None, ["pushforward"], None, "InputError",
        "pushforward needs --function or --divisor"),
    "curve-name-unknown": (
        "triangle", None, ["balance", "-C", "nope"], None, "UnknownName",
        "no curve named 'nope' in the fixture"),
    "divisor-name-unknown": (
        "triangle", None, ["cartier", "-D", "nope"], None, "UnknownName",
        "no divisor named 'nope' in the fixture"),
    # each subcommand on a fixture of a kind it does not read
    "import-embedded-on-abstract": (
        "triangle", None, ["import-embedded"], None, "InputError",
        "import-embedded needs an embedded fixture"),
    "robust-on-abstract": (
        "triangle", None, ["robust", "--cell", "0,0"], None, "InputError",
        "robust needs an embedded fixture"),
    "pushforward-on-degeneration": (
        "tet-degen", None, ["pushforward", "-D", "D"], None, "InputError",
        "pushforward needs an embedded fixture"),
    "degen-build-on-embedded": (
        "plane", None, ["degen-build"], None, "InputError",
        "degen-build needs a degeneration fixture"),
    "specialize-on-abstract": (
        "triangle", None, ["specialize", "Duv"], None, "InputError",
        "specialize needs a degeneration fixture"),
    "verify-on-abstract": (
        "triangle", None, ["verify", "-D", "Duv", "-C", "C1"], None,
        "InputError",
        "verify needs a degeneration fixture"),
    # a failed precondition is a report with a failed verdict, not an error
    "verify-precondition": (
        "triangle", triangle_degeneration,
        ["verify", "-D", "Duv", "-C", "C1"], None, None,
        "weil: divisor 'Duv' fails the summable test"),
}


@pytest.mark.parametrize("name, change, argv, side, error, message",
                         list(TYPED_ERRORS.values()), ids=list(TYPED_ERRORS))
def test_input_error_is_a_typed_report(capsys, tmp_path, name, change, argv,
                                       side, error, message):
    path = fixture_path(name)
    if change is not None:
        data = json.loads(path.read_text())
        change(data)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data))
    if side is not None:
        (tmp_path / "side.json").write_text(json.dumps(side))
    argv = [argv[0], str(path)] + [str(tmp_path / "side.json") if a == "SIDE"
                                   else a for a in argv[1:]]
    code = main(argv)
    report = checked_report(argv, code, capsys.readouterr().out)
    if error is None:
        assert code == 1
        assert report["result"]["precondition"] == "weil"
        assert report["result"]["message"] == message
    else:
        assert code == 2
        assert report["error"]["type"] == error
        assert report["error"]["message"] == message


# an entry of the right container type with one bad element at the end;
# a message that cuts a list of integers short names that element
LONG = list(range(5000)) + ["x"]
BAD = " (first bad element 'x' at index 5000)"
# a fixture name of 5 076 bytes when quoted whole
NAME = "D" * 5000
NORMAL = list(range(3000))


# the two side-file cases keep the ids that pytest derives from an argv
# list and a message prefix
@pytest.mark.parametrize("argv, change, quoted, error, message", [
    pytest.param(
        ["div", "tetrahedron", "--two-piece"], None, None, "SchemaError",
        "a two-piece function is an object with facet, normal and offset, "
        "not %s",
        id="argv0-a two-piece function is an object with facet, normal and "
           "offset, not "),
    pytest.param(
        ["intersect", "tetrahedron", "-D", "Dab", "-C", "C", "--breakpoints"],
        None, None, "SchemaError",
        "breakpoints are a list of [edge, points], not %s",
        id="argv1-breakpoints are a list of [edge, points], not "),
    pytest.param(
        ["validate", "tetrahedron"], edit("functions", "f", value=LONG), LONG,
        "SchemaError", "function entry %s" + BAD + " is not a list of integers",
        id="function"),
    pytest.param(
        ["validate", "tetrahedron"], edit("simplices", value=LONG), LONG,
        "SchemaError", "simplices entry %s" + BAD + " is not a list of integers",
        id="simplices"),
    pytest.param(
        ["validate", "tetrahedron"], edit("alpha", append=LONG), LONG,
        "SchemaError", "alpha entry %s" + BAD + " is not 3 integers",
        id="alpha"),
    pytest.param(
        ["validate", "tetrahedron"], edit("divisors", "Dab", append=LONG),
        LONG, "SchemaError", "divisor entry %s" + BAD + " is not 2 integers",
        id="divisor"),
    pytest.param(
        ["validate", "tetrahedron"], edit("faces", append=LONG), LONG,
        "SchemaError", "face entry %s" + BAD + " is not 4 integers",
        id="face"),
    pytest.param(
        ["validate", "tetrahedron"],
        edit("divisors", "F", value={"facet_pieces": [LONG]}), LONG,
        "SchemaError", "facet piece entry %s is not [facet, normal, "
        "numerator, denominator, multiplicity]", id="facet-piece"),
    pytest.param(
        ["validate", "tetrahedron"],
        edit("divisors", "F", value={"facet_pieces": [[0, NORMAL, 0, 0, 1]]}),
        [0, NORMAL, 0, 0, 1], "SchemaError",
        "facet piece entry %s has denominator 0", id="facet-piece-fraction"),
    pytest.param(
        ["validate", "tetrahedron"],
        edit("divisors", "F", value={"facet_pieces": [[0, NORMAL, 0, 1, 1]]}),
        [0, NORMAL, 0, 1, 1], "IndexMismatch",
        "divisor 'F' facet piece %s: normal has 3000 entries, not n = 2",
        id="facet-piece-normal"),
    pytest.param(
        ["validate", "plane"],
        edit("unbounded_cells", append={"rays": [[1, 0]] * 3000}),
        {"rays": [[1, 0]] * 3000}, "SchemaError",
        "unbounded cell entry %s has no vertices", id="unbounded-cell"),
    pytest.param(
        ["validate", "twosheet"],
        edit("sheets", "face_sheet_maps", append=LONG), LONG, "SchemaError",
        "face sheet map entry %s is not [k, index, slot, images]",
        id="face-sheet-map"),
    pytest.param(
        ["validate", "twosheet"],
        edit("sheets", "face_sheet_maps", append=[5, 0, 0, NORMAL]),
        [5, 0, 0, NORMAL], "InconsistentSheets",
        "face sheet map entry %s names no face of a bounded cell",
        id="face-sheet-map-cell"),
    pytest.param(
        ["validate", "tet-degen"], edit("claimed", append=LONG), LONG,
        "SchemaError", "claimed entry %s is not [divisor name, curve name, "
        "numerator, denominator]", id="claimed"),
    pytest.param(
        ["validate", "tetrahedron"], edit("divisors", value={NAME: [[99, 1]]}),
        NAME, "IndexMismatch",
        "divisor %s entry [99, 1]: ridge 99 out of range (6 ridges)",
        id="divisor-name"),
    pytest.param(
        ["validate", "tetrahedron"], edit("curves", value={NAME: [[99, 1]]}),
        NAME, "IndexMismatch",
        "curve %s entry [99, 1]: edge 99 out of range (6 edges)",
        id="curve-name"),
    pytest.param(
        ["validate", "tetrahedron"],
        edit("divisors", value={NAME: {"facet_pieces": [[9, [1, 0], 0, 1, 1]]}}),
        NAME, "IndexMismatch",
        "divisor %s facet piece [9, [1, 0], 0, 1, 1]: facet 9 out of range "
        "(4 facets)", id="facet-piece-name"),
    pytest.param(
        ["validate", "tetrahedron"],
        edit("divisors", value={NAME: {"facet_pieces": [[0, [1], 0, 1, 1]]}}),
        NAME, "IndexMismatch",
        "divisor %s facet piece [0, [1], 0, 1, 1]: normal has 1 entries, not "
        "n = 2", id="facet-piece-normal-name"),
    pytest.param(
        ["validate", "tet-degen"], edit("mode", value=NAME), NAME,
        "InconsistentData", "unknown mode %s", id="mode"),
])
def test_wrong_typed_side_file_is_quoted_to_a_bounded_prefix(
        capsys, tmp_path, argv, change, quoted, error, message):
    # a value quoted in a message, in the report and on stderr, is cut to
    # its first REPR_LIMIT characters: a whole fixture of tens of kilobytes
    # given as the side file (change None), or a long fixture entry with
    # one bad element
    from tropcomplex.errors import REPR_LIMIT

    path = fixture_path(argv[1])
    rest = argv[2:]
    if change is None:
        quoted = gen.torus(12, random.Random(1)).fixture
        if argv[0] == "div":
            quoted = quoted["faces"]
        side = tmp_path / "side.json"
        side.write_text(json.dumps(quoted))
        assert side.stat().st_size > 20_000
        rest = rest + [side]
    else:
        data = json.loads(path.read_text())
        change(data)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(data))
    code, report, err = invoke(capsys, argv[0], path, *rest)
    assert code == 2
    assert len(repr(quoted)) > REPR_LIMIT
    assert report["error"] == {
        "type": error,
        "message": message % (repr(quoted)[:REPR_LIMIT] + "...")}
    assert err == "%s: error: %s\n" % (argv[0], report["error"]["message"])


@pytest.mark.parametrize("argv, quoted, error, message", [
    (["cartier", "tetrahedron", "-D", NAME], NAME, "UnknownName",
     "no divisor named %s in the fixture"),
    (["balance", "tetrahedron", "-C", NAME], NAME, "UnknownName",
     "no curve named %s in the fixture"),
    (["div", "tetrahedron", "--phi", NAME], NAME, "UnknownName",
     "no vertex function named %s"),
    (["robust", "plane", "--cell", "1," * 2500], "1," * 2500, "InputError",
     "cell must be given as 'dim,index', not %s"),
    (["specialize", "tet-degen", NAME], NAME, "UnknownName",
     "no divisor or curve named %s"),
    (["verify", "tet-degen", "-D", NAME, "-C", "C"], NAME, "UnknownName",
     "no divisor named %s"),
    (["verify", "tet-degen", "-D", "D", "-C", NAME], NAME, "UnknownName",
     "no curve named %s"),
])
def test_long_argument_is_quoted_to_a_bounded_prefix(
        capsys, argv, quoted, error, message):
    # a 5 000-character name or cell given on the command line is quoted
    # by its first REPR_LIMIT characters, as a fixture value is
    from tropcomplex.errors import REPR_LIMIT

    code, report, err = invoke(capsys, argv[0], fixture_path(argv[1]),
                               *argv[2:])
    assert code == 2
    assert report["error"] == {
        "type": error,
        "message": message % (repr(quoted)[:REPR_LIMIT] + "...")}
    assert err == "%s: error: %s\n" % (argv[0], report["error"]["message"])
