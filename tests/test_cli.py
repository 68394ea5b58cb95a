"""Tests for the command-line front end.

Everything runs in-process through main(argv), which returns the exit
code instead of raising SystemExit, so stdout/stderr can be captured
and compared byte for byte.
"""

import gc
import hashlib
import io
import json
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from halfjac import cli, errors, jacobian
from halfjac.field import element_from_json, ff_make
from halfjac.jacobian import (
    CurvePoint,
    curve_make,
    double,
    embed_point,
    enumerate_points,
    mumford_from_json,
    mumford_to_json,
    parse_curve_spec,
)
from halfjac.theorems import TheoremReport

import oracles

C1_ARGS = ["--field", "7", "--alphas", "0,1,6"]
C3_ARGS = ["--field", "7", "--alphas", "3,5,6"]
G2_ARGS = ["--field", "7", "--alphas", "0,1,2,3,4"]
G2_F11_ARGS = ["--field", "11", "--alphas", "0,1,2,4,5"]
G3_F11_ARGS = ["--field", "11", "--alphas", "0,1,2,3,4,5,6"]


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- byte-identical output ---

# stdout digests pinned when the polynomial layer moved to raw
# coefficients; any change to an output byte changes them
PINNED_STDOUT_SHA256 = [
    (["theorems"],
     "abe78bcf013ffd154a44a413ad0006a99272af1ac916dc8a8387a3c3b5f1c627"),
    (["halve", "--field", "101", "--alphas", "4,7,11,27,64", "--point", "1,79"],
     "d09257662a30d4155b53475d1da51c3b4f5b28f2d4eb0d2680ecf6763ede2c23"),
    (["halve", "--field", "7", "--alphas", "0,1,6", "--point", "4,2"],
     "dc5475eefe97222638d3e7b30e668e367b8c4565b5ee9c6a3be6b74b09e02e29"),
    # g = 3: 64 halves over F_169, each of order 164
    (["halve", "--field", "13", "--alphas", "0,1,2,3,4,5,6", "--point", "7,3"],
     "7aba310eb9708b78c5bdba7ddaaa1385dc8a59255dbcb85d8d288c0e170bf7f8"),
]


@pytest.mark.parametrize("argv, digest", PINNED_STDOUT_SHA256,
                         ids=["theorems", "halve-p101", "halve-p7-lifted",
                              "halve-p13-g3-lifted"])
def test_stdout_is_byte_identical(capsys, argv, digest):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# --- halve ---

def test_halve_rational_case(capsys):
    code, out, err = run(capsys, ["halve"] + C3_ARGS + ["--point", "0,1"])
    assert code == 0, err
    data = json.loads(out)
    assert data["lifted"] is False
    assert data["field"] == "7"
    assert data["point"] == {"x": 0, "y": 1}
    assert len(data["halves"]) == 4
    curve = curve_make(ff_make(7), [3, 5, 6])
    for entry in data["halves"]:
        assert set(entry) == {"r", "U", "V", "order"}
        assert len(entry["r"]) == 3
        assert entry["order"] in (3, 6)
        d = mumford_from_json(curve, {"U": entry["U"], "V": entry["V"]})
        assert mumford_to_json(d) == {"U": entry["U"], "V": entry["V"]}

def test_halve_doubling_oracle_on_output(capsys):
    code, out, _ = run(capsys, ["halve"] + C3_ARGS + ["--point", "0,1"])
    assert code == 0
    data = json.loads(out)
    curve = curve_make(ff_make(7), [3, 5, 6])
    F = curve.field
    target = embed_point(CurvePoint(curve, F(0), F(1)))
    for entry in data["halves"]:
        d = mumford_from_json(curve, {"U": entry["U"], "V": entry["V"]})
        assert double(d) == target

def test_halve_auto_lift(capsys):
    code, out, _ = run(capsys, ["halve"] + C1_ARGS + ["--point", "4,2"])
    assert code == 0
    data = json.loads(out)
    assert data["lifted"] is True
    assert data["field"].startswith("7^2")
    assert len(data["halves"]) == 4

def test_halve_takes_the_point_order_on_the_input_curve(capsys, monkeypatch):
    real, fields = cli.order, []

    def spy(d, cap=None):
        fields.append(d.curve.field)
        return real(d, cap)

    monkeypatch.setattr(cli, "order", spy)
    code, out, err = run(capsys, ["halve"] + C1_ARGS + ["--point", "4,2"])
    assert code == 0, err
    assert json.loads(out)["lifted"] is True
    assert fields == [ff_make(7)]

def test_halve_no_lift_error(capsys):
    code, _, err = run(capsys,
                       ["halve"] + C1_ARGS + ["--point", "4,2", "--no-lift"])
    assert code == 1
    assert "not a square" in err
    assert "rerun without --no-lift" in err

def test_halve_no_lift_error_over_an_extension_field(capsys):
    code, _, err = run(capsys, ["halve", "--field", "7^2:4,0",
                                "--alphas", "(0,0),(1,0),(6,0)",
                                "--point", "(0,1),(4,2)", "--no-lift"])
    assert code == 1
    assert "not a square" in err and "tower field" in err
    assert "rerun without --no-lift" not in err

@pytest.mark.parametrize("output", ["json", "table"])
def test_halve_lift_over_an_extension_field_is_refused(capsys, output):
    # at x = t neither t - 1 nor t - 6 is a square in F_49, and the lift
    # would be a tower field, which has no text form
    code, out, err = run(capsys, ["halve", "--field", "7^2:4,0",
                                  "--alphas", "(0,0),(1,0),(6,0)",
                                  "--point", "(0,1),(4,2)",
                                  "--output", output])
    assert code == 1
    assert out == ""
    assert err.startswith("Error: ") and "prime field" in err
    assert "Traceback" not in err

def test_halve_solve_for_y(capsys):
    code, out, _ = run(capsys, ["halve"] + C1_ARGS + ["--point", "5,?"])
    assert code == 0
    data = json.loads(out)
    assert data == {"x": 5, "candidates": [1, 6]}

def test_halve_solve_for_y_nonsquare(capsys):
    code, _, err = run(capsys, ["halve"] + C1_ARGS + ["--point", "3,?"])
    assert code == 1
    assert "square" in err

def test_halve_off_curve(capsys):
    code, out, err = run(capsys, ["halve"] + C1_ARGS + ["--point", "3,1"])
    assert (code, out) == (1, "")
    assert err == ("Error: point (3, 1) is not on the curve: y^2 = 1 but "
                   "f(x) = 3 (y^2 != f(x))\n")

def test_halve_infinity_redirects(capsys):
    code, _, err = run(capsys, ["halve"] + C1_ARGS + ["--point", "inf"])
    assert code == 1
    assert "two-torsion" in err

def test_halve_weierstrass_orders_are_4(capsys):
    code, out, _ = run(capsys, ["halve"] + C1_ARGS + ["--point", "1,0"])
    assert code == 0
    data = json.loads(out)
    assert [e["order"] for e in data["halves"]] == [4, 4, 4, 4]

def test_halve_orders_are_exact(capsys):
    n0_parities = set()
    for args in (C1_ARGS, C3_ARGS, G2_ARGS):
        curve = curve_make(ff_make(7), [int(a) for a in args[3].split(",")])
        for P in enumerate_points(curve)[:-1]:
            point = "%d,%d" % (int(P.x), int(P.y))
            code, out, err = run(capsys, ["halve"] + args + ["--point", point])
            assert code == 0, err
            data = json.loads(out)
            curve2 = parse_curve_spec(data["curve"])
            F2 = curve2.field
            P2 = CurvePoint(curve2, element_from_json(F2, data["point"]["x"]),
                            element_from_json(F2, data["point"]["y"]))
            n0 = oracles.order_by_addition(embed_point(P2))
            orders = [e["order"] for e in data["halves"]]
            for e in data["halves"]:
                h = mumford_from_json(curve2, {"U": e["U"], "V": e["V"]})
                assert oracles.is_exact_order(h, e["order"])
            # a half of order n0 exists exactly when n0 is odd, and is unique
            assert orders.count(n0) == n0 % 2
            n0_parities.add(n0 % 2)
            if args is C3_ARGS and point == "0,1":
                assert n0 == 3
            if args is C1_ARGS and point == "4,2":
                assert data["lifted"] and n0 == 4
    assert n0_parities == {0, 1}


# --- arith ---

def test_arith_order_of_two_torsion(capsys):
    code, out, _ = run(capsys, ["arith"] + C1_ARGS +
                       ["order", '{"U": [0, 1], "V": []}'])
    assert code == 0
    assert json.loads(out) == {"order": 2}

def test_arith_add_inverse_is_identity(capsys):
    d = '{"U": [3, 1], "V": [2]}'
    code, out, _ = run(capsys, ["arith"] + C1_ARGS + ["neg", d])
    assert code == 0
    neg_json = json.loads(out)["result"]
    code, out, _ = run(capsys, ["arith"] + C1_ARGS +
                       ["add", d, json.dumps(neg_json)])
    assert code == 0
    assert json.loads(out) == {"result": {"U": [1], "V": []}}

def test_arith_smul2_matches_double_bytes(capsys):
    d = '{"U": [3, 1], "V": [2]}'
    code1, out1, _ = run(capsys, ["arith"] + C1_ARGS + ["smul", "2", d])
    code2, out2, _ = run(capsys, ["arith"] + C1_ARGS + ["double", d])
    assert code1 == code2 == 0
    assert out1 == out2

# the genus-2 arith lines of the README's CLI block, which CI runs, each
# with its curve flags; the last doubles a half of the Weierstrass point
# (5, 0) through the formula's s1 = 0 case
README_G2_ARITH = [
    (G2_ARGS, "add", '{"U": [2, 0, 1], "V": [2]}', '{"U": [2, 2, 1], "V": [5, 4]}'),
    (G2_ARGS, "double", '{"U": [3, 1, 1], "V": [6, 1]}'),
    (G2_F11_ARGS, "double", '{"U": [1, 0, 1], "V": [9, 2]}'),
]

@pytest.mark.parametrize("entry", README_G2_ARITH, ids=["add", "double", "double, s1 = 0"])
def test_readme_genus2_arith_matches_cantor_oracle(capsys, monkeypatch, entry):
    args, op, *operands = entry
    line = "halfjac arith %s %s %s\n" % (" ".join(args), op,
                                          " ".join("'%s'" % t for t in operands))
    assert line in (Path(__file__).resolve().parent.parent / "README.md").read_text()
    curve = jacobian.parse_curve(args[1], args[3])
    ds = [mumford_from_json(curve, json.loads(t)) for t in operands]
    expect = {"result": mumford_to_json(oracles.cantor_add(ds[0], ds[-1]))}
    xgcds = []                  # Cantor's composition, never the formulas
    real = jacobian.raw_xgcd
    monkeypatch.setattr(jacobian, "raw_xgcd", lambda *a: xgcds.append(a) or real(*a))
    code, out, err = run(capsys, ["arith"] + args + [op] + operands)
    assert (code, err, xgcds) == (0, "", [])
    assert out == json.dumps(expect, indent=2) + "\n"

def test_readme_genus3_smul_takes_two_hensel_steps(capsys, monkeypatch):
    """The genus-3 arith line of the README: 3P for P = (8, 4) is a double
    and a sum, each a Hensel step of the point-addition step. Each step
    makes one exact division, K = (f - V^2)/U, and no reduction runs, as
    U = (x + 3)^3 has degree g."""
    point = '{"U": [3, 1], "V": [4]}'
    line = "halfjac arith %s smul 3 '%s'\n" % (" ".join(G3_F11_ARGS), point)
    assert line in (Path(__file__).resolve().parent.parent / "README.md").read_text()
    d = mumford_from_json(jacobian.parse_curve(G3_F11_ARGS[1], G3_F11_ARGS[3]),
                          json.loads(point))
    expect = {"result": mumford_to_json(oracles.cantor_add(oracles.cantor_add(d, d), d))}
    assert expect["result"]["U"] == [5, 5, 9, 1]
    divisions, xgcds = [], []
    real_div, real_xgcd = jacobian._exact_div, jacobian.raw_xgcd
    monkeypatch.setattr(jacobian, "_exact_div", lambda *a: divisions.append(a) or real_div(*a))
    monkeypatch.setattr(jacobian, "raw_xgcd", lambda *a: xgcds.append(a) or real_xgcd(*a))
    code, out, err = run(capsys, ["arith"] + G3_F11_ARGS + ["smul", "3", point])
    assert (code, err, len(divisions), xgcds) == (0, "", 2, [])
    assert out == json.dumps(expect, indent=2) + "\n"

def test_arith_invalid_pair(capsys):
    code, _, err = run(capsys, ["arith"] + C1_ARGS +
                       ["order", '{"U": [5, 1], "V": [1]}'])
    assert code == 1
    assert err

def test_arith_pair_nested_too_deep(capsys):
    code, out, err = run(capsys, ["arith"] + C1_ARGS + ["neg", "[" * 100000])
    assert (code, out) == (1, "")
    assert err.startswith("Error: invalid Mumford pair")

def test_arith_operand_count(capsys):
    code, _, err = run(capsys, ["arith"] + C1_ARGS +
                       ["add", '{"U": [1], "V": []}'])
    assert code == 1


# --- two-torsion ---

def test_two_torsion_g2_count(capsys):
    code, out, _ = run(capsys, ["two-torsion"] + G2_ARGS)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 15
    assert len(data["classes"]) == 15
    assert data["classes"][0] == {"U": [0, 1], "V": []}

def test_two_torsion_byte_identical(capsys):
    _, out1, _ = run(capsys, ["two-torsion"] + G2_ARGS)
    _, out2, _ = run(capsys, ["two-torsion"] + G2_ARGS)
    assert out1 == out2

def test_two_torsion_table_mode(capsys):
    code, out, _ = run(capsys,
                       ["two-torsion"] + C1_ARGS + ["--output", "table"])
    assert code == 0
    assert "U = " in out and out.count("\n") >= 3


# --- enumerate ---

def test_enumerate_points(capsys):
    code, out, _ = run(capsys, ["enumerate"] + C1_ARGS + ["points"])
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 8
    assert data["points"][0] == {"x": 0, "y": 0}
    assert data["points"][-1] == {"infinity": True}

def test_enumerate_theta(capsys):
    code, out, _ = run(capsys,
                       ["enumerate"] + C1_ARGS + ["theta", "--degree", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 1
    assert data["count"] == 8
    assert data["classes"][0] == {"U": [1], "V": []}

def test_enumerate_theta_default_degree_is_g(capsys):
    code, out, _ = run(capsys, ["enumerate"] + C1_ARGS + ["theta"])
    assert code == 0
    assert json.loads(out)["degree"] == 1


# --- theorems ---

def test_theorems_with_config_file(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order_2g_plus_1": [["7", 1, "1"]]}))
    code, out, _ = run(capsys, ["theorems", "--config", str(cfg)])
    assert code == 0
    data = json.loads(out)
    assert len(data["reports"]) == 1
    report = data["reports"][0]
    assert report["theorem_id"] == "order_2g_plus_1"
    assert report["status"] == "consistent with theorem"
    assert report["violations"] == []
    assert "elapsed" not in json.dumps(data)

@pytest.mark.parametrize("config, said", [
    ({"bogus_check": []}, "bogus_check"),
    ([1, 2], "must map check names"),
    ({"notheta": "field=7;alphas=0,1,2"}, "must be a list"),
    ({"notheta": [7]}, "must be a string"),
    ({"small_order_absence": [["field=7;alphas=0,1,2,3,4"]]}, "must be a string"),
    (None, "JSON null"),
    ({"order_2g_plus_1": [["7", [1], "1"]]}, "must be an integer"),
    ({"order_2g_plus_1": [["7", 1.5, "1"]]}, "must be an integer, got 1.5"),
    ({"order_2g_plus_1": [["7", True, "1"]]}, "must be an integer, got True"),
    ({"order_2g_plus_1": [["7", float("inf"), "1"]]}, "must be an integer, got inf"),
    ({"order_2g_plus_1": [["7", 0, "1"]]}, "genus >= 1, got 0"),
    ({"order_2g_plus_1": [["7", -2, "1"]]}, "genus >= 1, got -2"),
], ids=["unknown-check", "not-a-dict", "instances-not-a-list",
        "spec-not-a-string", "spec-is-a-list", "null", "genus-is-a-list",
        "genus-is-a-fraction", "genus-is-a-bool", "genus-is-infinite", "genus-0",
        "genus-negative"])
def test_theorems_malformed_config(capsys, tmp_path, config, said):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, ["theorems", "--config", str(cfg)])
    assert code == 1
    assert said in err

@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000],
                         ids=["not-utf-8", "nested-too-deep"])
def test_theorems_undecodable_config(capsys, tmp_path, content):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(content)
    code, out, err = run(capsys, ["theorems", "--config", str(cfg)])
    assert (code, out) == (1, "")
    assert err.startswith("Error: config is not valid JSON")

def test_theorems_genus_given_as_a_string(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order_2g_plus_1": [["7", "1", "1"]]}))
    code, out, err = run(capsys, ["theorems", "--config", str(cfg)])
    assert code == 0, err
    report = json.loads(out)["reports"][0]
    assert report["parameters"]["g"] == 1 and report["violations"] == []

def test_theorems_violations_exit_2(capsys, monkeypatch):
    fake = TheoremReport("demo", None, "7", 1,
                         [{"why": "synthetic"}], 0.0)
    monkeypatch.setattr(cli, "run_battery", lambda cfg=None: [fake])
    code, out, _ = run(capsys, ["theorems"])
    assert code == 2
    data = json.loads(out)
    assert data["reports"][0]["status"] == "violations found"


# --- plumbing ---

def test_missing_required_flag(capsys):
    code, _, err = run(capsys, ["halve", "--field", "7"])
    assert code == 1

def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 1

def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "halve" in out and "theorems" in out

@pytest.mark.parametrize("argv, code", [
    (["arith"] + C1_ARGS + ["order", '{"U": [0, 1], "V": []}'], 0),
    (["halve"] + C3_ARGS + ["--point", "0,1", "--output", "table"], 0),
    (["halve"] + C1_ARGS + ["--point", "3,1"], 1),
    (["two-torsion"] + G2_ARGS, 1),
    (["--help"], 0),
    (["halve", "--help"], 0),
], ids=["json", "table", "usage_error", "library_error", "help", "command_help"])
def test_captured_streams_are_released(argv, code, monkeypatch):
    # click caches a wrapper per sys.stdout / sys.stderr object in a weak
    # dictionary whose value is the stream itself, which pins the stream
    def fail(curve):
        raise errors.CapExceeded("synthetic library error")

    monkeypatch.setattr(cli, "two_torsion_classes", fail)
    out, err = io.StringIO(), io.StringIO()
    refs = [weakref.ref(out), weakref.ref(err)]
    with redirect_stdout(out), redirect_stderr(err):
        assert cli.main(argv) == code
    assert (err if code else out).getvalue()
    del out, err
    gc.collect()
    assert [r() for r in refs] == [None, None]

def test_library_error_in_a_command_prints_error_line(capsys, monkeypatch):
    def fail(curve):
        raise errors.CapExceeded("synthetic library error")

    monkeypatch.setattr(cli, "two_torsion_classes", fail)
    code, out, err = run(capsys, ["two-torsion"] + G2_ARGS)
    assert (code, out, err) == (1, "", "Error: synthetic library error\n")

def test_malformed_point_exits_1(capsys):
    code, out, err = run(capsys, ["halve"] + C1_ARGS + ["--point", "(1,1"])
    assert (code, out) == (1, "")
    assert err.startswith("Error: ") and "parentheses" in err

@pytest.mark.parametrize("flags, said", [
    (["--field", "7", "--alphas", "0,1,6;2"], "bad element '6;2'"),
    (["--field", "7;2", "--alphas", "0,1,6"], "bad field spec '7;2'"),
], ids=["alphas", "field"])
def test_semicolon_in_a_curve_flag_names_the_flag_text(capsys, flags, said):
    code, out, err = run(capsys, ["enumerate"] + flags + ["points"])
    assert (code, out) == (1, "")
    assert said in err and "curve spec" not in err

def test_bad_field_spec(capsys):
    code, _, err = run(capsys, ["halve", "--field", "6", "--alphas", "0,1,2",
                                "--point", "0,0"])
    assert code == 1
