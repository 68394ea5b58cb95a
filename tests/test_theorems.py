"""Tests for the brute-force torsion-theorem verifiers.

The checks themselves must always pass on constructible instances (the
statements are unconditional theorems); what is tested here is that the
verifiers examine the right objects, count them, pass where required,
and raise the documented errors on the documented preconditions.
"""

import json

import pytest

from halfjac import errors
from halfjac.field import ff_make
from halfjac.jacobian import curve_make, enumerate_points, enumerate_theta, parse_curve_spec
from halfjac.theorems import (
    DEFAULT_CONFIG,
    _splitting_degree,
    TheoremReport,
    check_notheta,
    check_order_2g_plus_1,
    check_small_order_absence,
    check_two_torsion_halving,
    matrix_curves,
    run_battery,
)

import oracles

F7 = ff_make(7)
F11 = ff_make(11)
F13 = ff_make(13)

C2_7 = curve_make(F7, [0, 1, 2, 3, 4])
C1_7 = curve_make(F7, [0, 1, 2])


# --- report mechanics ---

def test_report_passed_and_json():
    r = TheoremReport("demo", "field=7;alphas=0,1,2", "7", 5, [], 0.25)
    assert r.passed()
    data = r.to_json()
    assert data["theorem_id"] == "demo"
    assert data["parameters"]["curve"] == "field=7;alphas=0,1,2"
    assert data["parameters"]["field"] == "7"
    assert data["counts"] == {"instances_checked": 5}
    assert data["violations"] == []
    assert "elapsed" not in json.dumps(data)
    bad = TheoremReport("demo", None, "7", 1, [{"why": "x"}], 0.0)
    assert not bad.passed()
    assert bad.to_json()["violations"] == [{"why": "x"}]
    assert "curve" not in bad.to_json()["parameters"]


# --- small-order absence ---

def test_small_order_absence_g2():
    for p in (7, 11, 13):
        F = ff_make(p)
        curve = curve_make(F, [0, 1, 2, 3, 4])
        r = check_small_order_absence(curve)
        assert r.theorem_id == "small_order_absence"
        assert r.violations == []
        assert r.instances_checked == len(enumerate_points(curve))
        assert r.field_spec == str(p)

def test_small_order_absence_g3():
    curve = curve_make(F7, [0, 1, 2, 3, 4, 5, 6])
    r = check_small_order_absence(curve)
    assert r.violations == []
    assert r.instances_checked == len(enumerate_points(curve))

def test_small_order_absence_rejects_g1():
    with pytest.raises(ValueError):
        check_small_order_absence(C1_7)


# --- order 2g+1 ---

def test_order_2g_plus_1_g1():
    r = check_order_2g_plus_1(F7, 1, 1)
    assert r.violations == []
    assert r.instances_checked == 1
    assert r.curve_spec == "field=7;alphas=3,5,6"
    assert r.to_json()["parameters"]["g"] == 1

def test_order_2g_plus_1_g2():
    r = check_order_2g_plus_1(F11, 2, 1)
    assert r.violations == []
    assert r.curve_spec == "field=11;alphas=2,6,7,8,10"

def test_order_2g_plus_1_g3_g4():
    assert check_order_2g_plus_1(ff_make(29), 3, 1).violations == []
    assert check_order_2g_plus_1(ff_make(19), 4, 1).violations == []

def test_order_2g_plus_1_char_divides():
    with pytest.raises(errors.CharacteristicDividesDegree):
        check_order_2g_plus_1(ff_make(3), 1, 1)
    with pytest.raises(errors.CharacteristicDividesDegree):
        check_order_2g_plus_1(ff_make(5), 2, 1)

def test_order_2g_plus_1_does_not_split():
    with pytest.raises(errors.DoesNotSplit) as info:
        check_order_2g_plus_1(F7, 1, 3)        # -9 = 5 is not a cube mod 7
    assert "degree 3" in str(info.value)

def test_splitting_degree_matches_multiplicative_order():
    for F in (F7, F11, F13):
        for n in (3, 5, 7, 9):
            if n % F.p == 0:
                continue
            for c in F.elements():
                if not c.is_zero():
                    assert _splitting_degree(F, n, c) == \
                        oracles.splitting_degree_by_order(F, n, c), (F.p, n, c)

def test_order_2g_plus_1_rejects_genus_0():
    with pytest.raises(errors.InvalidInput, match="genus >= 1, got 0"):
        check_order_2g_plus_1(F7, 0, 1)

def test_order_2g_plus_1_rejects_zero_b():
    with pytest.raises(ValueError):
        check_order_2g_plus_1(F7, 1, 0)


# --- no curve points in 2 Theta ---

def test_notheta_g2():
    r = check_notheta(C2_7)
    assert r.violations == []
    assert r.instances_checked == len(enumerate_theta(C2_7, 1))

def test_notheta_g2_other_fields():
    for p in (11, 13):
        curve = curve_make(ff_make(p), [0, 1, 2, 3, 4])
        r = check_notheta(curve)
        assert r.violations == []
        assert r.instances_checked == len(enumerate_theta(curve, 1))

def test_notheta_g3_exhausts_theta2():
    curve = curve_make(F7, [0, 1, 2, 3, 4, 5, 6])
    r = check_notheta(curve)
    assert r.violations == []
    assert r.instances_checked == len(enumerate_theta(curve, 2))

def test_notheta_rejects_g1():
    with pytest.raises(ValueError):
        check_notheta(C1_7)


# --- two-torsion halving ---

def test_two_torsion_halving_g1():
    r = check_two_torsion_halving(C1_7)
    assert r.violations == []
    assert r.instances_checked == 3 * 4

def test_two_torsion_halving_g2():
    r = check_two_torsion_halving(C2_7)
    assert r.violations == []
    assert r.instances_checked == 5 * 16


# --- curve matrix and battery ---

def test_matrix_curves_frozen():
    assert matrix_curves(2, 7, 3) == [(0, 1, 2, 3, 4), (0, 1, 2, 3, 5),
                                      (0, 1, 2, 3, 6)]
    assert matrix_curves(1, 7, 2) == [(0, 1, 2), (0, 1, 3)]
    assert matrix_curves(3, 7, 100) == [(0, 1, 2, 3, 4, 5, 6)]

def test_default_config_shape():
    assert set(DEFAULT_CONFIG) == {"small_order_absence", "notheta",
                                   "order_2g_plus_1", "two_torsion_halving"}
    for spec in DEFAULT_CONFIG["small_order_absence"]:
        parse_curve_spec(spec)
    for entry in DEFAULT_CONFIG["order_2g_plus_1"]:
        assert len(entry) == 3

def test_run_battery_default_all_pass():
    reports = run_battery()
    assert len(reports) == sum(len(v) for v in DEFAULT_CONFIG.values())
    for r in reports:
        assert r.passed(), r.to_json()
    ids = [r.theorem_id for r in reports]
    assert ids == sorted(ids, key=["small_order_absence", "notheta",
                                   "order_2g_plus_1",
                                   "two_torsion_halving"].index)

def test_run_battery_custom_and_validation():
    reports = run_battery({"small_order_absence": ["field=7;alphas=0,1,2,3,4"]})
    assert len(reports) == 1 and reports[0].passed()
    with pytest.raises(ValueError):
        run_battery({"unknown_check": []})
    with pytest.raises(ValueError):
        run_battery({"order_2g_plus_1": [["7", 1]]})

def test_battery_deterministic():
    cfg = {"notheta": ["field=7;alphas=0,1,2,3,4"],
           "order_2g_plus_1": [["7", 1, "1"]]}
    a = [r.to_json() for r in run_battery(cfg)]
    b = [r.to_json() for r in run_battery(cfg)]
    assert a == b
