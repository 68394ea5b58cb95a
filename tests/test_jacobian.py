"""Curve, point, and Mumford group-law tests.

The g=1 group law is cross-checked against the chord-tangent oracle in
oracles.py on every point pair for several primes; all other frozen values
(point lists, products, caps) were expanded by hand. Exact equality only.
"""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from halfjac import errors, jacobian
from halfjac.field import ff_make, parse_element, sqrt
from halfjac.halving import lift_to_sqrt_field
from halfjac.poly import NEG_INFINITY, Polynomial, from_roots, gcd_xgcd
from halfjac.jacobian import (
    CurvePoint,
    HyperellipticCurve,
    MumfordDivisor,
    add,
    curve_from_coeffs,
    curve_make,
    curve_spec,
    double,
    embed_point,
    enumerate_points,
    enumerate_theta,
    mumford_from_json,
    mumford_to_json,
    mumford_validate,
    neg,
    order,
    parse_curve,
    parse_curve_spec,
    scalar_mul,
    two_torsion_classes,
    weil_cap,
)

import oracles

F7 = ff_make(7)
F9 = ff_make(3, [1, 0, 1])
F11 = ff_make(11)
F49 = ff_make(7, [4, 0, 1])

C1 = curve_make(F7, [0, 1, 6])            # y^2 = x^3 + 6x, g = 1
C2 = curve_make(F7, [0, 1, 2, 3, 4])      # g = 2
C3 = curve_make(F7, [3, 5, 6])            # y^2 = x^3 + 1


def P(field, *coeffs):
    return Polynomial(field, coeffs)


# --- curve construction ---

def test_curve_make_g1_example():
    assert C1.g == 1
    assert C1.f == P(F7, 0, 6, 0, 1)
    assert C1.alphas == (F7(0), F7(1), F7(6))
    for a in C1.alphas:
        assert C1.f.eval(a).is_zero()

def test_curve_make_g2_example():
    assert C2.g == 2
    assert C2.f.degree == 5 and C2.f.is_monic()

def test_curve_make_errors():
    with pytest.raises(errors.DuplicateRoots):
        curve_make(F7, [0, 0, 1])
    with pytest.raises(errors.EvenCount):
        curve_make(F7, [0, 1, 2, 3])
    with pytest.raises(errors.TooFewRoots):
        curve_make(F7, [4])

def test_curve_from_coeffs():
    c = curve_from_coeffs(F7, [0, 6, 0, 1])          # x^3 + 6x
    assert c == C1
    c = curve_from_coeffs(F7, [1, 0, 0, 1])          # x^3 + 1 = (x-3)(x-5)(x-6)
    assert c == C3
    with pytest.raises(errors.DoesNotSplit):
        curve_from_coeffs(F7, [2, 0, 0, 1])          # x^3 + 2 has no roots mod 7
    with pytest.raises(errors.DuplicateRoots):
        curve_from_coeffs(F7, [5, 5, 3, 1])          # (x-1)^2 (x-2)

def test_curve_equality():
    assert C1 == curve_make(F7, [0, 1, 6])
    assert C1 != curve_make(F7, [0, 1, 5])
    assert hash(C1) == hash(curve_make(F7, [0, 1, 6]))

def test_curve_squarefree_invariant():
    g, _, _ = gcd_xgcd(C2.f, C2.f.derivative())
    assert g.degree == 0


# --- curve points ---

def test_point_validation():
    p = CurvePoint(C1, 4, 2)
    assert p.x == F7(4) and p.y == F7(2)
    with pytest.raises(errors.PointNotOnCurve):
        CurvePoint(C1, 2, 1)
    inf = CurvePoint.infinity(C1)
    assert inf.is_infinity
    assert not p.is_infinity

def test_point_not_on_curve_names_both_sides():
    with pytest.raises(errors.PointNotOnCurve) as info:
        CurvePoint(C1, 2, 1)                 # f(2) = 2 * 1 * (-4) = 6
    assert str(info.value) == ("point (2, 1) is not on the curve: "
                               "y^2 = 1 but f(x) = 6 (y^2 != f(x))")

def test_point_equality():
    assert CurvePoint(C1, 4, 2) == CurvePoint(C1, 4, 2)
    assert CurvePoint(C1, 4, 2) != CurvePoint(C1, 4, 5)
    assert CurvePoint.infinity(C1) == CurvePoint.infinity(C1)
    assert CurvePoint.infinity(C1) != CurvePoint(C1, 4, 2)

def test_enumerate_points_frozen():
    pts = enumerate_points(C1)
    assert pts[-1].is_infinity
    affine = [(int(p.x), int(p.y)) for p in pts[:-1]]
    assert affine == [(0, 0), (1, 0), (4, 2), (4, 5), (5, 1), (5, 6), (6, 0)]

def test_enumerate_points_on_curve_and_hasse():
    C9 = curve_make(F9, [F9.element_at(0), F9.element_at(1), F9.element_at(3)])
    for curve in (C1, C2, C3, C9):
        pts = enumerate_points(curve)
        assert pts[-1].is_infinity
        for p in pts[:-1]:
            assert p.y * p.y == curve.f.eval(p.x)
        q, g = curve.field.q, curve.g
        assert (len(pts) - (q + 1)) ** 2 <= 4 * g * g * q


# --- Mumford representation ---

def test_embed_examples():
    assert embed_point(CurvePoint.infinity(C1)) == MumfordDivisor.identity(C1)
    d = embed_point(CurvePoint(C1, 4, 2))
    assert d.U == P(F7, 3, 1) and d.V == P(F7, 2)
    w = embed_point(CurvePoint(C1, 1, 0))
    assert w.U == P(F7, 6, 1) and w.V.is_zero()

def test_mumford_validate_frozen():
    assert mumford_validate(MumfordDivisor.identity(C1))
    good = MumfordDivisor(C1, P(F7, 3, 1), P(F7, 2))
    assert mumford_validate(good)
    bad = MumfordDivisor(C1, P(F7, 3, 1), P(F7, 1), validate=False)
    assert not mumford_validate(bad)
    nonmonic = MumfordDivisor(C1, P(F7, 3, 2), P(F7, 2), validate=False)
    assert not mumford_validate(nonmonic)
    wide = MumfordDivisor(C1, P(F7, 0, 6, 0, 1), Polynomial.zero(F7), validate=False)
    assert not mumford_validate(wide)          # deg U > g
    vbig = MumfordDivisor(C1, P(F7, 3, 1), P(F7, 0, 1), validate=False)
    assert not mumford_validate(vbig)          # deg V not < deg U

def test_mumford_constructor_raises():
    with pytest.raises(errors.InvalidDivisor):
        MumfordDivisor(C1, P(F7, 3, 1), P(F7, 1))
    with pytest.raises(errors.InvalidDivisor):
        MumfordDivisor(C1, P(F7, 3, 2), P(F7, 2))

def test_neg_examples():
    ident = MumfordDivisor.identity(C1)
    assert neg(ident) == ident
    d = embed_point(CurvePoint(C1, 4, 2))
    assert neg(d) == embed_point(CurvePoint(C1, 4, 5))
    for t in two_torsion_classes(C1):
        assert neg(t) == t

def test_neg_matches_point_involution():
    for p in enumerate_points(C1)[:-1]:
        assert neg(embed_point(p)) == embed_point(CurvePoint(C1, p.x, -p.y))


# --- group law ---

def test_add_weierstrass_pair_g2():
    w0 = embed_point(CurvePoint(C2, 0, 0))
    w1 = embed_point(CurvePoint(C2, 1, 0))
    s = add(w0, w1)
    assert s.U == P(F7, 0, 6, 1) and s.V.is_zero()

def test_add_identity_and_inverse_laws():
    ident = MumfordDivisor.identity(C1)
    for d in enumerate_theta(C1, 1):
        assert add(d, ident) == d
        assert add(ident, d) == d
        assert add(d, neg(d)) == ident

def test_add_curve_mismatch():
    with pytest.raises(errors.CurveMismatch):
        add(MumfordDivisor.identity(C1), MumfordDivisor.identity(C2))

def test_inexact_division_is_a_self_check_failure():
    with pytest.raises(errors.SelfCheckFailed):
        jacobian._exact_div(F7, (1, 0, 1), (0, 1))      # x^2 + 1 by x

def _cantor_case(d1, d2):
    """The case of Cantor's composition that the pair (d1, d2) takes."""
    if d1.is_identity() or d2.is_identity():
        return "identity"
    d0, _, _ = gcd_xgcd(d1.U, d2.U)
    if d0.degree == 0:
        return "coprime"
    d, _, _ = gcd_xgcd(d0, d1.V + d2.V)
    if d1 == d2:
        return "double" if d.degree == 0 else "double, gcd(U, 2V) != 1"
    if (d1.V + d2.V).is_zero():
        return "common factor, V1 = -V2"
    return "common factor, d = 1" if d.degree == 0 else "common factor, d != 1"

def _sample_classes(curve, n, seed):
    """n seeded random points of the curve as degree-1 classes, then n sums
    of two of them by oracles.cantor_add (degree 2 when the x's differ)."""
    rng = random.Random(seed)
    field, points = curve.field, []
    while len(points) < n:
        x = field.element_at(rng.randrange(field.q))
        ys = sqrt(curve.f.eval(x))
        if ys is not None:
            points.append(embed_point(CurvePoint(curve, x, rng.choice(ys))))
    return points + [oracles.cantor_add(*rng.sample(points, 2)) for _ in range(n)]

CANTOR_GROUPS = {
    "C1_F7": lambda: enumerate_theta(C1, 1),
    "C2_F7": lambda: enumerate_theta(C2, 2),
    "C1_F49": lambda: enumerate_theta(
        lift_to_sqrt_field(C1, CurvePoint(C1, 4, 2))[0], 1),
    # (5, 1) lifts: 5 - 0 = 5 and 5 - 2 = 3 are non-squares mod 7
    "C2_F49_sample": lambda: _sample_classes(
        lift_to_sqrt_field(C2, CurvePoint(C2, 5, 1))[0], 20, 0),
    "g3_F7_sample": lambda: random.Random(0).sample(
        enumerate_theta(curve_make(F7, range(7)), 3), 40),
}

@functools.cache
def _cantor_group(name):
    """The classes of one CANTOR_GROUPS entry, built on first use."""
    return CANTOR_GROUPS[name]()

@pytest.mark.parametrize("name", sorted(CANTOR_GROUPS))
def test_group_law_matches_cantor_oracle(name):
    classes = _cantor_group(name)
    for d1 in classes:
        assert oracles.cantor_add(d1, d1) == double(d1)
        assert oracles.cantor_add(d1, neg(d1)).is_identity()
        assert add(d1, neg(d1)).is_identity()
        for d2 in classes:
            assert oracles.cantor_add(d1, d2) == add(d1, d2)

def test_cantor_oracle_pairs_take_every_case():
    seen = {_cantor_case(d1, d2) for name in CANTOR_GROUPS
            for d1 in _cantor_group(name) for d2 in _cantor_group(name)}
    assert seen == {"identity", "coprime", "double", "double, gcd(U, 2V) != 1",
                    "common factor, V1 = -V2", "common factor, d = 1",
                    "common factor, d != 1"}

@pytest.mark.parametrize("p", [10007, 2 ** 61 - 1])
def test_genus2_formulas_match_cantor_oracle_at_large_p(p):
    """Seeded g = 2 samples at primes where every pair is generic but for
    the few that share an x or meet an s1 = 0."""
    rng = random.Random(p)
    curve = curve_make(ff_make(p), rng.sample(range(p), 5))
    classes = _sample_classes(curve, 12, p)
    for d1 in classes:
        assert double(d1) == oracles.cantor_add(d1, d1)
        for d2 in classes:
            assert add(d1, d2) == oracles.cantor_add(d1, d2)

def _point_from(curve, x, flip):
    """The first affine point at x, x + 1, ..., by sqrt; flip picks the
    second root."""
    F = curve.field
    while True:
        ys = sqrt(curve.f.eval(F(x)))
        if ys is not None:
            return embed_point(CurvePoint(curve, F(x), ys[flip]))
        x += 1

# below both primes, so distinct draws stay distinct mod p
SMALLER = st.integers(0, 2 ** 61 - 2)

@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from([2 ** 61 - 1, 2 ** 64 - 2 ** 32 + 1]), st.integers(1, 3),
       st.lists(SMALLER, min_size=7, max_size=7, unique=True),
       SMALLER, SMALLER, st.integers(0, 1), st.integers(0, 1))
def test_group_law_matches_cantor_oracle_at_large_q(p, g, roots, x1, x2, f1, f2):
    """P + Q, P + P, P + (-P), kP + P and kP + (-P) for k <= g, at primes
    that no exhaustive group reaches; 2^64 - 2^32 + 1 has 2-adicity 32."""
    curve = curve_make(ff_make(p), roots[:2 * g + 1])
    P, Q = _point_from(curve, x1, f1), _point_from(curve, x2, f2)
    assert add(P, Q) == oracles.cantor_add(P, Q)
    assert add(P, P) == double(P) == oracles.cantor_add(P, P)
    assert add(P, neg(P)).is_identity()
    kP = P
    for k in range(1, g + 1):
        assert scalar_mul(k, P) == kP
        assert add(kP, neg(P)) == oracles.cantor_add(kP, neg(P))
        kP_next = oracles.cantor_add(kP, P)
        assert add(kP, P) == add(P, kP) == kP_next
        kP = kP_next
    assert scalar_mul(g + 1, P) == kP

def _xgcd_calls(monkeypatch, op, *operands):
    """op(*operands) and the number of raw_xgcd calls it made: no formula
    and no point-addition step makes one, and the one composition makes one
    of its own, after the xgcd of U1 and U2 that a sum brings to it."""
    real, calls = jacobian.raw_xgcd, []
    monkeypatch.setattr(jacobian, "raw_xgcd", lambda *a: calls.append(a) or real(*a))
    try:
        return op(*operands), len(calls)
    finally:
        monkeypatch.undo()

def _degrees(*ds):
    return tuple(d.U.degree for d in ds)

def _coprime(u, v):
    return gcd_xgcd(u, v)[0].degree == 0

def _sum_degree(d1, d2):
    return oracles.cantor_add(d1, d2).U.degree

def _is_twice(d, p):
    """d == 2p for a degree-1 class p off the Weierstrass points."""
    return not p.V.is_zero() and d == oracles.cantor_add(p, p)

G3_F7 = curve_make(F7, range(7))          # every affine point is a Weierstrass point
G3_F11 = curve_make(F11, range(7))        # (8, 4) is not: f(8) = 8! = 5 = 4^2

# case -> (raw_xgcd calls, curve, op, predicate on the operands of op): 0 for
# a formula or a point-addition step, 1 for Cantor's double, 2 for Cantor's
# sum; the operands are the first match among the classes of degree <= 2
GENUS2_CASES = {
    "sum": (0, C2, add, lambda a, b: _degrees(a, b) == (2, 2)
            and _coprime(a.U, b.U) and _sum_degree(a, b) == 2),
    "sum, s1 = 0": (0, C2, add, lambda a, b: _degrees(a, b) == (2, 2)
                    and _coprime(a.U, b.U) and _sum_degree(a, b) < 2),
    # s = (V2 - V1) / U1 mod U2 is 0
    "sum, s = 0": (0, C2, add, lambda a, b: _degrees(a, b) == (2, 2)
                   and _coprime(a.U, b.U) and a.V == b.V),
    "sum, shared factor": (2, C2, add, lambda a, b: _degrees(a, b) == (2, 2)
                           and not _coprime(a.U, b.U) and a != b),
    # add(a, a) is double(a), here Lange's, before any attempt at a sum
    "sum, same class": (0, C2, add, lambda a, b: a == b and _degrees(a) == (2,)
                        and _coprime(a.U, a.V)),
    # every sum with a degree-1 operand takes the point-addition step
    "mixed": (0, C2, add, lambda a, b: _degrees(a, b) == (2, 1)
              and _coprime(a.U, b.U)),
    "mixed, reversed": (0, C2, add, lambda a, b: _degrees(a, b) == (1, 2)
                        and _coprime(a.U, b.U)),
    "mixed, shared factor": (0, C2, add, lambda a, b: _degrees(a, b) == (2, 1)
                             and not _coprime(a.U, b.U)),
    "cancellation, 2P + (-P)": (0, C2, add, lambda a, b: _degrees(a, b) == (2, 1)
                                and _is_twice(a, neg(b))),
    "deg U < 2": (0, C2, add, lambda a, b: _degrees(a, b) == (1, 1)
                  and _coprime(a.U, b.U)),
    "double": (0, C2, double, lambda a: _degrees(a) == (2,)
               and _coprime(a.U, a.V) and _sum_degree(a, a) == 2),
    "double, gcd(U, V) != 1": (1, C2, double, lambda a: _degrees(a) == (2,)
                               and not _coprime(a.U, a.V)),
    # no g = 2 curve over F_7 has such a class; this one over F_11 does
    "double, s1 = 0": (0, curve_make(F11, [0, 1, 2, 4, 5]), double,
                       lambda a: _degrees(a) == (2,) and _coprime(a.U, a.V)
                       and _sum_degree(a, a) < 2),
    # y^2 = x^5 + 1: k = (f - 1)/x^2 = x^3 is 0 mod x^2, so s = 0 for (x^2, 1)
    "double, s = 0": (0, curve_make(F11, [2, 6, 7, 8, 10]), double,
                      lambda a: _degrees(a) == (2,) and _coprime(a.U, a.V)
                      and ((a.curve.f - a.V * a.V) % (a.U * a.U)).is_zero()),
    "double, deg U = 1": (0, C2, double, lambda a: _degrees(a) == (1,)
                          and not a.V.is_zero()),
    "double, Weierstrass": (0, C2, double, lambda a: _degrees(a) == (1,)
                            and a.V.is_zero()),
    "g = 1 sum": (0, C1, add, lambda a, b: _degrees(a, b) == (1, 1) and a != b),
    "g = 1 double": (0, C1, double, lambda a: _degrees(a) == (1,)),
    "g = 3 sum": (2, G3_F7, add, lambda a, b: _degrees(a, b) == (2, 2)
                  and _coprime(a.U, b.U)),
    # Cantor's double, reached through add: its own xgcd, not a sum's two
    "g = 3 sum, same class": (1, G3_F7, add, lambda a, b: a == b
                              and _degrees(a) == (2,)),
    "g = 3 Hensel step, P + 2P": (0, G3_F11, add, lambda a, b: _degrees(a, b) == (1, 2)
                                  and _is_twice(b, a)),
}

@pytest.mark.parametrize("case", list(GENUS2_CASES))
def test_each_formula_and_fallback_is_taken(case, monkeypatch):
    expected, curve, op, pred = GENUS2_CASES[case]
    classes = enumerate_theta(curve, min(curve.g, 2))
    arity = 1 if op is double else 2
    operands = next(ds for ds in itertools.product(classes, repeat=arity) if pred(*ds))
    result, xgcds = _xgcd_calls(monkeypatch, op, *operands)
    assert result == oracles.cantor_add(operands[0], operands[-1])
    assert xgcds == expected

POINT_STEP_GROUPS = {
    "C1_F7": lambda: enumerate_theta(C1, 1),
    "C2_F7": lambda: enumerate_theta(C2, 2),
    "G3_F7": lambda: enumerate_theta(G3_F7, 3),
    "G3_F11_theta2": lambda: enumerate_theta(G3_F11, 2),
    "C1_F49": lambda: _cantor_group("C1_F49"),
}

@pytest.mark.parametrize("name", list(POINT_STEP_GROUPS))
def test_degree_1_operands_never_reach_cantor(name, monkeypatch):
    """Every sum with a degree-1 operand, and so every double of a degree-1
    class, takes the formulas or the point-addition step, never _cantor."""
    classes = POINT_STEP_GROUPS[name]()
    points = [d for d in classes if d.U.degree == 1]
    assert points
    real, calls = jacobian._cantor, []
    monkeypatch.setattr(jacobian, "_cantor", lambda *a: calls.append(a) or real(*a))
    for p in points:
        assert double(p) == oracles.cantor_add(p, p)
        for d in classes:
            assert add(p, d) == add(d, p) == oracles.cantor_add(p, d)
    assert calls == []

def test_add_outputs_reduced_and_valid():
    J = enumerate_theta(C1, 1)
    for d1, d2 in itertools.product(J, J):
        s = add(d1, d2)
        assert s.U.degree is NEG_INFINITY or s.U.degree <= C1.g
        assert mumford_validate(s)

def test_double_weierstrass_is_identity():
    for curve in (C1, C2):
        for a in curve.alphas:
            w = embed_point(CurvePoint(curve, a, 0))
            assert double(w) == MumfordDivisor.identity(curve)

def test_scalar_mul_basics():
    d = embed_point(CurvePoint(C1, 4, 2))
    ident = MumfordDivisor.identity(C1)
    assert scalar_mul(0, d) == ident
    assert scalar_mul(1, d) == d
    assert scalar_mul(2, d) == double(d)
    assert scalar_mul(-1, d) == neg(d)
    acc = ident
    for n in range(1, 9):
        acc = add(acc, d)
        assert scalar_mul(n, d) == acc

@pytest.mark.parametrize("n", [1, 2, 3, 8, 13])
def test_scalar_mul_doubles_bit_length_minus_one_times(n, monkeypatch):
    d = embed_point(CurvePoint(C2, 5, 1))
    real, calls = jacobian.double, []
    monkeypatch.setattr(jacobian, "double", lambda e: calls.append(e) or real(e))
    result = scalar_mul(n, d)
    monkeypatch.undo()
    assert len(calls) == n.bit_length() - 1
    expect = MumfordDivisor.identity(C2)
    for _ in range(n):
        expect = oracles.cantor_add(expect, d)
    assert result == expect

def test_operator_sugar():
    d = embed_point(CurvePoint(C1, 4, 2))
    assert d + d == double(d)
    assert -d == neg(d)
    assert 3 * d == scalar_mul(3, d)

def test_order_examples():
    assert order(MumfordDivisor.identity(C1)) == 1
    assert order(embed_point(CurvePoint(C1, 1, 0))) == 2
    assert order(embed_point(CurvePoint(C3, 0, 1))) == 3
    assert scalar_mul(3, embed_point(CurvePoint(C3, 0, 1))) == MumfordDivisor.identity(C3)

def test_order_2g_plus_1_on_g2_curve():
    # y^2 = x^5 + 1 over F_11; the fifth roots of -1 are 2, 6, 7, 8, 10
    c = curve_make(F11, [2, 6, 7, 8, 10])
    assert c.f == Polynomial(F11, [1, 0, 0, 0, 0, 1])
    d = embed_point(CurvePoint(c, 0, 1))
    assert order(d) == 5
    assert scalar_mul(5, d) == MumfordDivisor.identity(c)

def test_order_cap():
    with pytest.raises(errors.CapExceeded):
        order(embed_point(CurvePoint(C1, 4, 2)), cap=1)

ORDER_GROUPS = [C1, C3, curve_make(F11, [0, 1, 2]), C2,
                lift_to_sqrt_field(C1, CurvePoint(C1, 4, 2))[0]]

@pytest.mark.parametrize("curve", ORDER_GROUPS,
                         ids=["C1_F7", "C3_F7", "g1_F11", "C2_F7", "C1_F49"])
def test_order_matches_linear_oracle(curve):
    classes = enumerate_theta(curve, curve.g)
    assert len(classes) > 1
    for d in classes:
        assert order(d) == oracles.order_by_addition(d)

def test_order_cap_is_exact():
    for d in enumerate_theta(C2, 2):
        n = oracles.order_by_addition(d)
        assert order(d, cap=n) == n
        with pytest.raises(errors.CapExceeded):
            order(d, cap=n - 1)

def test_order_takes_sqrt_many_additions(monkeypatch):
    F101 = ff_make(101)
    curve = curve_make(F101, [4, 7, 11, 27, 64])
    curve2, P2 = lift_to_sqrt_field(curve, CurvePoint(curve, 1, 79))
    assert curve2.field.q == 101 ** 2
    d = embed_point(P2)
    real_add = jacobian.add
    calls = []

    def counting_add(d1, d2):
        calls.append(None)
        return real_add(d1, d2)

    monkeypatch.setattr(jacobian, "add", counting_add)
    n = order(d)
    monkeypatch.undo()
    assert n == 620
    assert oracles.is_exact_order(d, n)
    assert len(calls) <= 2 * math.ceil(math.sqrt(2 * n))

def test_weil_cap_frozen():
    assert weil_cap(C1) == 13           # floor((sqrt 7 + 1)^2)
    assert weil_cap(C2) == 176          # floor((sqrt 7 + 1)^4)


# --- two-torsion ---

def test_two_torsion_g1_frozen():
    ts = two_torsion_classes(C1)
    assert [t.U for t in ts] == [P(F7, 0, 1), P(F7, 6, 1), P(F7, 1, 1)]
    assert all(t.V.is_zero() for t in ts)

def test_two_torsion_g2():
    ts = two_torsion_classes(C2)
    assert len(ts) == 15
    assert len(set(ts)) == 15
    assert sum(1 for t in ts if t.U.degree == 1) == 5
    assert sum(1 for t in ts if t.U.degree == 2) == 10
    ident = MumfordDivisor.identity(C2)
    for t in ts:
        assert mumford_validate(t)
        assert double(t) == ident
        assert order(t) == 2


# --- theta strata ---

def test_theta_d0_d1():
    assert enumerate_theta(C1, 0) == [MumfordDivisor.identity(C1)]
    th1 = enumerate_theta(C1, 1)
    embeds = {embed_point(p) for p in enumerate_points(C1)}
    assert set(th1) == embeds
    assert len(th1) == len(set(th1))

def test_theta_degree_out_of_range():
    with pytest.raises(errors.DegreeOutOfRange):
        enumerate_theta(C1, -1)
    with pytest.raises(errors.DegreeOutOfRange):
        enumerate_theta(C1, 2)

def test_theta_full_group_g1():
    J = enumerate_theta(C1, 1)
    assert len(J) == 8
    Jset = set(J)
    for d1, d2 in itertools.product(J, J):
        assert add(d1, d2) in Jset

def test_theta_g2_closure_and_size():
    J = enumerate_theta(C2, 2)
    assert len(J) == len(set(J))
    for d in J:
        assert mumford_validate(d)
    # full rational two-torsion forces 16 | #J; Weil interval bounds it
    assert len(J) % 16 == 0
    assert len(J) <= weil_cap(C2)
    Jset = set(J)
    sample = J[:: max(1, len(J) // 24)]
    for d1 in sample:
        for d2 in J:
            assert add(d1, d2) in Jset

def test_theta_matches_multiset_route_g1():
    assert set(enumerate_theta(C1, 1)) == oracles.stable_multiset_theta(C1, 1)

def test_theta_matches_multiset_route_g2():
    assert set(enumerate_theta(C2, 2)) == oracles.stable_multiset_theta(C2, 2)


# --- independent chord-tangent oracle, g = 1 ---

@pytest.mark.parametrize("q", [7, 11, 13, 31])
def test_add_matches_chord_tangent_oracle(q):
    Fq = ff_make(q)
    roots = [0, 1, 2]
    curve = curve_make(Fq, roots)
    coeffs = oracles.ec_coeffs_from_roots(q, roots)
    assert curve.f == Polynomial(Fq, [coeffs[2], coeffs[1], coeffs[0], Fq(1)])

    def to_div(pt):
        if pt is None:
            return MumfordDivisor.identity(curve)
        return embed_point(CurvePoint(curve, pt[0], pt[1]))

    def from_div(d):
        if d.U.degree is NEG_INFINITY or d.U.degree == 0:
            return None
        a = -d.U.coeffs[0]
        return (int(a), int(d.V.eval(a)))

    pts = oracles.ec_points(q, coeffs)
    assert len(pts) == len(enumerate_points(curve))
    for p1, p2 in itertools.product(pts, pts):
        expect = oracles.ec_add(q, coeffs, p1, p2)
        got = from_div(add(to_div(p1), to_div(p2)))
        assert got == expect


# --- group axioms via memoized add tables ---

def _add_table(J):
    index = {d: i for i, d in enumerate(J)}
    table = {}
    for i, d1 in enumerate(J):
        for j, d2 in enumerate(J):
            table[i, j] = index[add(d1, d2)]
    return index, table

@pytest.mark.parametrize("curve", [curve_make(F11, [0, 1, 2]), C2],
                         ids=["g1_f11", "g2_f7"])
def test_group_axioms_exhaustive(curve):
    J = enumerate_theta(curve, curve.g)
    index, table = _add_table(J)
    ident = index[MumfordDivisor.identity(curve)]
    n = len(J)
    for i in range(n):
        assert table[i, ident] == i
        assert table[ident, i] == i
        assert table[i, index[neg(J[i])]] == ident
        for j in range(i, n):
            assert table[i, j] == table[j, i]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert table[table[i, j], k] == table[i, table[j, k]]


# --- serialization ---

def test_curve_spec_round_trip():
    assert curve_spec(C1) == "field=7;alphas=0,1,6"
    assert parse_curve_spec("field=7;alphas=0,1,6") == C1
    c49 = curve_make(F49, [parse_element(F49, t) for t in ("(0,0)", "(1,0)", "(3,1)")])
    spec = curve_spec(c49)
    assert spec == "field=7^2:4,0;alphas=(0,0),(1,0),(3,1)"
    assert parse_curve_spec(spec) == c49

def test_parse_curve_from_field_and_alphas():
    assert parse_curve("7", "0,1,6") == C1
    assert parse_curve("7^2:4,0", "(0,0),(1,0),(3,1)") == \
        parse_curve_spec("field=7^2:4,0;alphas=(0,0),(1,0),(3,1)")

def test_curve_spec_errors():
    for bad in ("field=7", "alphas=0,1,6", "field=7;alphas=", "field=7;alphas=0,0,1",
                "field=7;alphas=0,1,6;extra=1", "fields=7;alphas=0,1,6"):
        with pytest.raises((ValueError, errors.HalfjacError)):
            parse_curve_spec(bad)

def test_mumford_json_round_trip():
    d = embed_point(CurvePoint(C1, 4, 2))
    data = mumford_to_json(d)
    assert data == {"U": [3, 1], "V": [2]}
    assert mumford_from_json(C1, data) == d
    ident = MumfordDivisor.identity(C1)
    assert mumford_to_json(ident) == {"U": [1], "V": []}
    assert mumford_from_json(C1, {"U": [1], "V": []}) == ident
    with pytest.raises(errors.InvalidDivisor):
        mumford_from_json(C1, {"U": [3, 1], "V": [1]})

def test_mumford_json_rejects_booleans():
    # a bool is an int to Python, but JSON true/false are no field elements;
    # read as 1, {"U": [3, true], "V": [2]} would be the class of (4, 2)
    for data in ({"U": [3, True], "V": [2]}, {"U": [3, 1], "V": [False]}):
        with pytest.raises(errors.InvalidInput):
            mumford_from_json(C1, data)
    curve = parse_curve("7^2:4,0", "(0,0),(1,0),(3,1)")
    with pytest.raises(errors.InvalidInput):
        mumford_from_json(curve, {"U": [[3, True], [1, 0]], "V": [[2, 0]]})
