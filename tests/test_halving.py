"""Halving-formula tests.

The master property in every test: a claimed half doubles back to the
input class under the independent Cantor law. Frozen sign vectors and
Mumford pairs below were computed by hand for y^2 = x^3 + 1 and
y^2 = x^3 + 6x over F_7. Exact equality throughout.
"""

import collections
import itertools
import math
import types

import pytest
from hypothesis import assume, given, settings, strategies as st

from halfjac import errors
from halfjac.field import ff_make, quadratic_extension, sqrt
from halfjac.poly import Polynomial, from_raws, from_roots, symmetric_functions
from halfjac.jacobian import (
    CurvePoint,
    MumfordDivisor,
    add,
    curve_make,
    double,
    embed_point,
    enumerate_points,
    enumerate_theta,
    neg,
    order,
    two_torsion_classes,
)
from halfjac.halving import (
    HalfLift,
    SignVector,
    half_from_signs,
    halve_point,
    lift_to_sqrt_field,
    recover_signs,
    sqrt_choices,
)

import oracles

F7 = ff_make(7)
F9 = ff_make(3, [1, 0, 1])
F13 = ff_make(13)

C1 = curve_make(F7, [0, 1, 6])          # y^2 = x^3 + 6x
C3 = curve_make(F7, [3, 5, 6])          # y^2 = x^3 + 1
C2 = curve_make(F7, [0, 1, 2, 3, 4])    # g = 2
C13 = curve_make(F13, [1, 3, 4, 9, 10]) # g = 2, (0, 5) halves without lifting
G3 = curve_make(F13, [0, 1, 2, 3, 4, 5, 6])

P01 = CurvePoint(C3, 0, 1)              # b != 0, every a - alpha_i a square
P10 = CurvePoint(C1, 1, 0)              # Weierstrass, b = 0, no lift needed
P05 = CurvePoint(C13, 0, 5)


def P(field, *coeffs):
    return Polynomial(field, coeffs)


# --- sqrt_choices ---

def test_sqrt_choices_rejects_infinity():
    with pytest.raises(errors.PointAtInfinity):
        sqrt_choices(C1, CurvePoint.infinity(C1))

def test_sqrt_choices_reports_missing_index():
    with pytest.raises(errors.SquareRootMissing) as info:
        sqrt_choices(C1, CurvePoint(C1, 4, 2))    # 4 - 1 = 3 is a non-square
    assert info.value.index == 1

def test_sqrt_choices_frozen_b_nonzero():
    svs = sqrt_choices(C3, P01)
    rs = [tuple(int(x) for x in sv.r) for sv in svs]
    assert rs == [(2, 3, 1), (2, 4, 6), (5, 3, 6), (5, 4, 1)]

def test_sqrt_choices_frozen_b_zero():
    svs = sqrt_choices(C1, P10)
    rs = [tuple(int(x) for x in sv.r) for sv in svs]
    assert rs == [(1, 0, 3), (1, 0, 4), (6, 0, 3), (6, 0, 4)]

def test_sign_vector_invariants():
    for curve, pt in ((C3, P01), (C1, P10), (C13, P05)):
        for sv in sqrt_choices(curve, pt):
            assert len(sv.r) == 2 * curve.g + 1
            for ri, alpha in zip(sv.r, curve.alphas):
                assert ri * ri == pt.x - alpha
            prod = curve.field.one()
            for ri in sv.r:
                prod = prod * ri
            assert prod == -pt.y
            for i, j in itertools.combinations(range(len(sv.r)), 2):
                assert sv.r[i] != sv.r[j] and sv.r[i] != -sv.r[j]
    # the 2^(2g) order equals a filter over all 2^(2g+1) sign patterns
    for curve, pt in ((C13, P05), (C13, CurvePoint(C13, 1, 0)),
                      (G3, CurvePoint(G3, 7, 3)), (G3, CurvePoint(G3, 0, 0))):
        curve2, pt2 = lift_to_sqrt_field(curve, pt)
        assert [sv.r for sv in sqrt_choices(curve2, pt2)] == \
            _brute_sign_vectors(curve2, pt2)


def _brute_sign_vectors(curve, pt):
    F, n = curve.field, len(curve.alphas)
    roots = [F.zero() if pt.x == alpha else sqrt(pt.x - alpha)[0]
             for alpha in curve.alphas]
    out = []
    for mask in range(1 << n):
        r = tuple(-roots[i] if (mask >> (n - 1 - i)) & 1 else roots[i]
                  for i in range(n))
        prod = F.one()
        for ri in r:
            prod = prod * ri
        if prod == -pt.y and r not in out:     # a zero coordinate repeats r
            out.append(r)
    return out

def test_sign_vector_validation():
    with pytest.raises(ValueError):
        SignVector(C3, P01, (F7(2), F7(3), F7(6)))   # product is 1, not -b

def test_sign_vector_needs_an_affine_point_of_its_curve():
    with pytest.raises(errors.PointAtInfinity):
        SignVector(C3, CurvePoint.infinity(C3), (2, 3, 1))
    with pytest.raises(errors.CurveMismatch):
        SignVector(C1, P01, (2, 3, 1))

def test_sign_vector_takes_ints():
    sv = SignVector(C3, P01, (2, 3, 1))
    assert sv.r == (F7(2), F7(3), F7(1))
    half = half_from_signs(sv).mumford
    assert half == half_from_signs(SignVector(C3, P01, sv.r)).mumford
    assert half in [h.mumford for h in halve_point(C3, P01)]


# --- half_from_signs ---

def test_halves_frozen_g1():
    halves = halve_point(C3, P01)
    pairs = [(h.mumford.U, h.mumford.V) for h in halves]
    assert pairs == [
        (P(F7, 3, 1), P(F7, 3)),
        (P(F7, 5, 1), P(F7, 3)),
        (P(F7, 0, 1), P(F7, 6)),
        (P(F7, 6, 1), P(F7, 3)),
    ]

def test_halves_frozen_weierstrass():
    halves = halve_point(C1, P10)
    pairs = [(h.mumford.U, h.mumford.V) for h in halves]
    assert pairs == [
        (P(F7, 3, 1), P(F7, 2)),
        (P(F7, 2, 1), P(F7, 1)),
        (P(F7, 2, 1), P(F7, 6)),
        (P(F7, 3, 1), P(F7, 5)),
    ]

def test_g1_closed_form():
    # g = 1: U = x - a - s2, V = s3 - s1 s2
    for curve, pt in ((C3, P01), (C1, P10)):
        for h in halve_point(curve, pt):
            s1, s2, s3 = symmetric_functions(h.sign_vector.r)
            assert h.mumford.U == Polynomial(curve.field, [-pt.x - s2, curve.field.one()])
            assert h.mumford.V == Polynomial.constant(s3 - s1 * s2)

def test_half_certificate_rejects_wrong_pairs(monkeypatch):
    """A forged closed form fails the certificate, one case per clause."""
    import halfjac.halving as halving
    real = halving._closed_form
    sv = sqrt_choices(C13, P05)[0]
    U, V, c = real(C13, P05.x)([x.raw for x in sv.r])
    U, V = from_raws(F13, U), from_raws(F13, V)
    other = sqrt_choices(C13, P05.involution())[0]
    forged_halves = [
        ((U * 2).raws, V.raws, c, "U is not monic of degree g"),
        (U.raws, (V + Polynomial.x(F13) ** 2).raws, c, "deg V is not below g"),
        (U.raws, (V + 1).raws, c, r"f - v\^2 != \(x - a\) U\^2"),
        # a genuine half of (a, -b) passes the first three clauses
        real(C13, P05.x)([x.raw for x in other.r]) + (r"v\(a\) != -b",),
    ]
    for *forged, clause in forged_halves:
        monkeypatch.setattr(halving, "_closed_form",
                            lambda curve, a: lambda r: tuple(forged))
        with pytest.raises(errors.SelfCheckFailed, match=clause):
            half_from_signs(sv)

def _certificate_verdict(curve, a, b, U, V, c):
    """The clause halving._certify rejects (U, V) with, or None."""
    import halfjac.halving as halving
    F = curve.field
    try:
        halving._certify(curve, a.raw, b.raw, halving._divide_at(F, curve.f.raws, a.raw),
                         U.raws, V.raws, c.raw, errors.NotAHalf)
    except errors.NotAHalf as exc:
        return str(exc)
    return None

def _large_q_point(p):
    """A rational g = 2 point at p built around its sign vector, as in
    test_halves_at_large_q: alpha_i = a - r_i^2, b = prod r_i."""
    F = ff_make(p)
    r = [F(x) for x in (3, 5, 7, 11, 2 ** 40 + 15)]
    a = F(2 ** 59 + 1)
    curve = curve_make(F, [a - x * x for x in r])
    return curve, CurvePoint(curve, a, math.prod(r, start=F.one()))

def test_certificate_agrees_with_the_three_product_reference():
    """_certify, which splits f and v at a and checks two products, gives
    the verdict and the clause of oracles.certificate_clause, the
    three-product identity, on every genuine half and on forged ones: one
    coefficient of U or V moved by one (V up to degree g), c moved by one,
    or b negated. Between them the forgeries fail every clause. A half is
    also checked against f + 1, which leaves f_1 as it is and moves f(a)
    alone."""
    G3_lifted = lift_to_sqrt_field(G3, CurvePoint(G3, 7, 3))
    clauses = set()
    assert G3_lifted[0].field.q == 169
    for curve, pt in ((C13, P05), (C13, P05.involution()), G3_lifted,
                      _large_q_point(2 ** 61 - 1)):
        F, g, a, b = curve.field, curve.g, pt.x, pt.y
        sign = F(-1) if g % 2 else F.one()
        for h in halve_point(curve, pt):
            U, V = h.mumford.U, h.mumford.V
            c = sign * symmetric_functions(h.sign_vector.r)[0]
            assert oracles.certificate_clause(curve, a, b, U, V, c) is None
            assert _certificate_verdict(curve, a, b, U, V, c) is None
            forged = [(U + Polynomial.x(F) ** i, V, c, b) for i in range(g + 1)]
            forged += [(U, V + Polynomial.x(F) ** i, c, b) for i in range(g + 1)]
            forged += [(U, V, c + 1, b), (U, V, c, -b)]
            for fU, fV, fc, fb in forged:
                want = oracles.certificate_clause(curve, a, fb, fU, fV, fc)
                assert _certificate_verdict(curve, a, fb, fU, fV, fc) == want
                clauses.add(want)
            shifted = types.SimpleNamespace(field=F, g=g, f=curve.f + 1)
            assert (oracles.certificate_clause(shifted, a, b, U, V, c)
                    == _certificate_verdict(shifted, a, b, U, V, c)
                    == "f - v^2 != (x - a) U^2")
    assert clauses == {"U is not monic of degree g", "deg V is not below g",
                       "f - v^2 != (x - a) U^2", "v(a) != -b"}

def test_rational_halving_cost_does_not_grow_with_q(monkeypatch):
    """Cost contract of rational halving: on a g = 2 point it makes the
    same calls at every q, one split of f and one table of powers per
    point, then per half one symmetric-function pass, one certificate,
    one synthetic division and two products. Calls are counted, no clock
    is read."""
    import halfjac.halving as halving
    calls = collections.Counter()
    for name in ("raw_mul", "raw_divrem", "raw_symmetric_functions", "_certify"):
        def counted(*args, _real=getattr(halving, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(halving, name, counted)
    for p in (10007, 1000003, 2 ** 61 - 1, 2 ** 127 - 1):
        curve, pt = _large_q_point(p)
        calls.clear()
        assert len(halve_point(curve, pt)) == 16
        assert calls == {"raw_mul": 2 + 2 * 16, "raw_divrem": 1 + 16,
                         "raw_symmetric_functions": 16, "_certify": 16}, p

def test_half_from_signs_matches_halve_point():
    """One sign vector's own table of powers gives the half that the table
    halve_point shares among all of a point's halves gives it; the g = 3
    point lifts to F_169 and has 64 halves."""
    G3_lifted = lift_to_sqrt_field(G3, CurvePoint(G3, 7, 3))
    assert G3_lifted[0].field.q == 169
    for curve, pt in ((C3, P01), (C1, P10), (C13, P05), G3_lifted):
        svs = sqrt_choices(curve, pt)
        halves = halve_point(curve, pt)
        assert len(halves) == len(svs) == 4 ** curve.g
        for sv, h in zip(svs, halves):
            assert sv.r == h.sign_vector.r
            assert half_from_signs(sv).mumford == h.mumford
    # equal coefficients of one point's halves are one object
    coeffs = [c for h in halve_point(*G3_lifted) for p in (h.mumford.U, h.mumford.V)
              for c in p.raws]
    assert len({id(c) for c in coeffs}) == len(set(coeffs)) < len(coeffs)

def test_doubling_oracle_master_property():
    for curve, pt in ((C3, P01), (C1, P10), (C13, P05)):
        target = embed_point(pt)
        for h in halve_point(curve, pt):
            assert double(h.mumford) == target

def test_half_shape_invariants():
    for curve, pt in ((C3, P01), (C1, P10), (C13, P05)):
        for h in halve_point(curve, pt):
            U, V = h.mumford.U, h.mumford.V
            assert U.is_monic() and U.degree == curve.g
            assert V.degree < curve.g
            from halfjac.poly import gcd_xgcd
            g, _, _ = gcd_xgcd(U, curve.f)
            assert g.degree == 0
            # P itself never sits in the support of the half: when a is a
            # root of U, the support point above a is (a, V(a)) = (a, -b)
            if U.eval(pt.x).is_zero():
                assert V.eval(pt.x) == -pt.y
                assert V.eval(pt.x) != pt.y

def test_halve_point_cardinality():
    assert len(halve_point(C3, P01)) == 4
    halves = halve_point(C13, P05)
    assert len(halves) == 16
    assert len({(h.mumford.U, h.mumford.V) for h in halves}) == 16


# --- brute-force cross-checks against the exhaustive Jacobian scan ---

def test_halves_match_brute_force_g1():
    J = enumerate_theta(C3, 1)
    for pt in (P01, CurvePoint(C3, 0, 6), CurvePoint(C3, 3, 0)):
        if pt.y.is_zero():
            curve2, pt2 = lift_to_sqrt_field(C3, pt)
            if curve2 is not C3:
                continue
        got = {h.mumford for h in halve_point(C3, pt)}
        expect = set(oracles.brute_halves(C3, embed_point(pt), J))
        assert got == expect

def test_halves_match_brute_force_g2():
    J = enumerate_theta(C13, 2)
    got = {h.mumford for h in halve_point(C13, P05)}
    expect = set(oracles.brute_halves(C13, embed_point(P05), J))
    assert len(expect) == 16
    assert got == expect


# --- lifting ---

def test_lift_identity_when_squares_exist():
    curve2, pt2 = lift_to_sqrt_field(C3, P01)
    assert curve2 is C3 and pt2 is P01

def test_lift_needs_an_affine_point_of_its_curve():
    with pytest.raises(errors.PointAtInfinity):
        lift_to_sqrt_field(C1, CurvePoint.infinity(C1))
    with pytest.raises(errors.CurveMismatch):
        lift_to_sqrt_field(C1, P01)

def test_sqrt_choices_rejects_a_point_of_another_curve():
    with pytest.raises(errors.CurveMismatch):
        sqrt_choices(C1, P01)

def test_lift_to_quadratic_extension():
    pt = CurvePoint(C1, 4, 2)
    curve2, pt2 = lift_to_sqrt_field(C1, pt)
    F2, emb = quadratic_extension(F7)
    assert curve2.field is F2
    assert pt2.x == emb(F7(4)) and pt2.y == emb(F7(2))
    assert curve2.alphas == tuple(emb(a) for a in C1.alphas)
    halves = halve_point(curve2, pt2)
    assert len(halves) == 4
    target = embed_point(pt2)
    for h in halves:
        assert double(h.mumford) == target

def test_lift_builds_one_curve_per_curve():
    """Every lifted point of a curve lies on one lifted curve object,
    built on the first lift; a point that needs no lift keeps its curve."""
    pts = [CurvePoint(C1, 4, 2), CurvePoint(C1, 4, 5), CurvePoint(C1, 0, 0)]
    lifts = [lift_to_sqrt_field(C1, pt)[0] for pt in pts]
    assert lifts[0] is lifts[1] is lifts[2] is not C1
    assert lifts[0] == curve_make(quadratic_extension(F7)[0], lifts[0].alphas)
    assert lift_to_sqrt_field(C1, P10)[0] is C1

def test_lift_all_weierstrass_points_order_4():
    for curve in (C1, C3):
        for alpha in curve.alphas:
            w = CurvePoint(curve, alpha, 0)
            curve2, w2 = lift_to_sqrt_field(curve, w)
            halves = halve_point(curve2, w2)
            assert len(halves) == 4
            for h in halves:
                assert order(h.mumford) == 4


# --- negation symmetry ---

def test_minus_rr_reversal():
    for curve, pt in ((C3, P01), (C13, P05)):
        halves = halve_point(curve, pt)
        conj = halve_point(curve, pt.involution())
        k = len(halves)
        for j in range(k):
            assert conj[j].mumford == neg(halves[k - 1 - j].mumford)
            assert conj[j].mumford.U == halves[k - 1 - j].mumford.U

def test_minus_rr_weierstrass_self_pairing():
    halves = halve_point(C1, P10)
    k = len(halves)
    for j in range(k):
        assert neg(halves[j].mumford) == halves[k - 1 - j].mumford


# --- the auxiliary polynomial identities ---

def _vd(curve, h):
    sign = curve.field(-1) if curve.g % 2 else curve.field.one()
    s1 = symmetric_functions(h.sign_vector.r)[0]
    return h.mumford.U * (sign * s1) + h.mumford.V

@pytest.mark.parametrize("curve,pt", [(C3, P01), (C1, P10), (C13, P05)],
                         ids=["g1", "g1_w", "g2"])
def test_h_r_factorization_identity(curve, pt):
    F = curve.field
    a = pt.x
    sign = F(-1) if curve.g % 2 else F.one()
    a_minus_t2 = Polynomial(F, [a, F.zero(), F(-1)])
    for h in halve_point(curve, pt):
        vd = _vd(curve, h)
        lhs = Polynomial.x(F) * (h.mumford.U.compose(a_minus_t2) * sign) \
            - vd.compose(a_minus_t2)
        assert lhs == from_roots(F, h.sign_vector.r)
        assert lhs.eval(F.zero()) == pt.y      # constant term of h_r is b

@pytest.mark.parametrize("curve,pt", [(C3, P01), (C13, P05)], ids=["g1", "g2"])
def test_vd_closed_form(curve, pt):
    # v_D(t) = sum_j s_{2j-1} (a-t)^{g-j+1} - b
    F = curve.field
    g = curve.g
    amt = Polynomial(F, [pt.x, F(-1)])
    for h in halve_point(curve, pt):
        s = symmetric_functions(h.sign_vector.r)
        expect = Polynomial.constant(-pt.y)
        for j in range(1, g + 1):
            expect = expect + amt ** (g - j + 1) * s[2 * j - 2]
        assert _vd(curve, h) == expect


# --- the b = 0 specialization with the vanishing root last ---

def test_b0_specialization_formulas():
    curve = curve_make(F13, [1, 3, 4, 9, 0])     # alpha_{2g+1} = 0
    pt = CurvePoint(curve, 0, 0)
    halves = halve_point(curve, pt)
    assert len(halves) == 16
    x = Polynomial.x(F13)
    for h in halves:
        assert h.sign_vector.r[-1].is_zero()
        nonzero = h.sign_vector.r[:-1]
        s = symmetric_functions(nonzero)         # s_1..s_4 of the 2g nonzero roots

        def sk(k):
            return s[k - 1] if k <= len(s) else F13.zero()

        g = curve.g
        U = x ** g
        V = Polynomial.zero(F13)
        for j in range(1, g + 1):
            U = U + x ** (g - j) * (sk(2 * j) if j % 2 == 0 else -sk(2 * j))
            V = V + ((-x) ** (g - j)) * (sk(2 * j + 1) - sk(1) * sk(2 * j))
        assert h.mumford.U == U
        assert h.mumford.V == V


# --- sign recovery ---

def test_recover_round_trip():
    for curve, pt in ((C3, P01), (C1, P10), (C13, P05)):
        for h in halve_point(curve, pt):
            sv, back = recover_signs(curve, h.mumford.U, h.mumford.V)
            assert back == pt
            assert sv.r == h.sign_vector.r

def test_s1r_identity():
    for curve, pt in ((C3, P01), (C13, P05)):
        g, F = curve.g, curve.field
        sign = F(-1) if (g + 1) % 2 else F.one()
        for h in halve_point(curve, pt):
            s1 = symmetric_functions(h.sign_vector.r)[0]
            total = F.zero()
            for alpha in curve.alphas:
                total = total + h.mumford.V.eval(alpha) / h.mumford.U.eval(alpha)
            assert F(2 * g) * s1 == sign * total

def test_recover_shared_root():
    with pytest.raises(errors.SharedRootWithF):
        recover_signs(C1, Polynomial.x(F7), Polynomial.constant(F7(1)))

def test_recover_shape_errors():
    # the certificate's first two clauses decide the shape
    with pytest.raises(errors.NotAHalf, match="U is not monic of degree g"):
        recover_signs(C1, P(F7, 3, 2), P(F7, 2))        # not monic
    # V = x keeps the ratios V(alpha_i)/U(alpha_i) = alpha_i distinct
    with pytest.raises(errors.NotAHalf, match="U is not monic of degree g"):
        recover_signs(C1, Polynomial.one(F7), Polynomial.x(F7))     # deg U != g
    with pytest.raises(errors.NotAHalf, match="deg V is not below g"):
        recover_signs(C13, P(F13, 2, 0, 1), P(F13, 0, 0, 1))        # deg V too big

def test_recover_rejects_equal_first_ratios():
    # V = 0 makes every V(alpha_i)/U(alpha_i) zero, so the s_1 formula
    # would divide by zero
    with pytest.raises(errors.NotAHalf):
        recover_signs(C1, P(F7, 4, 1), Polynomial.zero(F7))

def test_recover_rejects_non_half():
    from halfjac.poly import gcd_xgcd
    found = None
    for d in enumerate_theta(C2, 2):
        if d.U.degree != 2:
            continue
        g, _, _ = gcd_xgcd(d.U, C2.f)
        if g.degree != 0:
            continue
        if double(d).U.degree == 1:
            continue                              # doubles to a curve point: a real half
        found = d
        break
    assert found is not None
    with pytest.raises(errors.NotAHalf):
        recover_signs(C2, found.U, found.V)

# over F_7 no g = 2 point halves without a lift (a - alpha_i would take
# five distinct values among the four squares), so every C2 pair is
# rejected; (0, 0) on the F_11 curve has rational halves
@pytest.mark.parametrize("curve", [C1, C3, C2, curve_make(ff_make(11), [0, 6, 7, 8, 10])],
                         ids=["C1", "C3", "C2", "g2_F11"])
def test_recover_decides_every_pair_exhaustively(curve):
    """Every (U, V) with U monic of degree g and deg V < g: recover_signs
    succeeds exactly on the halves of the points that need no lift, with
    their sign vectors and points, and raises NotAHalf on every other."""
    F, g = curve.field, curve.g
    halves = {}
    for pt in enumerate_points(curve)[:-1]:
        if lift_to_sqrt_field(curve, pt)[0] is curve:
            for h in halve_point(curve, pt):
                halves[h.mumford.U, h.mumford.V] = (h.sign_vector.r, pt)
    recovered = 0
    for uvec in itertools.product(F.elements(), repeat=g):
        U = Polynomial(F, list(uvec) + [1])
        for vvec in itertools.product(F.elements(), repeat=g):
            V = Polynomial(F, vvec)
            if (U, V) not in halves:
                with pytest.raises(errors.NotAHalf):
                    recover_signs(curve, U, V)
                continue
            sv, back = recover_signs(curve, U, V)
            assert (sv.r, back) == halves[U, V]
            rebuilt = half_from_signs(sv).mumford
            assert (rebuilt.U, rebuilt.V) == (U, V)
            recovered += 1
    assert recovered == len(halves)


# --- large q: curves built around their sign vector ---

# below both primes, so distinct draws stay distinct mod p
BELOW_BOTH = st.integers(0, 2 ** 61 - 2)

@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from([2 ** 61 - 1, 2 ** 64 - 2 ** 32 + 1]), st.integers(1, 3),
       BELOW_BOTH, st.lists(BELOW_BOTH, min_size=7, max_size=7, unique=True))
def test_halves_at_large_q(p, g, a, rs):
    """alpha_i = a - r_i^2 and b = prod r_i put (a, b) on the curve with
    every a - alpha_i a square, so no lift is needed. Every half doubles
    to (a, b) under the Cantor oracle, which does not use the certificate,
    and recover_signs gives back its sign vector and the point; -r is one
    of those sign vectors."""
    F = ff_make(p)
    r = [F(x) for x in rs[:2 * g + 1]]
    assume(len({x * x for x in r}) == len(r))        # distinct alphas
    curve = curve_make(F, [F(a) - x * x for x in r])
    pt = CurvePoint(curve, a, math.prod(r, start=F.one()))
    assert lift_to_sqrt_field(curve, pt)[0] is curve
    target = embed_point(pt)
    halves = halve_point(curve, pt)
    assert len(halves) == 4 ** g
    assert tuple(-x for x in r) in {h.sign_vector.r for h in halves}
    for h in halves:
        assert oracles.cantor_add(h.mumford, h.mumford) == target
        sv, back = recover_signs(curve, h.mumford.U, h.mumford.V)
        assert back == pt
        assert sv.r == h.sign_vector.r


# --- characteristic divides the genus ---

def test_char_divides_genus_battery():
    curve = curve_make(F9, [F9.element_at(i) for i in range(7)])   # g = 3, p = 3
    pt = enumerate_points(curve)[0]
    curve2, pt2 = lift_to_sqrt_field(curve, pt)
    halves = halve_point(curve2, pt2)
    assert len(halves) == 64
    F2 = curve2.field
    target = embed_point(pt2)
    for h in halves[:8]:
        assert double(h.mumford) == target
    for h in halves:
        # char | g makes the s1r sum collapse to zero
        total = F2.zero()
        for alpha in curve2.alphas:
            total = total + h.mumford.V.eval(alpha) / h.mumford.U.eval(alpha)
        assert total.is_zero()
    for h in halves[:4]:
        sv, back = recover_signs(curve2, h.mumford.U, h.mumford.V)
        assert back == pt2
        assert sv.r == h.sign_vector.r


# --- halve_point error routing ---

def test_halve_point_rejects_infinity():
    with pytest.raises(errors.PointAtInfinity):
        halve_point(C1, CurvePoint.infinity(C1))

def test_two_torsion_are_the_halves_of_zero():
    # the documented alternative for the infinity case
    ts = two_torsion_classes(C1)
    ident = MumfordDivisor.identity(C1)
    J = enumerate_theta(C1, 1)
    expect = {d for d in J if double(d) == ident}
    assert expect == set(ts) | {ident}
