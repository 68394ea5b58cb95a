"""Polynomial-layer tests.

Hand-expanded expected values are frozen in the asserts (e.g. the product
(x-1)(x-2)(x-3) = x^3 + x^2 + 4x + 1 over F_7). Exact equality throughout.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from halfjac import errors
from halfjac.field import FiniteField, ff_make, quadratic_extension
from halfjac.poly import (
    NEG_INFINITY,
    Polynomial,
    divrem,
    from_roots,
    gcd_xgcd,
    poly_from_json,
    poly_to_json,
    raw_mul,
    raw_symmetric_functions,
    roots_in_field,
    symmetric_functions,
)

from oracles import ext_poly_mul

F7 = ff_make(7)
F5 = ff_make(5)
F3 = ff_make(3)
F49 = ff_make(7, [4, 0, 1])
F49L = ff_make(7, [3, 1, 1])      # t^2 + t + 3: a pair field with a linear term
F9 = ff_make(3, [1, 0, 1])
F27 = ff_make(3, [1, 2, 0, 1])    # generic degree 3
F81T, _ = quadratic_extension(F9)  # tower F_9[t]/(t^2 - n)


def P(field, *coeffs):
    return Polynomial(field, coeffs)


# --- degree sentinel ---

def test_zero_polynomial_degree_is_sentinel():
    assert Polynomial(F7, []).degree is NEG_INFINITY
    assert P(F7, 0, 0, 0).degree is NEG_INFINITY

def test_sentinel_orders_below_every_int():
    assert NEG_INFINITY < 0
    assert NEG_INFINITY < -10**9
    assert not NEG_INFINITY < NEG_INFINITY
    assert NEG_INFINITY <= NEG_INFINITY
    assert 3 > NEG_INFINITY
    assert not 3 < NEG_INFINITY
    assert max(NEG_INFINITY, 3) == 3
    assert NEG_INFINITY == NEG_INFINITY

def test_sentinel_refuses_arithmetic():
    with pytest.raises(TypeError):
        NEG_INFINITY + 1
    with pytest.raises(TypeError):
        1 - NEG_INFINITY


# --- construction and normalization ---

def test_trailing_zeros_stripped():
    assert P(F7, 1, 2, 0, 0) == P(F7, 1, 2)
    assert len(P(F7, 1, 2, 0, 0).coeffs) == 2

def test_int_coeffs_coerced():
    assert P(F7, 8, -1) == P(F7, 1, 6)

def test_classmethods():
    assert Polynomial.zero(F7).degree is NEG_INFINITY
    assert Polynomial.one(F7) == P(F7, 1)
    assert Polynomial.x(F7) == P(F7, 0, 1)
    assert Polynomial.constant(F7(5)) == P(F7, 5)


# --- arithmetic ---

def test_product_example():
    assert P(F7, 1, 1) * P(F7, 6, 1) == P(F7, 6, 0, 1)   # (x+1)(x-1) = x^2 + 6

def test_degree_law():
    a = P(F7, 1, 2, 3)
    b = P(F7, 0, 5)
    assert (a * b).degree == a.degree + b.degree
    assert (a * Polynomial.zero(F7)).degree is NEG_INFINITY

def test_make_monic_example():
    assert P(F7, 3, 0, 3).make_monic() == P(F7, 1, 0, 1)

def test_make_monic_zero_raises():
    with pytest.raises(errors.ZeroPolynomial):
        Polynomial.zero(F7).make_monic()

def test_is_monic_and_leading_coeff():
    assert P(F7, 4, 0, 1).is_monic()
    assert not P(F7, 1, 3).is_monic()
    assert P(F7, 1, 3).leading_coeff == F7(3)

def test_scalar_mul():
    a = P(F7, 1, 2, 3)
    assert a * F7(2) == P(F7, 2, 4, 6)
    assert F7(2) * a == P(F7, 2, 4, 6)
    assert a * 0 == Polynomial.zero(F7)

def test_neg_sub():
    a = P(F7, 1, 2)
    assert -a == P(F7, 6, 5)
    assert a - a == Polynomial.zero(F7)

def test_pow():
    x1 = P(F7, 1, 1)
    assert x1 ** 0 == Polynomial.one(F7)
    assert x1 ** 3 == P(F7, 1, 3, 3, 1)

def test_field_mismatch():
    with pytest.raises(errors.FieldMismatch):
        P(F7, 1) + P(F5, 1)

def test_ring_axioms_f5_degree_le_2():
    polys = [Polynomial(F5, [a, b, c]) for a in range(5) for b in range(5) for c in range(5)]
    for a, b in itertools.product(polys[:25], polys[:25]):
        assert a + b == b + a
        assert a * b == b * a
    # strided triple subset keeps the cube affordable; deterministic
    triples = list(itertools.islice(itertools.product(polys, repeat=3), 0, None, 1031))
    for a, b, c in triples:
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# --- division ---

def test_divrem_examples():
    x = Polynomial.x(F7)
    q, r = divrem(x ** 3, x ** 2)
    assert q == x and r == Polynomial.zero(F7)
    q, r = divrem(P(F7, 1, 0, 1), P(F7, 1, 0, 1))
    assert q == Polynomial.one(F7) and r == Polynomial.zero(F7)

def test_divrem_value_check():
    a = P(F7, 5, 2, 0, 1)           # x^3 + 2x + 5
    b = P(F7, 6, 1)                 # x - 1
    q, r = divrem(a, b)
    assert r == P(F7, 1)            # a(1) = 8 = 1
    assert q * b + r == a
    for x0 in F7.elements():
        assert (q.eval(x0) * b.eval(x0) + r.eval(x0)) == a.eval(x0)

def test_divrem_by_zero():
    with pytest.raises(errors.DivisionByZero):
        divrem(P(F7, 1), Polynomial.zero(F7))

def test_divrem_by_a_non_polynomial_names_the_operand():
    with pytest.raises(TypeError, match=r"cannot divide by 'x \+ 1'"):
        P(F7, 1, 1).divrem("x + 1")
    with pytest.raises(TypeError, match=r"cannot divide by 2\.5"):
        P(F7, 1, 1).divrem(2.5)

def test_divrem_identity_exhaustive_small():
    polys = [Polynomial(F3, [a, b, c]) for a in range(3) for b in range(3) for c in range(3)]
    for a, b in itertools.product(polys, polys):
        if b.degree is NEG_INFINITY:
            continue
        q, r = divrem(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

def test_floordiv_mod_operators():
    a = P(F7, 5, 2, 0, 1)
    b = P(F7, 6, 1)
    assert a // b * b + a % b == a


# --- gcd ---

def test_gcd_examples():
    g, s, t = gcd_xgcd(P(F7, 6, 0, 1), P(F7, 6, 1))
    assert g == P(F7, 6, 1)                          # x - 1
    a = P(F7, 2, 4)
    g, s, t = gcd_xgcd(a, Polynomial.zero(F7))
    assert g == a.make_monic()
    assert s == Polynomial.constant(F7(4).inv()) and t == Polynomial.zero(F7)
    g, s, t = gcd_xgcd(Polynomial.zero(F7), Polynomial.zero(F7))
    assert g == Polynomial.zero(F7)

def test_gcd_bezout_exhaustive_small():
    polys = [Polynomial(F3, [a, b, c]) for a in range(3) for b in range(3) for c in range(3)]
    for a, b in itertools.product(polys, polys):
        g, s, t = gcd_xgcd(a, b)
        assert s * a + t * b == g
        if g.degree is not NEG_INFINITY:
            assert g.is_monic()
            assert a % g == Polynomial.zero(F3)
            assert b % g == Polynomial.zero(F3)

@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=0, max_size=4),
       st.lists(st.integers(0, 6), min_size=0, max_size=4))
def test_gcd_bezout_random_f7(ac, bc):
    a, b = Polynomial(F7, ac), Polynomial(F7, bc)
    g, s, t = gcd_xgcd(a, b)
    assert s * a + t * b == g


# --- evaluation, roots, composition ---

def test_eval_examples():
    assert P(F7, 1, 0, 1).eval(F7(0)) == F7(1)
    assert P(F7, 5).eval(F7(3)) == F7(5)
    f = from_roots(F7, [F7(1), F7(2), F7(4)])
    for r in (1, 2, 4):
        assert f.eval(F7(r)) == F7(0)

def test_from_roots_examples():
    assert from_roots(F7, []) == Polynomial.one(F7)
    assert from_roots(F7, [F7(0)]) == Polynomial.x(F7)
    assert from_roots(F7, [F7(1), F7(2), F7(3)]) == P(F7, 1, 4, 1, 1)

def test_roots_in_field_examples():
    assert roots_in_field(P(F7, 6, 0, 1)) == [(F7(1), 1), (F7(6), 1)]
    sq = from_roots(F7, [F7(2), F7(2)])
    assert roots_in_field(sq) == [(F7(2), 2)]
    assert roots_in_field(P(F7, 4, 0, 1)) == []      # x^2 - 3, 3 a non-square
    with pytest.raises(errors.ZeroPolynomial):
        roots_in_field(Polynomial.zero(F7))

def test_from_roots_round_trip():
    roots = [F7(1), F7(1), F7(4), F7(6)]
    f = from_roots(F7, roots)
    found = roots_in_field(f)
    flat = [r for r, m in found for _ in range(m)]
    assert sorted(flat, key=F7.index_of) == sorted(roots, key=F7.index_of)

def test_compose():
    a = P(F7, 1, 0, 1)        # x^2 + 1
    b = P(F7, 1, 1)           # x + 1
    assert a.compose(b) == P(F7, 2, 2, 1)
    for x0 in F7.elements():
        assert a.compose(b).eval(x0) == a.eval(b.eval(x0))

def test_derivative():
    assert P(F7, 5, 2, 0, 1).derivative() == P(F7, 2, 0, 3)
    assert Polynomial.one(F7).derivative() == Polynomial.zero(F7)


# --- symmetric functions ---

def test_symmetric_functions_examples():
    assert symmetric_functions([F7(3)]) == [F7(3)]
    assert symmetric_functions([F7(1), F7(2), F7(3)]) == [F7(6), F7(4), F7(6)]
    assert symmetric_functions([], F7) == []

def test_symmetric_functions_defining_identity():
    rs = [F7(2), F7(3), F7(5), F7(6)]
    s = symmetric_functions(rs)
    n = len(rs)
    expect = from_roots(F7, rs)
    built = Polynomial.x(F7) ** n
    for i, si in enumerate(s, start=1):
        built = built + Polynomial.x(F7) ** (n - i) * (si if i % 2 == 0 else -si)
    assert built == expect

@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=6))
def test_newton_identities_spot_check(vals):
    rs = [F7(v) for v in vals]
    s = symmetric_functions(rs)
    p1 = sum(rs, F7(0))
    p2 = sum((r * r for r in rs), F7(0))
    assert p1 == s[0]
    if len(rs) >= 2:
        assert p2 == s[0] * s[0] - 2 * s[1]
    else:
        assert p2 == s[0] * s[0]


# --- the prime and pair kernels against the generic loops ---

KERNEL_PRIMES = (7, 13, 2 ** 61 - 1, 2 ** 127 - 1)
KERNEL_FIELDS = ([ff_make(p) for p in KERNEL_PRIMES]
                 + [quadratic_extension(ff_make(p))[0] for p in KERNEL_PRIMES]
                 + [F49L])
KERNEL_IDS = (["F_%d" % p for p in (7, 13)] + ["F_(2^61-1)", "F_(2^127-1)"]
              + ["F_49", "F_169", "F_(2^61-1)^2", "F_(2^127-1)^2", "F_49_m1"])

@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_kernels_agree_with_the_generic_loops(F):
    """raw_mul and raw_symmetric_functions run the field's own kernel,
    which adds up unreduced ints and reduces once per output coefficient
    (a pair field folds t^2 through its modulus there), so at 2^127 - 1
    its sums run to several hundred bits. On every length 0-9, with zero
    coefficients and zero roots among the inputs, they agree with the
    generic FiniteField loops, which reduce after every operation."""
    assert type(F)._rpolymul is not FiniteField._rpolymul
    rng = random.Random(F.q % 1000003)

    def raws(n):
        # about one coefficient in three is zero, the top one included
        return [F._rat(rng.randrange(F.q)) if rng.randrange(3) else F._zero_raw
                for _ in range(n)]

    for la, lb in itertools.product(range(10), repeat=2):
        a, b = raws(la), raws(lb)
        if a:
            a[-1] = F._rat(rng.randrange(1, F.q))      # stripped inputs
        if b:
            b[-1] = F._rat(rng.randrange(1, F.q))
        a, b = tuple(a), tuple(b)
        want = FiniteField._rpolymul(F, a, b) if a and b else ()
        assert raw_mul(F, a, b) == want
    for n in range(10):
        for _ in range(4):
            roots = raws(n)
            assert raw_symmetric_functions(F, roots) == FiniteField._rsymmetric(F, roots)
    # every coefficient p - 1: the largest unreduced sums
    top = (F._rat(F.q - 1),) * 9
    assert raw_mul(F, top, top) == FiniteField._rpolymul(F, top, top)
    assert raw_symmetric_functions(F, top) == FiniteField._rsymmetric(F, top)


# --- extension-field coefficients ---

def test_poly_over_extension_field():
    t = F49.element_at(7)      # the generator of F_49 over F_7
    a = Polynomial(F49, [t, F49(1)])
    b = Polynomial(F49, [-t, F49(1)])
    assert a * b == Polynomial(F49, [-(t * t), F49(0), F49(1)])


# --- every field shape: pairs with a linear term, degree 3, towers ---

SHAPES = [(F49L, [F49L.modulus]), (F27, [F27.modulus]),
          (F81T, [F9.modulus, F81T.modulus])]
SHAPE_IDS = ["F49L", "F27", "F81T"]


def random_polys(field, seed, count=30, max_degree=4):
    """Deterministic polynomials over field; every fifth shares a factor
    with its predecessor so that gcds are not all trivial."""
    rng = random.Random(seed)

    def draw(degree):       # nonzero, of exactly this degree
        return Polynomial(field, [field.element_at(rng.randrange(field.q))
                                  for _ in range(degree)]
                          + [field.element_at(rng.randrange(1, field.q))])

    out = [Polynomial.zero(field)]
    for i in range(count):
        a = draw(rng.randrange(max_degree + 1))
        if i % 5 == 4:
            a = a * draw(1) if out[-1].is_zero() else out[-1] * draw(1)
        out.append(a)
    return out


def raws(a):
    return [c.raw for c in a.coeffs]


@pytest.mark.parametrize("field, moduli", SHAPES, ids=SHAPE_IDS)
def test_product_matches_schoolbook_oracle(field, moduli):
    polys = random_polys(field, 1)
    for a, b in itertools.product(polys[:12], repeat=2):
        assert raws(a * b) == ext_poly_mul(field.p, moduli, raws(a), raws(b))


@pytest.mark.parametrize("field, moduli", SHAPES, ids=SHAPE_IDS)
def test_divrem_identity_on_every_shape(field, moduli):
    polys = random_polys(field, 2)
    for a, b in itertools.product(polys, polys[1:]):
        q, r = divrem(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


@pytest.mark.parametrize("field, moduli", SHAPES, ids=SHAPE_IDS)
def test_gcd_monic_and_bezout_on_every_shape(field, moduli):
    polys = random_polys(field, 3)
    for a, b in zip(polys, polys[1:]):
        g, s, t = gcd_xgcd(a, b)
        assert s * a + t * b == g
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            continue
        assert g.is_monic()
        assert (a % g).is_zero() and (b % g).is_zero()


@pytest.mark.parametrize("field, moduli", SHAPES, ids=SHAPE_IDS)
def test_eval_of_composition_on_every_shape(field, moduli):
    polys = random_polys(field, 4, count=10)
    points = [field.element_at(i) for i in range(0, field.q, 7)]
    for a, b in zip(polys, polys[1:]):
        c = a.compose(b)
        for x0 in points:
            assert c.eval(x0) == a.eval(b.eval(x0))


# --- the raw layer never mixes fields whose raws look alike ---

def test_field_mismatch_between_same_shape_fields():
    a = Polynomial(F49, [F49.element_at(10), F49.element_at(8), 1])
    b = Polynomial(F49L, [F49L.element_at(10), F49L.element_at(8), 1])
    assert raws(a) == raws(b) and a != b
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b - a,
               lambda: a * F49L.element_at(8), lambda: a.divrem(b),
               lambda: gcd_xgcd(a, b), lambda: a.compose(b)):
        with pytest.raises(errors.FieldMismatch):
            op()


def test_constructor_rejects_elements_of_another_field():
    with pytest.raises(errors.FieldMismatch):
        Polynomial(F7, [F49.element_at(8)])
    with pytest.raises(errors.FieldMismatch):
        Polynomial(F49L, [F49.element_at(8)])


# --- serialization ---

def test_poly_json_round_trip():
    a = P(F7, 5, 0, 3)
    assert poly_to_json(a) == [5, 0, 3]
    assert poly_from_json(F7, [5, 0, 3]) == a
    assert poly_to_json(Polynomial.zero(F7)) == []
    assert poly_from_json(F7, []) == Polynomial.zero(F7)
    b = Polynomial(F49, [F49.element_at(10), F49(1)])
    assert poly_from_json(F49, poly_to_json(b)) == b

def test_poly_str():
    assert str(P(F7, 5, 0, 3)) == "3*x^2 + 5"
    assert str(Polynomial.zero(F7)) == "0"
    assert str(P(F7, 0, 1)) == "x"
    assert str(P(F7, 2, 6, 1)) == "x^2 + 6*x + 2"
