"""Field-layer tests.

Expected values for squares / non-squares were frozen from the exhaustive
squaring oracle (tests/oracles.py), which never touches the package:
squares mod 7 = {0, 1, 2, 4}, so 3 is the smallest non-square mod 7.
All equality here is exact field equality, zero tolerance.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ext_mul, is_prime_trial, squares_mod, sqrt_table_mod

from halfjac import errors
from halfjac.field import (
    FieldElement,
    FiniteField,
    _PSI13,
    _is_prime,
    _is_strong_lucas_probable_prime,
    _is_strong_probable_prime,
    _nonsquare_raw,
    element_from_json,
    element_text,
    element_to_json,
    ff_make,
    field_spec,
    is_square,
    parse_element,
    parse_field_spec,
    quadratic_extension,
    split_element_list,
    sqrt,
)

F7 = ff_make(7)
F49 = ff_make(7, [4, 0, 1])       # t^2 - 3, 3 a non-square mod 7
F9 = ff_make(3, [1, 0, 1])        # t^2 + 1
F27 = ff_make(3, [1, 2, 0, 1])    # t^3 + 2t + 1, no roots in F_3
F121 = ff_make(11, [4, 0, 1])     # t^2 - 7, 7 a non-square mod 11
F49L = ff_make(7, [3, 1, 1])      # t^2 + t + 3, discriminant -11 = 3 a non-square mod 7


# --- construction ---

def test_prime_field_from_degree_one_modulus():
    F = ff_make(7, [0, 1])
    assert F.q == 7 and F.k == 1
    assert F == F7

def test_any_monic_degree_one_modulus_gives_prime_field():
    assert ff_make(7, [3, 1]) == F7

def test_extension_field_order():
    assert F49.q == 49 and F49.k == 2 and F49.p == 7
    assert F27.q == 27 and F27.k == 3

def test_reducible_modulus_rejected():
    with pytest.raises(errors.ReducibleModulus):
        ff_make(7, [5, 0, 1])     # t^2 - 2, 2 = 3^2 mod 7
    with pytest.raises(errors.ReducibleModulus):
        ff_make(7, [6, 0, 0, 1])  # t^3 - 1 has root 1

def test_irreducible_count_matches_gauss_formula():
    # monic irreducibles of degree k over F_p number (1/k) sum_{d | k} mu(d) p^(k/d);
    # at k = 6 the product t (t^2 + 1) (t^3 + 2t + 1) passes Rabin's first
    # condition and only the second one rejects it
    for p, k, count in ((3, 2, 3), (5, 2, 10), (3, 3, 8), (5, 3, 40), (3, 4, 18),
                        (3, 6, 116)):
        found = 0
        for tail in itertools.product(range(p), repeat=k):
            try:
                ff_make(p, list(tail) + [1])
                found += 1
            except errors.ReducibleModulus:
                pass
        assert found == count, (p, k)

def test_rootless_reducible_quartic_rejected():
    # (t^2 + 1)^2 over F_3 has no roots but still factors
    with pytest.raises(errors.ReducibleModulus):
        ff_make(3, [1, 0, 2, 0, 1])

def test_irreducible_quartic_accepted():
    F81 = ff_make(3, [2, 1, 0, 0, 1])  # t^4 + t + 2
    assert F81.q == 81

def test_non_monic_modulus_rejected():
    with pytest.raises(ValueError):
        ff_make(7, [1, 0, 3])

def test_is_prime_agrees_with_trial_division_below_1e5():
    for n in range(10 ** 5):
        assert _is_prime(n) == is_prime_trial(n), n

def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up
    # to 31, which the Lucas half of Baillie-PSW rejects on its own
    for n, factors in ((3215031751, (151, 751, 28351)),
                       (3825123056546413051, (149491, 747451, 34233211))):
        assert n == factors[0] * factors[1] * factors[2]
        assert not _is_prime(n)
        assert _is_strong_probable_prime(n, 2)
        assert not _is_strong_lucas_probable_prime(n)

def test_psi13_is_not_prime():
    # the smallest composite that passes all 13 bases, so Baillie-PSW decides
    assert _PSI13 == 1287836182261 * 2575672364521
    with pytest.raises(errors.NotPrime):
        ff_make(_PSI13)

def test_strong_lucas_pseudoprimes_fail_base_2():
    # the five smallest strong Lucas pseudoprimes for Selfridge's parameters
    for n in (5459, 5777, 10877, 16109, 18971):
        assert _is_strong_lucas_probable_prime(n)
        assert not _is_strong_probable_prime(n, 2)

def test_is_prime_accepts_large_primes():
    for n in (2 ** 89 - 1, 2 ** 127 - 1, 2 ** 255 - 19, 2 ** 521 - 1):
        assert n >= _PSI13 and _is_prime(n)

def test_baillie_psw_agrees_with_trial_division_below_2e5():
    for n in range(3, 2 * 10 ** 5, 2):
        bpsw = _is_strong_probable_prime(n, 2) and _is_strong_lucas_probable_prime(n)
        assert bpsw == is_prime_trial(n), n

def test_large_mersenne_prime_field():
    F = ff_make(2 ** 61 - 1)
    assert F.q == 2 ** 61 - 1
    assert F(3) * F(3).inv() == F.one()

def test_bad_characteristic():
    with pytest.raises(errors.NotPrime):
        ff_make(9)
    with pytest.raises(errors.NotPrime):
        ff_make(1)
    with pytest.raises(errors.EvenCharacteristic):
        ff_make(2)

def test_structural_field_equality():
    other = ff_make(7, [4, 0, 1])
    assert other == F49 and hash(other) == hash(F49)
    a = F49(3)
    b = other(5)
    assert (a + b).coeffs == (1, 0)


# --- arithmetic ---

def test_prime_field_arith_examples():
    assert F7(3) + F7(5) == F7(1)
    assert F7(3).inv() == F7(5)
    assert F7(3) * F7(5) == F7(1)
    assert -F7(3) == F7(4)
    assert F7(2) - F7(5) == F7(4)
    assert F7(3) / F7(5) == F7(2)

def test_every_nonzero_element_times_inverse_is_one():
    # the norm inverse of the degree-2 fields against a Fermat power, which
    # uses multiplication alone
    F81, _ = quadratic_extension(F9)
    for F in (F7, F49, F49L, F9, F27, F81):
        one = F.one()
        for a in F.elements():
            if a != F.zero():
                assert a * a.inv() == one
                assert a.inv() == a ** (F.q - 2)

def test_mul_matches_schoolbook_oracle():
    F81, _ = quadratic_extension(F9)
    for F, moduli in ((F49, [F49.modulus]), (F49L, [F49L.modulus]),
                      (F27, [F27.modulus]), (F81, [F9.modulus, F81.modulus])):
        els = list(F.elements())
        for a, b in itertools.product(els, repeat=2):
            assert (a * b).raw == ext_mul(F.p, moduli, a.raw, b.raw)

def test_public_constructor_normalises():
    assert FieldElement(F7, 10) == F7(3)
    assert FieldElement(F49L, (9, -1)).raw == (2, 6)
    with pytest.raises(ValueError):
        FieldElement(F49L, (1, 2, 3))
    assert FiniteField(7) == F7 and FiniteField(7)(3) * 5 == F7(1)

def test_division_by_zero():
    with pytest.raises(errors.DivisionByZero):
        F7(3) / F7(0)
    with pytest.raises(errors.DivisionByZero):
        F49.zero().inv()

def test_field_mismatch():
    with pytest.raises(errors.FieldMismatch):
        F7(3) + ff_make(11)(3)
    with pytest.raises(errors.FieldMismatch):
        F49(3) * F9(1)

def test_int_coercion_in_arith():
    assert F7(3) + 5 == F7(1)
    assert 2 * F7(4) == F7(1)
    assert F7(3) - 10 == F7(0)

def test_pow():
    a = F7(3)
    assert a ** 0 == F7.one()
    assert a ** 6 == F7.one()
    assert a ** -1 == a.inv()
    assert a ** -2 == (a * a).inv()
    b = F49(5)
    assert b ** F49.q == b ** 1

def test_field_axioms_exhaustive_f7():
    els = list(F7.elements())
    for a, b, c in itertools.product(els, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a, b in itertools.product(els, repeat=2):
        assert a + b == b + a
        assert a * b == b * a

def test_field_axioms_exhaustive_f49():
    for F in (F49, F49L):
        els = list(F.elements())
        for a, b, c in itertools.product(els, repeat=3):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

def test_field_axioms_tower_f81():
    # Multiplication is F_3-bilinear (it matches the schoolbook oracle), so
    # associativity for every c follows from c running over an F_3-basis.
    F81, _ = quadratic_extension(F9)
    els = list(F81.elements())
    basis = [F81.element_at(3 ** i) for i in range(4)]
    for a, b in itertools.product(els, repeat=2):
        assert a * b == b * a
        for c in basis:
            assert (a * b) * c == a * (b * c)

def test_frobenius_fixes_every_element():
    for F in (F7, F9, F49):
        for a in F.elements():
            assert a ** F.q == a

def test_frobenius_on_tower():
    F81, _ = quadratic_extension(F9)
    for a in F81.elements():
        assert a ** 81 == a


# --- squares and square roots ---

def test_is_square_matches_exhaustive_oracle_f7():
    sq = squares_mod(7)   # {0, 1, 2, 4}
    assert sq == {0, 1, 2, 4}
    for a in F7.elements():
        assert is_square(a) == (int(a) in sq)

def test_is_square_examples():
    assert is_square(F7(0))
    assert is_square(F7(2))
    assert not is_square(F7(3))

def test_sqrt_examples():
    assert sqrt(F7(0)) == (F7(0), F7(0))
    assert sqrt(F7(2)) == (F7(3), F7(4))   # smaller canonical index first
    assert sqrt(F7(3)) is None

def test_sqrt_matches_oracle_table_f7():
    table = sqrt_table_mod(7)
    for a in F7.elements():
        got = sqrt(a)
        if int(a) in table:
            assert got is not None
            assert {int(x) for x in got} == set(table[int(a)])
        else:
            assert got is None

def test_sqrt_sound_on_every_square():
    # Tonelli-Shanks at q = 3 mod 4 (7, 27: one round) and q = 1 mod 4
    # (9, 13, 49, 121 and the tower 81), where it alone decides the
    # non-squares; the roots of each element come from squaring the field
    for F in (F7, F9, ff_make(13), F27, F49, F121, quadratic_extension(F9)[0]):
        roots = {}
        for x in F.elements():
            roots.setdefault(x * x, set()).add(x)
        count = 0
        for a in F.elements():
            got = sqrt(a)
            assert is_square(a) == (got is not None) == (a in roots)
            if got is not None:
                x, y = got
                assert {x, y} == roots[a] and y == -x
                assert F.index_of(x) <= F.index_of(y)
                count += 1
        # squares are 0 plus half the nonzero elements
        assert count == 1 + (F.q - 1) // 2

def test_is_square_agrees_with_exhaustive_squaring_up_to_361():
    F361 = ff_make(19, [17, 0, 1])  # t^2 - 2, 2 the smallest non-square mod 19
    for F in (F49, F121, F361):
        squares = {(a * a) for a in F.elements()}
        for a in F.elements():
            assert is_square(a) == (a in squares)

def test_nonsquare_is_decided_by_tonelli_shanks_alone(monkeypatch):
    # q - 1 = 2^e s: 6 = 2 * 3 and 26 = 2 * 13 (q = 3 mod 4), 48 = 2^4 * 3
    for p, modulus, s in ((7, None, 3), (3, [1, 2, 0, 1], 13), (7, [4, 0, 1], 3)):
        F = ff_make(p, modulus)                  # fresh: nothing cached yet
        a = next(x for x in F.elements() if not is_square(x))
        real, powers = type(F)._rpow, []
        monkeypatch.setattr(type(F), "_rpow",
                            lambda self, x, n: powers.append(n) or real(self, x, n))
        assert sqrt(a) is None
        monkeypatch.undo()
        # no Euler test, no a^((q+1)/4), and no search for the non-square
        assert powers == [(s - 1) // 2], F
        assert F._nonsquare is None

@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from([2 ** 61 - 1, 2 ** 64 - 2 ** 32 + 1]),
       st.integers(0, 2 ** 64), st.booleans())
def test_sqrt_at_large_q(p, n, square):
    """The canonical root (the smaller int) comes first, and None comes
    exactly on Euler non-squares; 2^64 - 2^32 + 1 has 2-adicity 32, the
    longest Tonelli-Shanks loop of the two."""
    n = n * n % p if square else n % p
    got = sqrt(ff_make(p)(n))
    if pow(n, (p - 1) // 2, p) == p - 1:
        assert got is None
        return
    x, y = got
    assert int(x) * int(x) % p == n and int(y) == -int(x) % p
    assert int(x) <= int(y)

def test_sqrt_on_tower():
    F81, emb = quadratic_extension(F9)
    for a in F9.elements():
        got = sqrt(emb(a))
        assert got is not None
        assert got[0] * got[0] == emb(a)


# --- quadratic extension ---

def test_quadratic_extension_of_f7_uses_smallest_nonsquare():
    F2, emb = quadratic_extension(F7)
    assert F2.q == 49
    assert F2.modulus_coeffs() == (F7(4), F7(0))   # t^2 - 3
    assert F2 == F49

def test_nonsquare_scan_that_finds_none_is_a_self_check_failure(monkeypatch):
    F = ff_make(7)
    monkeypatch.setattr(FiniteField, "_rpow", lambda self, a, n: self._one_raw)
    with pytest.raises(errors.SelfCheckFailed):
        _nonsquare_raw(F)

def test_embedding_is_injective_homomorphism():
    F2, emb = quadratic_extension(F7)
    images = {emb(a) for a in F7.elements()}
    assert len(images) == 7
    assert emb(F7.one()) == F2.one()
    for a, b in itertools.product(F7.elements(), repeat=2):
        assert emb(a + b) == emb(a) + emb(b)
        assert emb(a * b) == emb(a) * emb(b)

def test_embedding_coeffs():
    _, emb = quadratic_extension(F7)
    assert emb(F7(5)).coeffs == (5, 0)

def test_every_base_element_becomes_square():
    for F in (F7, F9, F49):
        F2, emb = quadratic_extension(F)
        for a in F.elements():
            assert is_square(emb(a))

def test_tower_keeps_base_field():
    F81, _ = quadratic_extension(F9)
    assert F81.base is F9
    assert F81.k == 2 and F81.q == 81
    # coefficients of tower elements are base-field elements
    some = F81.element_at(80)
    assert all(isinstance(c, FieldElement) and c.field == F9 for c in some.coeffs)

def test_quadratic_extension_is_cached():
    a, _ = quadratic_extension(F7)
    b, _ = quadratic_extension(F7)
    assert a is b


# --- canonical index ---

def test_index_round_trip():
    for F in (F7, F49, F27):
        for i, a in enumerate(F.elements()):
            assert F.index_of(a) == i
            assert F.element_at(i) == a

def test_index_round_trip_tower():
    F81, _ = quadratic_extension(F9)
    seen = set()
    for i in range(81):
        a = F81.element_at(i)
        assert F81.index_of(a) == i
        seen.add(a)
    assert len(seen) == 81


# --- serialization ---

def test_field_spec_round_trip():
    assert field_spec(F7) == "7"
    assert field_spec(F49) == "7^2:4,0"
    assert parse_field_spec("7") == F7
    assert parse_field_spec("7^2:4,0") == F49
    assert parse_field_spec("7^2:4,0,1") == F49   # explicit leading 1 accepted

def test_parse_field_spec_errors():
    with pytest.raises(ValueError):
        parse_field_spec("7^2:4")
    with pytest.raises(ValueError):
        parse_field_spec("7^0:")
    with pytest.raises(errors.NotPrime):
        parse_field_spec("9")
    with pytest.raises(errors.EvenCharacteristic):
        parse_field_spec("2")
    with pytest.raises(ValueError):
        parse_field_spec("banana")

def test_parse_element():
    assert parse_element(F7, "5") == F7(5)
    assert parse_element(F49, "5,0") == F49(5)
    assert parse_element(F49, "(5,3)") == FieldElement(F49, (5, 3))
    with pytest.raises(ValueError):
        parse_element(F49, "1,2,3")

def test_element_text():
    assert str(F7(5)) == "5"
    assert str(FieldElement(F49, (5, 3))) == "5,3"
    assert element_text(F7(5)) == "5"
    assert element_text(FieldElement(F49, (5, 3))) == "(5,3)"
    tower = F81T.element_at(77)
    assert element_text(tower) == "(%s)" % tower
    assert split_element_list("(5,3),2,%s" % element_text(tower)) == \
        ["(5,3)", "2", element_text(tower)]
    for bad in ("(5,3", "5,3)", ")(,"):
        with pytest.raises(ValueError):
            split_element_list(bad)

def test_element_json_round_trip():
    assert element_to_json(F7(5)) == 5
    assert element_to_json(FieldElement(F49, (5, 3))) == [5, 3]
    for F in (F7, F49):
        for a in F.elements():
            assert element_from_json(F, element_to_json(a)) == a
    F81, emb = quadratic_extension(F9)
    a = F81.element_at(77)
    j = element_to_json(a)
    assert element_from_json(F81, j) == a


# --- randomized axioms beyond the exhaustive range ---

F361 = ff_make(19, [17, 0, 1])
F81T, _ = quadratic_extension(F9)

@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 360), st.integers(0, 360), st.integers(0, 360))
def test_random_axioms_f361(i, j, k):
    a, b, c = F361.element_at(i), F361.element_at(j), F361.element_at(k)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if a != F361.zero():
        assert a * a.inv() == F361.one()

@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_random_axioms_tower_f81(i, j, k):
    a, b, c = F81T.element_at(i), F81T.element_at(j), F81T.element_at(k)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a != F81T.zero():
        assert a * a.inv() == F81T.one()
