"""Independent oracles used by the test suite.

The first half is deliberately primitive: plain ints mod p, no imports from
halfjac, so that agreement with the package is evidence and not tautology.
The second half holds dual-route helpers that do use the package's public
API but travel a different code path than the operation under test.
"""

import itertools
import math


# --- exhaustive squaring over F_p (plain ints) ---

def squares_mod(p):
    """The set of squares in F_p, by squaring every residue."""
    return {(x * x) % p for x in range(p)}


def sqrt_table_mod(p):
    """Map square -> sorted list of its roots in F_p, by exhaustive squaring."""
    table = {}
    for x in range(p):
        table.setdefault((x * x) % p, []).append(x)
    return {s: sorted(rs) for s, rs in table.items()}


# --- chord-tangent group law on y^2 = x^3 + a2 x^2 + a4 x + a6 (plain ints) ---
#
# Independent elliptic-curve addition for the g=1 cross-check. Points are
# (x, y) int pairs, infinity is None. Formulas are the classical ones for a
# long Weierstrass cubic with zero a1, a3 terms.

def ec_coeffs_from_roots(p, roots):
    """(a2, a4, a6) of x^3 + a2 x^2 + a4 x + a6 = (x-r1)(x-r2)(x-r3) mod p."""
    r1, r2, r3 = roots
    a2 = (-(r1 + r2 + r3)) % p
    a4 = (r1 * r2 + r1 * r3 + r2 * r3) % p
    a6 = (-(r1 * r2 * r3)) % p
    return a2, a4, a6


def ec_on_curve(p, coeffs, pt):
    if pt is None:
        return True
    a2, a4, a6 = coeffs
    x, y = pt
    return (y * y - (x * x * x + a2 * x * x + a4 * x + a6)) % p == 0


def ec_neg(p, pt):
    if pt is None:
        return None
    x, y = pt
    return (x, (-y) % p)


def ec_add(p, coeffs, pt1, pt2):
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    a2, a4, a6 = coeffs
    x1, y1 = pt1
    x2, y2 = pt2
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if pt1 == pt2:
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4) * pow(2 * y1, p - 2, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
    x3 = (lam * lam - a2 - x1 - x2) % p
    y3 = (lam * (x1 - x3) - y1) % p
    return (x3, y3)


def ec_points(p, coeffs):
    """All points of the cubic over F_p, affine in (x, y) order, then None."""
    a2, a4, a6 = coeffs
    pts = []
    roots = sqrt_table_mod(p)
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in roots.get(rhs, []):
            pts.append((x, y))
    pts.append(None)
    return pts


# --- primality and extension-field products (plain ints) ---

def is_prime_trial(n):
    """Primality by trial division up to sqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _ext_add(p, x, y, sign=1):
    if isinstance(x, int):
        return (x + sign * y) % p
    return tuple(_ext_add(p, u, v, sign) for u, v in zip(x, y))


def ext_mul(p, moduli, a, b):
    """Schoolbook product in the tower F_p[t_1]/(m_1)...[t_r]/(m_r).

    Elements are nested little-endian coefficient tuples with ints at the
    bottom. moduli lists m_1..m_r innermost first, each monic and written
    without its leading 1, with coefficients one level down. The product is
    multiplied out in full, then t^k = -(m_0 + ... + m_{k-1} t^{k-1}) folds
    it down from the top degree.
    """
    if not moduli:
        return a * b % p
    *inner, mod = moduli
    k = len(mod)
    zero = _ext_add(p, a[0], a[0], -1)
    prod = [zero] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = _ext_add(p, prod[i + j], ext_mul(p, inner, ai, bj))
    for d in range(2 * k - 2, k - 1, -1):
        for j in range(k):
            prod[d - k + j] = _ext_add(p, prod[d - k + j],
                                       ext_mul(p, inner, prod[d], mod[j]), -1)
    return tuple(prod[:k])


def ext_poly_mul(p, moduli, a, b):
    """Schoolbook product of polynomials with coefficients in the tower of
    ext_mul, as little-endian lists of raw coefficients; trailing zero
    coefficients are stripped from the result."""
    if not a or not b:
        return []
    zero = _ext_add(p, a[0], a[0], -1)
    prod = [zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = _ext_add(p, prod[i + j], ext_mul(p, moduli, ai, bj))
    while prod and prod[-1] == zero:
        prod.pop()
    return prod


# --- dual-route helpers built on the package's public API ---

def brute_halves(curve, target, classes):
    """All classes in the given list whose Cantor double equals target."""
    from halfjac import jacobian
    return [c for c in classes if jacobian.double(c) == target]


def _exact_div(a, b):
    from halfjac import errors
    q, r = a.divrem(b)
    if not r.is_zero():
        raise errors.SelfCheckFailed("inexact division inside the group law; arithmetic bug")
    return q


def cantor_add(d1, d2):
    """Cantor composition and reduction on Polynomial objects, two xgcds
    for every case: the reference for jacobian.add and jacobian.double.
    It stays an independent copy of jacobian._cantor, written with
    Polynomial operators rather than the group law's raw code, so the
    genus-2 formulas and _cantor are both checked against it."""
    from halfjac import errors
    from halfjac.jacobian import MumfordDivisor
    from halfjac.poly import gcd_xgcd
    if d1.curve != d2.curve:
        raise errors.CurveMismatch("divisors live on different curves")
    curve = d1.curve
    f, g = curve.f, curve.g
    U1, V1, U2, V2 = d1.U, d1.V, d2.U, d2.V

    d0, e1, e2 = gcd_xgcd(U1, U2)
    d, c1, c2 = gcd_xgcd(d0, V1 + V2)
    s1, s2, s3 = c1 * e1, c1 * e2, c2

    U = _exact_div(U1 * U2, d * d)
    V = _exact_div(s1 * U1 * V2 + s2 * U2 * V1 + s3 * (V1 * V2 + f), d) % U
    while U.degree > g:
        U = _exact_div(f - V * V, U).make_monic()
        V = (-V) % U
    return MumfordDivisor(curve, U, V, validate=False)


def certificate_clause(curve, a, b, U, V, c):
    """The first clause of the halving certificate that (U, V) fails as a
    half of the point (a, b), or None when it is a half; c = (-1)^g s_1.

    The reference form of halving._certify: three products on Polynomial
    operators, f - v^2 = (x - a) U^2 with v = V + c U, where the library
    splits f and v at a and checks two products. The clause texts are the
    library's."""
    from halfjac.poly import Polynomial
    F = curve.field
    if U.degree != curve.g or not U.is_monic():
        return "U is not monic of degree g"
    if not V.degree < curve.g:
        return "deg V is not below g"
    v = V + U * c
    if curve.f - v * v != Polynomial(F, [-a, F.one()]) * U * U:
        return "f - v^2 != (x - a) U^2"
    if v.eval(a) != -b:
        return "v(a) != -b"
    return None


def order_by_addition(d, cap=None):
    """Smallest n >= 1 with n*d = identity, by adding d one step at a time.

    Linear in the order; the cap defaults to the Weil bound and CapExceeded
    is raised once the count passes it."""
    from halfjac import errors, jacobian
    if cap is None:
        cap = jacobian.weil_cap(d.curve)
    ident = jacobian.MumfordDivisor.identity(d.curve)
    acc = d
    n = 1
    while acc != ident:
        acc = jacobian.add(acc, d)
        n += 1
        if n > cap:
            raise errors.CapExceeded("no identity after %d additions" % cap)
    return n


def splitting_degree_by_order(field, n, c):
    """Least d with x^n - c split over the degree-d extension of field, from
    the multiplicative order m of c found one power at a time: the least d
    with n | q^d - 1 and m | (q^d - 1)/n (p must not divide n)."""
    m, acc = 1, c
    while acc != field.one():
        acc = acc * c
        m += 1
    d = 1
    while (field.q ** d - 1) % n or ((field.q ** d - 1) // n) % m:
        d += 1
    return d


def prime_divisors(n):
    """The distinct primes dividing n >= 1, by trial division."""
    out, m = [], 2
    while m * m <= n:
        if n % m == 0:
            out.append(m)
            while n % m == 0:
                n //= m
        m += 1
    if n > 1:
        out.append(n)
    return out


def is_exact_order(d, n):
    """True iff d has order exactly n: n*d = 0 and (n/l)*d != 0 for every
    prime l dividing n. Uses scalar multiplication, not order()."""
    from halfjac.jacobian import scalar_mul
    if n < 1 or not scalar_mul(n, d).is_identity():
        return False
    return all(not scalar_mul(n // l, d).is_identity()
               for l in prime_divisors(n))


def frobenius_raw(field2, raw):
    """x -> x^q on a quadratic extension F_q[u]/(u^2 - n): c0 + c1 u -> c0 - c1 u."""
    c0, c1 = raw
    return (c0, field2.base._rneg(c1))


def stable_multiset_theta(curve, d):
    """Theta_d(F_q) via Galois-stable point multisets over F_{q^2}.

    Enumerates all multisets of at most d affine points of the curve over the
    quadratic extension that are stable under x -> x^q, composes them with the
    Cantor law, and maps the (necessarily rational) results down to the base
    field. Only implemented for d <= 2, which is all the cross-check needs.
    """
    from halfjac import field as field_mod
    from halfjac import jacobian
    from halfjac.jacobian import curve_make, embed_point, enumerate_points, add
    from halfjac.field import FieldElement
    from halfjac.poly import Polynomial

    if d > 2:
        raise ValueError("oracle only handles d <= 2")
    F = curve.field
    F2, emb = field_mod.quadratic_extension(F)
    curve2 = curve_make(F2, [emb(a) for a in curve.alphas])
    pts = [P for P in enumerate_points(curve2) if not P.is_infinity]

    def conj_elem(e):
        return FieldElement(F2, frobenius_raw(F2, e.raw))

    def conj_point(P):
        return (conj_elem(P.x), conj_elem(P.y))

    def down_elem(e):
        c0, c1 = e.raw
        assert c1 == F.zero().raw, "class is not rational"
        return FieldElement(F, c0)

    def down_poly(poly):
        return Polynomial(F, [down_elem(c) for c in poly.coeffs])

    results = {jacobian.MumfordDivisor.identity(curve)}
    by_coords = {(P.x.raw, P.y.raw): P for P in pts}
    rational = [P for P in pts if conj_point(P) == (P.x, P.y)]

    if d >= 1:
        for P in rational:
            dv = embed_point(P)
            results.add(jacobian.MumfordDivisor(curve, down_poly(dv.U), down_poly(dv.V)))
    if d >= 2:
        pairs = []
        for P, Q in itertools.combinations_with_replacement(rational, 2):
            pairs.append((P, Q))
        for P in pts:
            if P in rational:
                continue
            cx, cy = conj_point(P)
            Q = by_coords[(cx.raw, cy.raw)]
            # count each conjugate pair once
            if P.x.raw <= Q.x.raw and (P.x.raw, P.y.raw) <= (Q.x.raw, Q.y.raw):
                pairs.append((P, Q))
        for P, Q in pairs:
            s = add(embed_point(P), embed_point(Q))
            if s.U.degree > d:
                continue
            results.add(jacobian.MumfordDivisor(curve, down_poly(s.U), down_poly(s.V)))
    return results
