"""Hyperelliptic curves y^2 = f(x) and Jacobian arithmetic in Mumford
coordinates.

Curves are built from the distinct roots of f, so f = prod(x - alpha_i)
is monic of odd degree 2g+1 and the curve has a single point at infinity.
Group classes are the unique reduced Mumford pairs (U, V): U monic with
deg U <= g, deg V < deg U, and U dividing V^2 - f. The group law runs on
the raw coefficient tuples of poly, along three paths.

The paper identifies the curve with its image in J: a point (a, b) is
the degree-1 class (x - a, b). Every sum with a degree-1 operand and
every double of a degree-1 class takes one point-addition step,
_add_point, in every genus, for one field inversion: a CRT step when
U(a) != 0, a cancellation when V(a) = -b (b = 0 included), and a Hensel
step when V(a) = b != 0. The first and the last give U (x - a), which
one reduction step brings back to degree g when it exceeds it.

At g = 2, where both classes have degree 2, add and double first try
Lange's explicit formulas for h = 0 (T. Lange, "Formulae for arithmetic
on genus 2 hyperelliptic curves", AAECC 15, 2005), written once on the
field's _r* methods: one inversion and a few dozen field operations, no
polynomial xgcd. They decide every sum of two degree-2 classes with
coprime U's and every double of a degree-2 class with gcd(U, V) = 1.
Sums and doubles share one tail (_lange); when its s is a constant
(s1 = 0) the sum has degree 1, and one reduction step reaches it.

Every other case, where both classes have degree >= 2, takes Cantor's
composition followed by classical reduction (Cantor 1987, Math. Comp.
48) in one function, _cantor: a sum brings e1 U1 + e2 U2 = gcd(U1, U2)
from one xgcd, a double brings gcd(U, U) = U with no xgcd, and _cantor's
own xgcd then gives the gcd d of U1, U2 and V1 + V2. A sum of a class
with itself is a double.

The general composition on Polynomial objects stays in the tests
(oracles.cantor_add) as the oracle for the formulas, for _add_point and
for _cantor.
The group law shares no formulas with the closed-form halving, which is
what lets the two sides check each other.

All enumeration orders are deterministic: field elements by canonical
index, points by (x index, y index) with infinity last, theta strata by
(deg U, U coefficient vector, V coefficient vector), two-torsion classes
by (subset size, lexicographic root indices).
"""

import itertools
import math

from . import errors
from .field import (
    element_text,
    field_spec,
    parse_element,
    parse_field_spec,
    split_element_list,
    sqrt,
)
from .poly import (
    Polynomial,
    from_raws,
    from_roots,
    poly_from_json,
    poly_to_json,
    raw_add,
    raw_divrem,
    raw_eval,
    raw_mul,
    raw_scale,
    raw_sub,
    raw_xgcd,
    roots_in_field,
)


class HyperellipticCurve:
    """y^2 = f(x) with f monic of odd degree, given by its roots."""

    # _lift: the curve over the quadratic extension, built by
    # halving.lift_to_sqrt_field on first use and kept, as F._ext is
    __slots__ = ("field", "alphas", "g", "f", "_hash", "_lift")

    def __init__(self, field, alphas):
        alphas = tuple(field(a) for a in alphas)
        n = len(alphas)
        if n % 2 == 0:
            raise errors.EvenCount("need an odd number of roots, got %d" % n)
        if n < 3:
            raise errors.TooFewRoots("need at least 3 roots, got %d" % n)
        if len(set(alphas)) != n:
            raise errors.DuplicateRoots("curve roots must be pairwise distinct")
        self.field = field
        self.alphas = alphas
        self.g = (n - 1) // 2
        # f = prod(x - alpha_i) over distinct alphas, so f is squarefree
        self.f = from_roots(field, alphas)
        self._hash = None
        self._lift = None

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, HyperellipticCurve):
            return self.field == other.field and self.alphas == other.alphas
        return NotImplemented


    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.alphas))
        return self._hash

    def __repr__(self):
        return "HyperellipticCurve(%r, g=%d)" % (self.field, self.g)


class CurvePoint:
    """A point of the curve: affine (x, y) with y^2 = f(x), or infinity."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve, x, y):
        self.curve = curve
        if x is None:
            if y is not None:
                raise errors.InvalidInput("the point at infinity has no coordinates")
            self.x = None
            self.y = None
            return
        x = curve.field(x)
        y = curve.field(y)
        y2, fx = y * y, curve.f.eval(x)
        if y2 != fx:
            raise errors.PointNotOnCurve(
                "point (%s, %s) is not on the curve: y^2 = %s but f(x) = %s "
                "(y^2 != f(x))" % (x, y, y2, fx))
        self.x = x
        self.y = y

    @classmethod
    def infinity(cls, curve):
        return cls(curve, None, None)

    @property
    def is_infinity(self):
        return self.x is None

    def involution(self):
        """The hyperelliptic involution (x, y) -> (x, -y)."""
        if self.is_infinity:
            return self
        return CurvePoint(self.curve, self.x, -self.y)

    def __eq__(self, other):
        if isinstance(other, CurvePoint):
            return (self.curve == other.curve
                    and self.x == other.x and self.y == other.y)
        return NotImplemented


    def __hash__(self):
        return hash((self.curve, self.x, self.y))

    def __str__(self):
        if self.is_infinity:
            return "inf"
        return "(%s, %s)" % (self.x, self.y)

    def __repr__(self):
        return "CurvePoint(%s)" % self


def _mumford_failure(curve, U, V):
    """None if (U, V) is a reduced Mumford pair on the curve, else why not."""
    if U.field != curve.field or V.field != curve.field:
        return "coefficient field does not match the curve"
    if U.is_zero() or not U.is_monic():
        return "U must be monic"
    if U.degree > curve.g:
        return "deg U exceeds the genus"
    if not V.degree < U.degree:
        return "deg V must be smaller than deg U"
    if not ((V * V - curve.f) % U).is_zero():
        return "U does not divide V^2 - f"
    return None


class MumfordDivisor:
    """Reduced Mumford pair (U, V) representing a Jacobian class."""

    __slots__ = ("curve", "U", "V")

    def __init__(self, curve, U, V, validate=True):
        if validate:
            why = _mumford_failure(curve, U, V)
            if why is not None:
                raise errors.InvalidDivisor(why)
        self.curve = curve
        self.U = U
        self.V = V

    @classmethod
    def identity(cls, curve):
        return cls(curve, Polynomial.one(curve.field),
                   Polynomial.zero(curve.field), validate=False)

    def is_identity(self):
        return self.U.degree == 0

    def __eq__(self, other):
        if isinstance(other, MumfordDivisor):
            return (self.curve == other.curve
                    and self.U == other.U and self.V == other.V)
        return NotImplemented


    def __hash__(self):
        return hash((self.curve, self.U, self.V))

    def __add__(self, other):
        if isinstance(other, MumfordDivisor):
            return add(self, other)
        return NotImplemented

    def __neg__(self):
        return neg(self)

    def __mul__(self, n):
        if isinstance(n, int):
            return scalar_mul(n, self)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self):
        return "(U = %s, V = %s)" % (self.U, self.V)

    def __repr__(self):
        return "MumfordDivisor%s" % (self,)


def curve_make(field, alphas):
    """Curve y^2 = prod(x - alpha_i) from 2g+1 distinct roots."""
    return HyperellipticCurve(field, alphas)


def curve_from_coeffs(field, coeffs):
    """Convenience constructor from the coefficients of f, which must be
    monic of odd degree and split over the field with distinct roots."""
    f = Polynomial(field, coeffs)
    if f.is_zero() or not f.is_monic():
        raise errors.InvalidInput("f must be monic")
    found = roots_in_field(f)
    for r, m in found:
        if m > 1:
            raise errors.DuplicateRoots("root %s has multiplicity %d" % (r, m))
    if sum(m for _, m in found) != f.degree:
        raise errors.DoesNotSplit("f does not split over %r" % field)
    return HyperellipticCurve(field, [r for r, _ in found])


def mumford_validate(d):
    """True iff d's pair satisfies every reduced-Mumford invariant."""
    return _mumford_failure(d.curve, d.U, d.V) is None


def embed_point(P):
    """The class of (P) - (inf): infinity -> (1, 0), (a, b) -> (x - a, b)."""
    curve = P.curve
    if P.is_infinity:
        return MumfordDivisor.identity(curve)
    U = Polynomial(curve.field, [-P.x, curve.field.one()])
    V = Polynomial.constant(P.y)
    return MumfordDivisor(curve, U, V, validate=False)


def neg(d):
    """The inverse class (U, -V): reduced already, as deg V < deg U."""
    return MumfordDivisor(d.curve, d.U, -d.V, validate=False)


def _exact_div(F, a, b):
    q, r = raw_divrem(F, a, b)
    if r:
        raise errors.SelfCheckFailed("inexact division inside the group law; arithmetic bug")
    return q


def add(d1, d2):
    """The sum of two classes.

    A sum with a degree-1 operand takes one point-addition step
    (_add_point), and a class added to itself is doubled. At g = 2 a sum
    of two degree-2 classes then tries Lange's formula with s = (V2 - V1)
    / U1 mod U2, which decides it when U1 and U2 are coprime. Every sum
    left takes _cantor from e1 U1 + e2 U2 = gcd(U1, U2)."""
    if d1.curve != d2.curve:
        raise errors.CurveMismatch("divisors live on different curves")
    if d1.is_identity():
        return d2
    if d2.is_identity():
        return d1
    curve, F = d1.curve, d1.curve.field
    U1, V1, U2, V2 = d1.U.raws, d1.V.raws, d2.U.raws, d2.V.raws
    if len(U2) == 2:
        return _add_point(curve, U1, V1, U2, V2)
    if len(U1) == 2:
        return _add_point(curve, U2, V2, U1, V1)
    if U1 == U2 and V1 == V2:
        return double(d1)
    if curve.g == 2:
        d = _lange(curve, U1, V1, U2, raw_sub(F, V2, V1), raw_sub(F, U1, U2))
        if d is not None:
            return d
    return _cantor(curve, U1, V1, U2, V2, *raw_xgcd(F, U1, U2))


def double(d):
    """2d. A degree-1 class takes one point-addition step, d + d. At g = 2
    a degree-2 class with gcd(U, V) = 1 takes the explicit formula, with
    s = k / (2V) mod U for k = (f - V^2)/U = x^3 + k2 x^2 + k1 x + k0.
    Every other class but the identity takes _cantor from
    0 U + 1 U = U = gcd(U, U), so its one xgcd is _cantor's own,
    gcd(U, 2V)."""
    curve = d.curve
    F = curve.field
    U, V = d.U.raws, d.V.raws
    if len(U) == 1:
        return d
    if len(U) == 2:
        return _add_point(curve, U, V, U, V)
    if curve.g == 2:
        f, A, S, M = curve.f.raws, F._radd, F._rsub, F._rmul
        u0, u1, _ = U
        v0, v1 = (V + (F._zero_raw,) * 2)[:2]
        k2 = S(f[4], u1)
        k1 = S(S(f[3], u0), M(u1, k2))
        k0 = S(S(f[2], M(v1, v1)), A(M(u1, k1), M(u0, k2)))
        c = S(k2, u1)                                # k = (x + c) U + (k mod U)
        d2 = _lange(curve, U, (v0, v1), U, (S(k0, M(c, u0)), S(S(k1, u0), M(c, u1))),
                    raw_add(F, V, V))
        if d2 is not None:
            return d2
    return _cantor(curve, U, V, U, V, U, (), (F._one_raw,))


def _add_point(curve, U, V, L, W):
    """The sum of the nonzero class (U, V) and the degree-1 class
    (L, W) = (x - a, b), for one field inversion:

    - U(a) != 0: a CRT step, V' = V + ((b - V(a)) / U(a)) U;
    - V(a) = -b (b = 0 included): the point cancels, U' = U / (x - a)
      and V' = V mod U';
    - V(a) = b != 0: a Hensel step, V' = V + (K(a) / 2b) U, with
      K = (f - V^2)/U, so that x - a divides (V'^2 - f)/U.

    In the first and the last case U' = U (x - a), and _reduce takes it
    back to degree g when it exceeds it."""
    F = curve.field
    z = F._zero_raw
    a, b = F._rneg(L[0]), (W + (z,))[0]
    va = raw_eval(F, V, a)
    ua = raw_eval(F, U, a)
    if ua != z:
        t = F._rmul(F._rsub(b, va), F._rinv(ua))
    elif F._radd(va, b) == z:
        Q = _exact_div(F, U, L)
        return MumfordDivisor(curve, from_raws(F, Q), from_raws(F, raw_divrem(F, V, Q)[1]),
                              validate=False)
    else:
        K = _exact_div(F, raw_sub(F, curve.f.raws, raw_mul(F, V, V)), U)
        t = F._rmul(raw_eval(F, K, a), F._rinv(F._radd(b, b)))
    if t != z:
        V = raw_add(F, V, raw_scale(F, U, t))
    return _reduce(curve, raw_mul(F, U, L), V)


# --- explicit genus-2 formulas (Lange, AAECC 15, 2005, for h = 0) ---
#
# A degree-2 U is the raw tuple (u0, u1, 1); a V, w or y is padded to
# (v0, v1). Reduced pairs are unique, so a formula and Cantor give the same
# class.

def _lange(curve, U1, V1, U2, w, y):
    """The tail shared by sums and doubles: with s = s1 x + s0 = w / y mod
    U2 (w, y of degree <= 1), the class of (U1 U2, V1 + s U1). For s1 != 0
    it is

        U' = (s^2 U1 + 2 s V1 - k) / (s1^2 U2),   V' = -(V1 + s U1) mod U',

    k = (f - V1^2)/U1, since deg(V1 + s U1) = 3 makes one reduction step
    enough. For s1 = 0 that step, f - (V1 + s0 U1)^2 of degree 5 over U1 U2,
    gives a degree-1 U', and _reduce takes it; s0 = 0 leaves V1. None
    exactly when y is not prime to U2."""
    F, f = curve.field, curve.f.raws
    A, S, M, z = F._radd, F._rsub, F._rmul, F._zero_raw
    (u10, u11, _), (u20, u21, _) = U1, U2
    (v10, v11), (w0, w1), (y0, y1) = ((t + (z, z))[:2] for t in (V1, w, y))
    # (y1 x + y0)(-y1 x + c) = r mod U2, so s = (t1 x + t0) / r
    c = S(y0, M(u21, y1))
    r = A(M(y0, c), M(u20, M(y1, y1)))
    if r == z:
        return None
    h = M(w1, y1)
    t1 = A(S(M(w1, c), M(w0, y1)), M(u21, h))
    t0 = A(M(w0, c), M(u20, h))
    if t1 == z:                                      # s = t0 / r, maybe 0
        s = M(t0, F._rinv(r))
        return _reduce(curve, raw_mul(F, U1, U2),
                       raw_add(F, (v10, v11, z), (M(s, u10), M(s, u11), s)))
    inv = F._rinv(M(r, t1))                          # the one inversion
    s1, sg, i = M(M(t1, t1), inv), M(M(t0, r), inv), M(M(r, r), inv)  # s1, s0/s1, 1/s1
    i2, su = M(i, i), M(sg, u11)
    # U' = x^2 + a1 x + a0 from the top three coefficients of the quotient
    a1 = A(S(u11, u21), S(A(sg, sg), i2))
    a0 = S(A(A(u10, A(su, su)), A(M(sg, sg), M(A(v11, v11), i))),
           A(A(M(S(f[4], u11), i2), M(u21, a1)), u20))
    # s U1 = s1 (x + s0/s1) U1, reduced mod U' with x^2 = -a1 x - a0
    e = S(A(sg, u11), a1)
    return _reduce(curve, (a0, a1, F._one_raw), raw_sub(
        F, (M(s1, S(M(a0, e), M(sg, u10))), M(s1, S(A(a0, M(a1, e)), A(u10, su)))),
        (v10, v11)))


def _cantor(curve, U1, V1, U2, V2, d0, e1, e2):
    """Cantor's composition from e1 U1 + e2 U2 = d0 = gcd(U1, U2), followed
    by reduction. With c1 d0 + c2 (V1 + V2) = d, the gcd of U1, U2 and
    V1 + V2, the composite is U = U1 U2 / d^2 and
    V = (c1 (e1 U1 V2 + e2 U2 V1) + c2 (V1 V2 + f)) / d mod U."""
    F, f = curve.field, curve.f.raws
    d, c1, c2 = raw_xgcd(F, d0, raw_add(F, V1, V2))
    U = _exact_div(F, raw_mul(F, U1, U2), raw_mul(F, d, d))
    t = raw_add(F, raw_mul(F, raw_mul(F, e1, U1), V2), raw_mul(F, raw_mul(F, e2, U2), V1))
    t = raw_add(F, raw_mul(F, c1, t), raw_mul(F, c2, raw_add(F, raw_mul(F, V1, V2), f)))
    return _reduce(curve, U, raw_divrem(F, _exact_div(F, t, d), U)[1])


def _reduce(curve, U, V):
    """The reduced class of the semi-reduced pair (U, V), deg V < deg U."""
    F, f, g = curve.field, curve.f.raws, curve.g
    while len(U) > g + 1:
        U = _exact_div(F, raw_sub(F, f, raw_mul(F, V, V)), U)
        if U[-1] != F._one_raw:
            U = raw_scale(F, U, F._rinv(U[-1]))
        V = raw_divrem(F, raw_sub(F, (), V), U)[1]
    return MumfordDivisor(curve, from_raws(F, U), from_raws(F, V), validate=False)


def scalar_mul(n, d):
    """n times d by double-and-add, n.bit_length() - 1 doubles; negative n
    goes through neg."""
    if n < 0:
        return scalar_mul(-n, neg(d))
    acc = MumfordDivisor.identity(d.curve)
    base = d
    while n:
        if n & 1:
            acc = add(acc, base)
        n >>= 1
        if n:
            base = double(base)
    return acc


def weil_cap(curve):
    """floor((sqrt q + 1)^(2g)), an exact upper bound for the group order.

    Expanding the power splits it as A + B sqrt(q) with integers A, B, and
    floor then equals A + isqrt(B^2 q)."""
    q, g = curve.field.q, curve.g
    a = b = 0
    for j in range(2 * g + 1):
        c = math.comb(2 * g, j) * q ** (j // 2)
        if j % 2 == 0:
            a += c
        else:
            b += c
    return a + math.isqrt(b * b * q)


def order(d, cap=None):
    """Smallest n >= 1 with n*d = identity, by Terr's baby-step giant-step.

    Terr 2000 (Math. Comp. 69, "A modification of Shanks' baby-step
    giant-step algorithm"). Step k stores the baby step k*d and moves the
    giant step to T_k*d, T_k = k(k+1)/2. A giant step equal to a stored j*d
    with k > 1 gives the multiple T_k - j of the order. As j runs through
    k..1 it covers T_{k-1}..T_k - 1, and these ranges tile the positive
    integers in order, so the first hit is the exact order n. That takes
    about sqrt(8n) additions and no knowledge of the group order.

    CapExceeded is raised exactly when the order exceeds the cap, and the
    search stops once every order left exceeds it. The cap defaults to the
    Weil bound, which no order exceeds unless the arithmetic is broken."""
    if cap is None:
        cap = weil_cap(d.curve)
    seen = {d: 1}
    baby = giant = d
    k = t = 1                   # baby = k*d, giant = t*d with t = T_k
    n = 1 if d.is_identity() else None
    while n is None and t <= cap:   # orders below T_k are ruled out
        k += 1
        baby = add(baby, d)
        if baby.is_identity():
            n = k
            break
        seen[baby] = k
        t += k
        giant = add(giant, baby)
        j = seen.get(giant)
        if j is not None:
            n = t - j
    if n is None or n > cap:
        raise errors.CapExceeded("order search passed the cap %d" % cap)
    return n


def two_torsion_classes(curve):
    """All 2^(2g) - 1 classes (prod_{i in I}(x - alpha_i), 0) over the
    nonempty root subsets I with |I| <= g, ordered by (|I|, lex indices)."""
    zero = Polynomial.zero(curve.field)
    out = []
    for m in range(1, curve.g + 1):
        for I in itertools.combinations(range(len(curve.alphas)), m):
            U = from_roots(curve.field, [curve.alphas[i] for i in I])
            out.append(MumfordDivisor(curve, U, zero, validate=False))
    return out


def _coeff_vectors(field, length):
    """All length-tuples of field elements, first coordinate fastest."""
    els = list(field.elements())
    for tup in itertools.product(els, repeat=length):
        yield tup[::-1]


def enumerate_theta(curve, d):
    """All classes whose reduced U has degree <= d, i.e. Theta_d(F_q).

    Scans monic U of each degree m <= d and all V with deg V < m, keeping
    the pairs where V^2 = f mod U, with f mod U taken once per U and each
    V^2 built once per degree. Reduced representatives are unique, so no
    deduplication is needed. d = g yields the whole group."""
    if not 0 <= d <= curve.g:
        raise errors.DegreeOutOfRange("need 0 <= d <= %d, got %d" % (curve.g, d))
    field, f = curve.field, curve.f.raws
    one = field.one()
    out = [MumfordDivisor.identity(curve)]
    for m in range(1, d + 1):
        Vs = [Polynomial(field, vvec) for vvec in _coeff_vectors(field, m)]
        squares = [(V, raw_mul(field, V.raws, V.raws)) for V in Vs]
        for uvec in _coeff_vectors(field, m):
            U = Polynomial(field, list(uvec) + [one])
            Ur = U.raws
            residue = raw_divrem(field, f, Ur)[1]
            for V, square in squares:
                if raw_divrem(field, square, Ur)[1] == residue:
                    out.append(MumfordDivisor(curve, U, V, validate=False))
    return out


def enumerate_points(curve):
    """All points of the curve over its base field, affine points ordered
    by (x index, y index), the point at infinity last."""
    field, f = curve.field, curve.f
    pts = []
    for x in field.elements():
        val = f.eval(x)
        if val.is_zero():
            pts.append(CurvePoint(curve, x, field.zero()))
            continue
        rr = sqrt(val)
        if rr is not None:
            pts.append(CurvePoint(curve, x, rr[0]))
            pts.append(CurvePoint(curve, x, rr[1]))
    pts.append(CurvePoint.infinity(curve))
    return pts


def curve_spec(curve):
    """Text form `field=<fieldspec>;alphas=a1,a2,...`."""
    alphas = ",".join(element_text(a) for a in curve.alphas)
    return "field=%s;alphas=%s" % (field_spec(curve.field), alphas)


def parse_curve(field_text, alphas_text):
    """Curve from a field spec and the comma-separated list of its roots."""
    field = parse_field_spec(field_text)
    if not alphas_text:
        raise errors.InvalidInput("empty alphas list")
    return curve_make(field, [parse_element(field, t)
                              for t in split_element_list(alphas_text)])


def parse_curve_spec(text):
    """Curve from its text form `field=<fieldspec>;alphas=a1,a2,...`."""
    if not isinstance(text, str):
        raise errors.InvalidInput("curve spec must be a string, got %r" % (text,))
    parts = text.split(";")
    if len(parts) != 2 or not parts[0].startswith("field=") \
            or not parts[1].startswith("alphas="):
        raise errors.InvalidInput("curve spec must look like field=...;alphas=...")
    return parse_curve(parts[0][len("field="):], parts[1][len("alphas="):])


def mumford_to_json(d):
    return {"U": poly_to_json(d.U), "V": poly_to_json(d.V)}


def mumford_from_json(curve, data):
    if not isinstance(data, dict) or set(data) != {"U", "V"}:
        raise errors.InvalidInput('Mumford JSON must be {"U": [...], "V": [...]}')
    U = poly_from_json(curve.field, data["U"])
    V = poly_from_json(curve.field, data["V"])
    return MumfordDivisor(curve, U, V)
