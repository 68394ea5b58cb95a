"""Closed-form division by 2 of a curve point inside the Jacobian.

Halving (a, b) runs through sign vectors r = (r_1, ..., r_{2g+1}) with
r_i^2 = a - alpha_i and prod r_i = -b. Each vector yields one half via
the elementary symmetric functions s_k of the r_i:

    U_r(x) = (-1)^g [ (a-x)^g + sum_{j=1..g} s_{2j} (a-x)^(g-j) ]
    V_r(x) = sum_{j=1..g} (s_{2j+1} - s_1 s_{2j}) (a-x)^(g-j)

There are exactly 2^(2g) such vectors, one per half. They share a, f and
the powers (a - x)^k, k <= g, so halve_point builds that table once per
point (_closed_form), and each half is then two linear combinations of
its rows with the s_k as coefficients, on raw coefficient tuples.

Every output is proven before it is returned by one certificate, which
also runs on raws: v = V_r + (-1)^g s_1 U_r satisfies
f - v^2 = (x - a) U_r^2 and v(a) = -b. It takes two products per half.
With f = (x - a) f_1 + f(a), split once per point, and
v = (x - a) w + beta, one synthetic division per half,

    f - v^2 = (x - a) (f_1 - U_r^2 - w (v + beta)) + f(a) - beta^2,

so the identity holds exactly when f(a) = beta^2 and
f_1 = U_r^2 + w (v + beta), and v(a) = -b is beta = -b. Then
div(y - v) = 2D + (a, -b) - (2g+1) inf, so 2D = (P) - (inf), and since f
is squarefree U_r is coprime to f and divides V_r^2 - f. A failure there
is an internal error, never a silent wrong answer. The Cantor group law
stays in the tests and the benchmark as the independent oracle. The
reverse direction recovers r and (a, b) from (U, V) through s_1 and the
ratios V(alpha_i)/U(alpha_i), and the same certificate decides whether
(U, V) is a half at all.

When some a - alpha_i is a non-square the halves are not rational;
lift_to_sqrt_field moves the data to the quadratic extension, where
every base-field element is a square. Each curve builds its lifted
curve once and keeps it.

Sign vectors are enumerated deterministically: each coordinate's
canonical root is the square root with the smaller canonical index, and
sign patterns of 2g free coordinates count up in binary with the first
as the most significant bit. The remaining coordinate, the zero one when
a is a root of f and the last one otherwise, takes the sign that makes
the product -b.
"""

import math

from . import errors
from .field import is_square, quadratic_extension, sqrt
from .poly import (from_raws, raw_add, raw_divrem, raw_mul, raw_scale,
                   raw_symmetric_functions)
from .jacobian import CurvePoint, MumfordDivisor, curve_make


class SignVector:
    """A choice of square roots r_i of a - alpha_i with prod r_i = -b."""

    __slots__ = ("curve", "point", "r")

    def __init__(self, curve, point, r):
        _require_affine(curve, point)
        r = tuple(curve.field(x) for x in r)
        a, b = point.x, point.y
        if len(r) != len(curve.alphas):
            raise errors.InvalidInput("need one coordinate per curve root")
        for ri, alpha in zip(r, curve.alphas):
            if ri * ri != a - alpha:
                raise errors.InvalidInput("r_i^2 != a - alpha_i")
        if math.prod(r, start=curve.field.one()) != -b:
            raise errors.InvalidInput("prod r_i != -b")
        # r_i != +-r_j needs no check: with r_i^2 = a - alpha_i it would
        # force alpha_i = alpha_j, which the curve already rejects.
        self.curve = curve
        self.point = point
        self.r = r

    def __repr__(self):
        return "SignVector(%s)" % (", ".join(str(x) for x in self.r))


class HalfLift:
    """A sign vector together with its Mumford pair (U_r, V_r)."""

    __slots__ = ("sign_vector", "mumford")

    def __init__(self, sign_vector, mumford):
        self.sign_vector = sign_vector
        self.mumford = mumford

    def __repr__(self):
        return "HalfLift(%r, %r)" % (self.sign_vector, self.mumford)


def _require_affine(curve, P):
    """Raise unless P is an affine point of curve."""
    if P.curve != curve:
        raise errors.CurveMismatch("point lives on a different curve")
    if P.is_infinity:
        raise errors.PointAtInfinity(
            "halves of the identity are the two-torsion classes; "
            "use two_torsion_classes instead")


def sqrt_choices(curve, P):
    """All 2^(2g) sign vectors for the affine point P, in deterministic
    sign-pattern order."""
    _require_affine(curve, P)
    a, b = P.x, P.y
    field = curve.field
    n = len(curve.alphas)

    roots = []
    rest = n - 1
    for i, alpha in enumerate(curve.alphas):
        diff = a - alpha
        rr = sqrt(diff)
        if rr is None:
            raise errors.SquareRootMissing(i)
        if diff.is_zero():
            rest = i
        roots.append(rr[0])

    # Every choice has (prod r_i)^2 = f(a) = b^2, so prod r_i = +-b, and
    # each flipped sign negates it: the parity of the mask alone decides
    # whether r_rest must take its other sign to make the product -b.
    even_gives_target = math.prod(roots, start=field.one()) == -b
    negs = [-x for x in roots]
    free = [i for i in range(n) if i != rest]
    m = len(free)
    out = []
    for mask in range(1 << m):
        r = list(roots)
        for k, i in enumerate(free):
            if (mask >> (m - 1 - k)) & 1:
                r[i] = negs[i]
        if bool(mask.bit_count() & 1) == even_gives_target:
            r[rest] = negs[rest]
        out.append(_sign_vector(curve, P, r))
    return out


def _sign_vector(curve, point, r):
    """A SignVector without the constructor's checks, for sqrt_choices
    and recover_signs: there prod r_i = -b holds by construction, and the
    r_i are verified square roots or proven ones by the certificate."""
    sv = SignVector.__new__(SignVector)
    sv.curve, sv.point, sv.r = curve, point, tuple(r)
    return sv


def lift_to_sqrt_field(curve, P):
    """(curve, P) unchanged when every a - alpha_i is a square; otherwise
    the same data embedded into the quadratic extension, where halving
    always succeeds. The lifted curve is built once per curve object and
    kept, so every lifted point of a curve lies on the same object."""
    _require_affine(curve, P)
    a = P.x
    if all(is_square(a - alpha) for alpha in curve.alphas):
        return curve, P
    field2, emb = quadratic_extension(curve.field)
    if curve._lift is None:
        curve._lift = curve_make(field2, [emb(alpha) for alpha in curve.alphas])
    curve2 = curve._lift
    return curve2, CurvePoint(curve2, emb(P.x), emb(P.y))


def _closed_form(curve, a):
    """The closed form at the abscissa a: a function from the raws of a
    sign vector r to the raws of (U_r, V_r, (-1)^g s_1).

    The powers (a - x)^k, k <= g, depend on a alone, so they are built
    once here and shared by all 2^(2g) halves of the point; U_r and V_r
    are then linear combinations of them with the s_k as coefficients."""
    F = curve.field
    g = curve.g
    radd, rsub, rmul, rneg = F._radd, F._rsub, F._rmul, F._rneg
    zero = F._zero_raw
    amx = (a.raw, rneg(F._one_raw))                        # a - x
    powers = [(F._one_raw,)]
    for _ in range(g):
        powers.append(raw_mul(F, powers[-1], amx))
    odd = g % 2
    top = tuple(map(rneg, powers[g])) if odd else powers[g]    # (x - a)^g
    # Equal coefficients of different halves share one raw object. Over a
    # small F_{q^2} most of them repeat: two thirds of the coefficients of
    # the lifted halves of the F_7..F_13 family.
    share = {}.setdefault

    def half(r):
        s = raw_symmetric_functions(F, r)                  # s[k-1] holds s_k
        s1 = s[0]
        U, V = list(top), [zero] * g
        for k, row in enumerate(powers[:g]):               # k = g - j
            s2j = s[2 * (g - k) - 1]
            cu = rneg(s2j) if odd else s2j
            cv = rsub(s[2 * (g - k)], rmul(s1, s2j))
            for i, t in enumerate(row):
                U[i] = radd(U[i], rmul(cu, t))
                V[i] = radd(V[i], rmul(cv, t))
        while V and V[-1] == zero:
            V.pop()
        return (tuple([share(c, c) for c in U]), tuple([share(c, c) for c in V]),
                rneg(s1) if odd else s1)

    return half


def _divide_at(F, u, a):
    """(w, u(a)) with u = (x - a) w + u(a), by one synthetic division of
    the raw polynomial u at the raw a."""
    w, rem = raw_divrem(F, u, (F._rneg(a), F._one_raw))
    return w, rem[0] if rem else F._zero_raw


def _certify(curve, a, b, f_at_a, U, V, c, error):
    """Raise error, naming the failed clause, unless the raw pair (U, V)
    is a half of (a, b): U monic of degree g, deg V < g, and v = V + c U
    with f - v^2 = (x - a) U^2 and v(a) = -b, decided as f(a) = beta^2,
    f_1 = U^2 + w (v + beta) and beta = -b (see the module docstring).
    a, b and c = (-1)^g s_1 are raws, and f_at_a = (f_1, f(a)) is
    _divide_at(f, a)."""
    F = curve.field
    if len(U) != curve.g + 1 or U[-1] != F._one_raw:
        raise error("U is not monic of degree g")
    if len(V) > curve.g:
        raise error("deg V is not below g")
    v = V if c == F._zero_raw else raw_add(F, V, raw_scale(F, U, c))
    f1, fa = f_at_a
    w, beta = _divide_at(F, v, a)
    if (F._rmul(beta, beta) != fa
            or raw_add(F, raw_mul(F, U, U), raw_mul(F, w, raw_add(F, v, (beta,)))) != f1):
        raise error("f - v^2 != (x - a) U^2")
    if beta != F._rneg(b):
        raise error("v(a) != -b")


def _proven_half(curve, sv, closed, f_at_a):
    """The raw pair (U_r, V_r) of sv from closed, through the certificate."""
    U, V, c = closed([x.raw for x in sv.r])
    _certify(curve, sv.point.x.raw, sv.point.y.raw, f_at_a, U, V, c,
             errors.SelfCheckFailed)
    return U, V


def _half_lift(curve, sv, U, V):
    """The HalfLift of sv and its proven raw pair (U, V)."""
    F = curve.field
    return HalfLift(sv, MumfordDivisor(curve, from_raws(F, U), from_raws(F, V),
                                       validate=False))


def half_from_signs(sv):
    """The half determined by one sign vector, proven by the certificate
    before it is returned."""
    curve = sv.curve
    a = sv.point.x
    U, V = _proven_half(curve, sv, _closed_form(curve, a),
                        _divide_at(curve.field, curve.f.raws, a.raw))
    return _half_lift(curve, sv, U, V)


def halve_point(curve, P):
    """All 2^(2g) halves of the class of (P) - (inf), in deterministic
    sign-pattern order, from one table of powers of (a - x) and one split
    of f at a. The caller lifts first when square roots are missing (see
    lift_to_sqrt_field)."""
    svs = sqrt_choices(curve, P)
    closed = _closed_form(curve, P.x)
    f_at_a = _divide_at(curve.field, curve.f.raws, P.x.raw)
    pairs = [_proven_half(curve, sv, closed, f_at_a) for sv in svs]
    if len(set(pairs)) != 1 << (2 * curve.g):
        raise errors.SelfCheckFailed("halves are not pairwise distinct")
    return [_half_lift(curve, sv, U, V) for sv, (U, V) in zip(svs, pairs)]


def recover_signs(curve, U, V):
    """Reconstruct (sign vector, point) from a half's Mumford pair.

    A half has r_i = s_1 + sigma w_i with w_i = V(alpha_i)/U(alpha_i) and
    sigma = (-1)^g. Subtracting r_2^2 = a - alpha_2 from r_1^2 = a - alpha_1
    gives, in every odd characteristic,

        s_1 = sigma ((alpha_2 + w_2^2) - (alpha_1 + w_1^2)) / (2 (w_1 - w_2)),

    well defined because w_1 = w_2 would force r_1 = r_2 and so
    alpha_1 = alpha_2. Then a = r_1^2 + alpha_1 and b = -prod r_i, and the
    certificate of half_from_signs alone decides whether (U, V) is a half
    of (a, b), its shape (U monic of degree g, deg V < g) included;
    NotAHalf names the clause that fails. Only what the evaluations and
    divisions above need is checked first: the field, no root shared with
    f, and w_1 != w_2; none of it depends on the shape. The certificate
    proves the rest: f(a) = v(a)^2 = b^2 puts (a, b) on the curve, and at
    x = alpha_i it gives r_i = sigma v(alpha_i)/U(alpha_i) with
    r_i^2 = a - alpha_i. By the paper's bijection a proven half is the one
    its r rebuilds."""
    field = curve.field
    g = curve.g
    if U.field != field or V.field != field:
        raise errors.FieldMismatch("polynomials over the wrong field")
    u = [U.eval(alpha) for alpha in curve.alphas]
    if any(ui.is_zero() for ui in u):                # f splits into the alphas
        raise errors.SharedRootWithF("U and f have a common root")

    w = [V.eval(alpha) / ui for alpha, ui in zip(curve.alphas, u)]
    sign = field(-1) if g % 2 else field.one()
    (alpha1, alpha2), (w1, w2) = curve.alphas[:2], w[:2]
    if w1 == w2:
        raise errors.NotAHalf("V(alpha_i)/U(alpha_i) coincide on the first two roots")
    s1 = sign * ((alpha2 + w2 * w2) - (alpha1 + w1 * w1)) / (field(2) * (w1 - w2))

    r = [s1 + sign * wi for wi in w]
    a = r[0] * r[0] + alpha1
    b = -math.prod(r, start=field.one())
    _certify(curve, a.raw, b.raw, _divide_at(field, curve.f.raws, a.raw),
             U.raws, V.raws, (sign * s1).raw, errors.NotAHalf)
    point = CurvePoint(curve, a, b)
    return _sign_vector(curve, point, r), point
