"""Closed-form division by 2 of a curve point inside the Jacobian.

Halving (a, b) runs through sign vectors r = (r_1, ..., r_{2g+1}) with
r_i^2 = a - alpha_i and prod r_i = -b. Each vector yields one half via
the elementary symmetric functions s_k of the r_i:

    U_r(x) = (-1)^g [ (a-x)^g + sum_{j=1..g} s_{2j} (a-x)^(g-j) ]
    V_r(x) = sum_{j=1..g} (s_{2j+1} - s_1 s_{2j}) (a-x)^(g-j)

There are exactly 2^(2g) such vectors, one per half. Every output is
proven before it is returned by one certificate: v = V_r + (-1)^g s_1 U_r
satisfies f - v^2 = (x - a) U_r^2 and v(a) = -b. Then
div(y - v) = 2D + (a, -b) - (2g+1) inf, so 2D = (P) - (inf), and since f
is squarefree U_r is coprime to f and divides V_r^2 - f. A failure there
is an internal error, never a silent wrong answer. The Cantor group law
stays in the tests and the benchmark as the independent oracle. The
reverse direction recovers r from (U, V) through s_1 and the ratios
V(alpha_i)/U(alpha_i).

When some a - alpha_i is a non-square the halves are not rational;
lift_to_sqrt_field moves the data to the quadratic extension, where
every base-field element is a square.

Sign vectors are enumerated deterministically: each coordinate's
canonical root is the square root with the smaller canonical index, and
sign patterns of 2g free coordinates count up in binary with the first
as the most significant bit. The remaining coordinate, the zero one when
a is a root of f and the last one otherwise, takes the sign that makes
the product -b.
"""

from . import errors
from .field import quadratic_extension, sqrt
from .poly import Polynomial, symmetric_functions
from .jacobian import CurvePoint, MumfordDivisor, curve_make


class SignVector:
    """A choice of square roots r_i of a - alpha_i with prod r_i = -b."""

    __slots__ = ("curve", "point", "r")

    def __init__(self, curve, point, r):
        r = tuple(r)
        a, b = point.x, point.y
        if len(r) != len(curve.alphas):
            raise ValueError("need one coordinate per curve root")
        for ri, alpha in zip(r, curve.alphas):
            if ri * ri != a - alpha:
                raise ValueError("r_i^2 != a - alpha_i")
        prod = curve.field.one()
        for ri in r:
            prod = prod * ri
        if prod != -b:
            raise ValueError("prod r_i != -b")
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


def sqrt_choices(curve, P):
    """All 2^(2g) sign vectors for the affine point P, in deterministic
    sign-pattern order."""
    if P.curve != curve:
        raise errors.CurveMismatch("point lives on a different curve")
    if P.is_infinity:
        raise errors.PointAtInfinity(
            "halves of the identity are the two-torsion classes; "
            "use two_torsion_classes instead")
    a, b = P.x, P.y
    field = curve.field
    n = len(curve.alphas)

    roots = []
    rest = n - 1
    for i, alpha in enumerate(curve.alphas):
        diff = a - alpha
        if diff.is_zero():
            rest = i
            roots.append(field.zero())
            continue
        rr = sqrt(diff)
        if rr is None:
            raise errors.SquareRootMissing(i)
        roots.append(rr[0])

    free = [i for i in range(n) if i != rest]
    m = len(free)
    target = -b
    out = []
    for mask in range(1 << m):
        r = list(roots)
        prod = field.one()
        for k, i in enumerate(free):
            if (mask >> (m - 1 - k)) & 1:
                r[i] = -r[i]
            prod = prod * r[i]
        if prod * r[rest] != target:
            r[rest] = -r[rest]
        out.append(SignVector(curve, P, r))
    return out


def lift_to_sqrt_field(curve, P):
    """(curve, P) unchanged when every a - alpha_i is a square; otherwise
    the same data embedded into the quadratic extension, where halving
    always succeeds."""
    if P.is_infinity:
        raise errors.PointAtInfinity("nothing to lift for the point at infinity")
    from .field import is_square
    a = P.x
    if all(is_square(a - alpha) for alpha in curve.alphas):
        return curve, P
    field2, emb = quadratic_extension(curve.field)
    curve2 = curve_make(field2, [emb(alpha) for alpha in curve.alphas])
    return curve2, CurvePoint(curve2, emb(P.x), emb(P.y))


def _mumford_from_signs(curve, a, r):
    """(U_r, V_r, s_1) from the closed formulas, no validation."""
    field = curve.field
    g = curve.g
    s = symmetric_functions(r, field)            # s[k-1] holds s_k
    amx = Polynomial(field, [a, field(-1)])      # a - x
    powers = [Polynomial.one(field)]
    for _ in range(g):
        powers.append(powers[-1] * amx)
    sign = field(-1) if g % 2 else field.one()

    U = powers[g]
    for j in range(1, g + 1):
        U = U + powers[g - j] * s[2 * j - 1]
    U = U * sign
    V = Polynomial.zero(field)
    for j in range(1, g + 1):
        V = V + powers[g - j] * (s[2 * j] - s[0] * s[2 * j - 1])
    return U, V, s[0]


def half_from_signs(sv):
    """The half determined by one sign vector, proven before being
    returned by the certificate f - v^2 = (x - a) U_r^2, v(a) = -b for
    v = V_r + (-1)^g s_1 U_r (see the module docstring)."""
    curve = sv.curve
    a, b = sv.point.x, sv.point.y
    U, V, s1 = _mumford_from_signs(curve, a, sv.r)

    if not U.is_monic() or U.degree != curve.g:
        raise errors.SelfCheckFailed("U_r is not monic of degree g")
    if not V.degree < curve.g:
        raise errors.SelfCheckFailed("deg V_r is not below g")
    v = V + U * (-s1 if curve.g % 2 else s1)
    if curve.f - v * v != Polynomial(curve.field, [-a, 1]) * U * U:
        raise errors.SelfCheckFailed("f - v^2 != (x - a) U_r^2")
    if v.eval(a) != -b:
        raise errors.SelfCheckFailed("v(a) != -b")
    return HalfLift(sv, MumfordDivisor(curve, U, V, validate=False))


def halve_point(curve, P):
    """All 2^(2g) halves of the class of (P) - (inf), in deterministic
    sign-pattern order. The caller lifts first when square roots are
    missing (see lift_to_sqrt_field)."""
    halves = [half_from_signs(sv) for sv in sqrt_choices(curve, P)]
    distinct = {(h.mumford.U, h.mumford.V) for h in halves}
    if len(distinct) != 1 << (2 * curve.g):
        raise errors.SelfCheckFailed("halves are not pairwise distinct")
    return halves


def recover_signs(curve, U, V):
    """Reconstruct (sign vector, point) from a half's Mumford pair.

    s_1 comes from the trace identity 2g s_1 = (-1)^(g+1) sum_i w_i with
    w_i = V(alpha_i)/U(alpha_i) when the characteristic does not divide
    g, and otherwise from the two-index formula on the first lexicographic
    pair (i, l) with w_i != w_l. Then r_i = s_1 + (-1)^g w_i, the point is
    a = r_i^2 + alpha_i, b = -prod r_i, and the pair must rebuild to
    exactly (U, V)."""
    field = curve.field
    g = curve.g
    if U.field != field or V.field != field:
        raise errors.FieldMismatch("polynomials over the wrong field")
    if U.is_zero() or not U.is_monic() or U.degree != g:
        raise errors.NotAHalf("U must be monic of degree g")
    if not V.degree < g:
        raise errors.NotAHalf("deg V must be below g")
    u = [U.eval(alpha) for alpha in curve.alphas]
    if any(ui.is_zero() for ui in u):                # f splits into the alphas
        raise errors.SharedRootWithF("U and f have a common root")

    w = [V.eval(alpha) / ui for alpha, ui in zip(curve.alphas, u)]
    sign = field(-1) if g % 2 else field.one()

    if g % field.p != 0:
        total = field.zero()
        for wi in w:
            total = total + wi
        s1 = (-sign) * total / field(2 * g)      # (-1)^(g+1) sum / 2g
    else:
        s1 = None
        for i in range(len(w)):
            for l in range(i + 1, len(w)):
                if w[i] != w[l]:
                    num = (curve.alphas[l] + w[l] * w[l]) \
                        - (curve.alphas[i] + w[i] * w[i])
                    s1 = sign * num / (field(2) * (w[i] - w[l]))
                    break
            if s1 is not None:
                break
        if s1 is None:
            raise errors.NotAHalf("all ratios V(alpha_i)/U(alpha_i) coincide")

    r = tuple(s1 + sign * wi for wi in w)
    a = r[0] * r[0] + curve.alphas[0]
    for ri, alpha in zip(r, curve.alphas):
        if ri * ri + alpha != a:
            raise errors.NotAHalf("coordinates do not agree on the point")
    prod = field.one()
    for ri in r:
        prod = prod * ri
    b = -prod

    try:
        point = CurvePoint(curve, a, b)
        sv = SignVector(curve, point, r)
    except (errors.PointNotOnCurve, ValueError) as exc:
        raise errors.NotAHalf(str(exc)) from exc

    U2, V2, _ = _mumford_from_signs(curve, a, r)
    if U2 != U or V2 != V:
        raise errors.NotAHalf("the pair does not rebuild from its sign vector")
    return sv, point
