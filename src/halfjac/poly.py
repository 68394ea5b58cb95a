"""Dense univariate polynomials over a finite field.

A Polynomial holds its field and a tuple of canonical raw coefficients
(see field.py), little-endian (index i holds the coefficient of x^i) with
trailing zeros stripped, so the representation of each polynomial is
unique and equality is structural. The zero polynomial has the empty
tuple and its degree is the NEG_INFINITY sentinel: total_ordering
derives its comparisons from __lt__ (below every int), and as it defines
no arithmetic, NEG_INFINITY + 1 is a TypeError.

The ring arithmetic runs on the raw tuples through the field's _r*
methods and builds its results unchecked; only the public constructor
coerces. Coefficients leave as FieldElements, built on access. The raw_*
functions and the unchecked constructor from_raws are public, so that the
group law in jacobian and the closed formulas in halving run on the same
raw tuples without a Polynomial per intermediate value.

Division, extended gcd, root finding, and elementary symmetric functions
are the pieces the group law and the halving formulas sit on. All gcds
returned by gcd_xgcd are monic, so gcd results are canonical.
"""

import functools

from . import errors
from .field import FieldElement, element_from_json, element_text, element_to_json


@functools.total_ordering
class _NegInfinity:
    """Degree of the zero polynomial. Below every int, no arithmetic."""

    __slots__ = ()

    def __lt__(self, other):
        if isinstance(other, _NegInfinity):
            return False
        if isinstance(other, (int, float)):
            return True
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, _NegInfinity)

    def __hash__(self):
        return hash("NEG_INFINITY")

    def __repr__(self):
        return "NEG_INFINITY"


NEG_INFINITY = _NegInfinity()


# --- ring arithmetic on raw coefficient tuples ---
#
# Inputs are stripped tuples of canonical raws of the field F; every result
# is one too. A product of nonzero polynomials over a field, and a nonzero
# multiple of one, keep their leading coefficient nonzero, so only sums,
# differences and remainders are stripped.

def _strip(cs, zero):
    while cs and cs[-1] == zero:
        cs.pop()
    return tuple(cs)


def raw_add(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(map(F._radd, a, b))
    if len(a) == len(b):
        return _strip(out, F._zero_raw)
    return tuple(out) + a[len(b):]


def raw_sub(F, a, b):
    out = list(map(F._rsub, a, b))
    if len(a) > len(b):
        return tuple(out) + a[len(b):]
    if len(a) < len(b):
        return tuple(out) + tuple(map(F._rneg, b[len(a):]))
    return _strip(out, F._zero_raw)


def raw_scale(F, a, c):
    """a times the nonzero c."""
    rmul = F._rmul
    return tuple([rmul(c, x) for x in a])


def raw_mul(F, a, b):
    if not a or not b:
        return ()
    return F._rpolymul(a, b)


def raw_divrem(F, a, b):
    """(quotient, remainder) of a by the nonzero b; a monic b costs no
    inverse."""
    db = len(b) - 1
    if len(a) <= db:
        return (), a
    rsub, rmul, zero = F._rsub, F._rmul, F._zero_raw
    inv_lc = None if b[-1] == F._one_raw else F._rinv(b[-1])
    low = b[:db]
    rem = list(a)
    quot = [zero] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = rem[i + db]
        if c == zero:
            continue
        if inv_lc is not None:
            c = rmul(c, inv_lc)
        quot[i] = c
        for j, cb in enumerate(low, i):
            rem[j] = rsub(rem[j], rmul(c, cb))
    return tuple(quot), _strip(rem[:db], zero)


def raw_compose(F, a, b):
    """a(b(x)), by Horner in the polynomial ring. Zero coefficients at the
    top of a are skipped, so a need not be stripped."""
    acc = ()
    for c in reversed(a):
        acc = raw_mul(F, acc, b)
        if c != F._zero_raw:
            acc = raw_add(F, acc, (c,))
    return acc


def raw_xgcd(F, a, b):
    """Monic gcd g and Bezout pair (s, t) with s*a + t*b = g; the gcd of
    two zero polynomials is zero, with s = 1 and t = 0."""
    one = (F._one_raw,)
    r0, r1 = a, b
    s0, s1 = one, ()
    t0, t1 = (), one
    while r1:
        q, r = raw_divrem(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, raw_sub(F, s0, raw_mul(F, q, s1))
        t0, t1 = t1, raw_sub(F, t0, raw_mul(F, q, t1))
    if r0 and r0[-1] != F._one_raw:
        c = F._rinv(r0[-1])
        r0, s0, t0 = raw_scale(F, r0, c), raw_scale(F, s0, c), raw_scale(F, t0, c)
    return r0, s0, t0


def raw_eval(F, a, x):
    """a(x) by Horner, for a raw x of F."""
    radd, rmul = F._radd, F._rmul
    acc = F._zero_raw
    for c in reversed(a):
        acc = radd(rmul(acc, x), c)
    return acc


class Polynomial:
    """Immutable dense polynomial with coefficients in one finite field;
    raws is the stripped little-endian tuple of canonical raw coefficients."""

    __slots__ = ("field", "raws")

    def __init__(self, field, coeffs):
        _set_field(self, field)
        _set_raws(self, _strip([field(c).raw for c in coeffs], field._zero_raw))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [field.one()])

    @classmethod
    def x(cls, field):
        return cls(field, [field.zero(), field.one()])

    @classmethod
    def constant(cls, element):
        return cls(element.field, [element])

    @property
    def coeffs(self):
        """The coefficients as FieldElements, little-endian."""
        return tuple([FieldElement(self.field, c) for c in self.raws])

    @property
    def degree(self):
        if not self.raws:
            return NEG_INFINITY
        return len(self.raws) - 1

    @property
    def leading_coeff(self):
        if not self.raws:
            raise errors.ZeroPolynomial("the zero polynomial has no leading coefficient")
        return FieldElement(self.field, self.raws[-1])

    def is_zero(self):
        return not self.raws

    def is_monic(self):
        return bool(self.raws) and self.raws[-1] == self.field._one_raw

    def make_monic(self):
        if not self.raws:
            raise errors.ZeroPolynomial("cannot normalize the zero polynomial")
        if self.raws[-1] == self.field._one_raw:
            return self
        F = self.field
        return from_raws(F, raw_scale(F, self.raws, F._rinv(self.raws[-1])))

    def _coerce(self, other):
        """The raws of other as a polynomial over this field; None when
        other is not a polynomial, a field element or an int."""
        if isinstance(other, Polynomial):
            if other.field is not self.field and other.field != self.field:
                raise errors.FieldMismatch("polynomials over different fields")
            return other.raws
        if isinstance(other, (FieldElement, int)):
            c = self.field(other).raw
            return () if c == self.field._zero_raw else (c,)
        return None

    def __add__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return from_raws(self.field, raw_add(self.field, self.raws, b))

    __radd__ = __add__

    def __neg__(self):
        return from_raws(self.field, tuple(map(self.field._rneg, self.raws)))

    def __sub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return from_raws(self.field, raw_sub(self.field, self.raws, b))

    def __rsub__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return from_raws(self.field, raw_sub(self.field, b, self.raws))

    def __mul__(self, other):
        b = self._coerce(other)
        if b is None:
            return NotImplemented
        return from_raws(self.field, raw_mul(self.field, self.raws, b))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise errors.InvalidInput("polynomial powers take a non-negative int")
        result = Polynomial.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divrem(self, other):
        """Quotient and remainder with deg(remainder) < deg(other)."""
        b = self._coerce(other)
        if b is None:
            raise errors.InvalidType("cannot divide by %r" % (other,))
        if not b:
            raise errors.DivisionByZero("polynomial division by zero")
        q, r = raw_divrem(self.field, self.raws, b)
        return from_raws(self.field, q), from_raws(self.field, r)

    def __floordiv__(self, other):
        return self.divrem(other)[0]

    def __mod__(self, other):
        return self.divrem(other)[1]

    def eval(self, x0):
        F = self.field
        return FieldElement(F, raw_eval(F, self.raws, F(x0).raw))

    def compose(self, other):
        """self(other(x)), by Horner in the polynomial ring."""
        b = self._coerce(other)
        if b is None:
            raise errors.InvalidType("compose expects a polynomial")
        return from_raws(self.field, raw_compose(self.field, self.raws, b))

    def derivative(self):
        F = self.field
        out = [F._rmul(F._rfromint(i), c) for i, c in enumerate(self.raws)]
        return from_raws(F, _strip(out[1:], F._zero_raw))

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.raws == other.raws and (self.field is other.field
                                                or self.field == other.field)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.raws))

    def __str__(self):
        if not self.raws:
            return "0"
        parts = []
        coeffs = self.coeffs
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c.is_zero():
                continue
            ctext = element_text(c)
            if i == 0:
                parts.append(ctext)
            else:
                xpow = "x" if i == 1 else "x^%d" % i
                if c == self.field.one():
                    parts.append(xpow)
                else:
                    parts.append("%s*%s" % (ctext, xpow))
        return " + ".join(parts)

    def __repr__(self):
        return "Polynomial(%r, %s)" % (self.field, str(self))


# Slot setters: they bypass Polynomial.__setattr__, which keeps the class
# immutable from outside.
_set_field = Polynomial.__dict__["field"].__set__
_set_raws = Polynomial.__dict__["raws"].__set__
_new_object = object.__new__


def from_raws(field, raws):
    """Unchecked constructor: raws must be a stripped tuple of canonical
    raws of field, as the ring arithmetic above returns."""
    p = _new_object(Polynomial)
    _set_field(p, field)
    _set_raws(p, raws)
    return p


def divrem(a, b):
    return a.divrem(b)


def gcd_xgcd(a, b):
    """Monic gcd g and Bezout pair (s, t) with s*a + t*b = g."""
    if a.field != b.field:
        raise errors.FieldMismatch("gcd of polynomials over different fields")
    F = a.field
    g, s, t = raw_xgcd(F, a.raws, b.raws)
    return from_raws(F, g), from_raws(F, s), from_raws(F, t)


def from_roots(field, roots):
    """The monic polynomial whose roots (with multiplicity) are given."""
    acc = (field._one_raw,)
    for r in roots:
        acc = raw_mul(field, acc, (field._rneg(field(r).raw), field._one_raw))
    return from_raws(field, acc)


def roots_in_field(a):
    """All roots of a in its coefficient field, as (root, multiplicity)
    pairs ordered by canonical element index. Scans the whole field, so
    the cost is O(q * deg)."""
    if a.is_zero():
        raise errors.ZeroPolynomial("every element is a root of the zero polynomial")
    F = a.field
    out = []
    work = a.raws
    for x0 in F.elements():
        if len(work) <= 1:
            break
        if raw_eval(F, work, x0.raw) == F._zero_raw:
            lin = (F._rneg(x0.raw), F._one_raw)
            mult = 0
            while True:
                q, r = raw_divrem(F, work, lin)
                if r:
                    break
                work = q
                mult += 1
            out.append((x0, mult))
    return out


def symmetric_functions(roots, field=None):
    """Elementary symmetric functions [s_1, ..., s_n] of the given
    elements, so that prod(t - r_i) = t^n - s_1 t^(n-1) + s_2 t^(n-2) - ...
    """
    roots = list(roots)
    if field is None:
        if not roots:
            raise errors.InvalidInput("empty input needs an explicit field")
        field = roots[0].field
    raws = [field(r).raw for r in roots]
    return [FieldElement(field, c) for c in raw_symmetric_functions(field, raws)]


def raw_symmetric_functions(F, roots):
    """symmetric_functions on canonical raws of F, returned as raws."""
    return F._rsymmetric(roots)


def poly_to_json(a):
    """Little-endian coefficient list; elements in their JSON form."""
    return [element_to_json(c) for c in a.coeffs]


def poly_from_json(field, data):
    if not isinstance(data, list):
        raise errors.InvalidInput("polynomial JSON must be a list of coefficients")
    return Polynomial(field, [element_from_json(field, c) for c in data])
