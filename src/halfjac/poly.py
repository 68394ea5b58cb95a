"""Dense univariate polynomials over a finite field.

Coefficients are stored little-endian (index i holds the coefficient of
x^i) with trailing zeros stripped, so the representation of each
polynomial is unique and equality is structural. The zero polynomial has
the empty coefficient tuple and its degree is the NEG_INFINITY sentinel,
which compares below every integer and refuses arithmetic.

Division, extended gcd, root finding, and elementary symmetric functions
are the pieces the group law and the halving formulas sit on. All gcds
returned by gcd_xgcd are monic, so gcd results are canonical.
"""

from . import errors
from .field import FieldElement, element_from_json, element_text, element_to_json


class _NegInfinity:
    """Degree of the zero polynomial. Below every int, no arithmetic."""

    __slots__ = ()

    def __lt__(self, other):
        if isinstance(other, _NegInfinity):
            return False
        if isinstance(other, (int, float)):
            return True
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, (_NegInfinity, int, float)):
            return True
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, (_NegInfinity, int, float)):
            return False
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, _NegInfinity):
            return True
        if isinstance(other, (int, float)):
            return False
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, _NegInfinity)

    def __hash__(self):
        return hash("NEG_INFINITY")

    def __add__(self, other):
        raise TypeError("NEG_INFINITY does not support arithmetic")

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__
    __mul__ = __add__
    __rmul__ = __add__

    def __repr__(self):
        return "NEG_INFINITY"


NEG_INFINITY = _NegInfinity()


class Polynomial:
    """Immutable dense polynomial with coefficients in one finite field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = []
        for c in coeffs:
            cs.append(field(c))
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

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
    def degree(self):
        if not self.coeffs:
            return NEG_INFINITY
        return len(self.coeffs) - 1

    @property
    def leading_coeff(self):
        if not self.coeffs:
            raise errors.ZeroPolynomial("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one()

    def make_monic(self):
        if not self.coeffs:
            raise errors.ZeroPolynomial("cannot normalize the zero polynomial")
        lc = self.coeffs[-1]
        if lc == self.field.one():
            return self
        c = lc.inv()
        return Polynomial(self.field, [c * a for a in self.coeffs])

    def coefficient(self, i):
        """Coefficient of x^i, zero beyond the degree."""
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero()

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.field != self.field:
                raise errors.FieldMismatch("polynomials over different fields")
            return other
        if isinstance(other, (FieldElement, int)):
            return Polynomial(self.field, [self.field(other)])
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            c = self.field(other)
            return Polynomial(self.field, [c * a for a in self.coeffs])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero(self.field)
        zero = self.field.zero()
        out = [zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca.is_zero():
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Polynomial(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take a non-negative int")
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
        other = self._coerce(other)
        if other is None:
            raise TypeError("cannot divide by %r" % (other,))
        if other.is_zero():
            raise errors.DivisionByZero("polynomial division by zero")
        if self.degree < other.degree:
            return Polynomial.zero(self.field), self
        inv_lc = other.coeffs[-1].inv()
        db = len(other.coeffs) - 1
        rem = list(self.coeffs)
        quot = [self.field.zero()] * (len(rem) - db)
        for i in range(len(rem) - db - 1, -1, -1):
            c = rem[i + db] * inv_lc
            if c.is_zero():
                continue
            quot[i] = c
            for j, cb in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - c * cb
        return Polynomial(self.field, quot), Polynomial(self.field, rem[:db])

    def __floordiv__(self, other):
        return self.divrem(other)[0]

    def __mod__(self, other):
        return self.divrem(other)[1]

    def eval(self, x0):
        x0 = self.field(x0)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def compose(self, other):
        """self(other(x)), by Horner in the polynomial ring."""
        other = self._coerce(other)
        if other is None:
            raise TypeError("compose expects a polynomial")
        acc = Polynomial.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * other + Polynomial.constant(c)
        return acc

    def derivative(self):
        return Polynomial(self.field,
                          [self.field(i) * c for i, c in enumerate(self.coeffs)][1:])

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
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


def divrem(a, b):
    return a.divrem(b)


def gcd_xgcd(a, b):
    """Monic gcd g and Bezout pair (s, t) with s*a + t*b = g."""
    if a.field != b.field:
        raise errors.FieldMismatch("gcd of polynomials over different fields")
    field = a.field
    r0, r1 = a, b
    s0, s1 = Polynomial.one(field), Polynomial.zero(field)
    t0, t1 = Polynomial.zero(field), Polynomial.one(field)
    while not r1.is_zero():
        q, r = r0.divrem(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    c = r0.leading_coeff.inv()
    return r0 * c, s0 * c, t0 * c


def from_roots(field, roots):
    """The monic polynomial whose roots (with multiplicity) are given."""
    acc = Polynomial.one(field)
    for r in roots:
        acc = acc * Polynomial(field, [-field(r), field.one()])
    return acc


def roots_in_field(a):
    """All roots of a in its coefficient field, as (root, multiplicity)
    pairs ordered by canonical element index. Scans the whole field, so
    the cost is O(q * deg)."""
    if a.is_zero():
        raise errors.ZeroPolynomial("every element is a root of the zero polynomial")
    field = a.field
    out = []
    work = a
    for x0 in field.elements():
        if work.degree is NEG_INFINITY or work.degree == 0:
            break
        if work.eval(x0).is_zero():
            lin = Polynomial(field, [-x0, field.one()])
            mult = 0
            while True:
                q, r = work.divrem(lin)
                if not r.is_zero():
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
            raise ValueError("empty input needs an explicit field")
        field = roots[0].field
    e = [field.one()] + [field.zero()] * len(roots)
    for m, r in enumerate(roots, start=1):
        r = field(r)
        for j in range(m, 0, -1):
            e[j] = e[j] + r * e[j - 1]
    return e[1:]


def poly_to_json(a):
    """Little-endian coefficient list; elements in their JSON form."""
    return [element_to_json(c) for c in a.coeffs]


def poly_from_json(field, data):
    if not isinstance(data, list):
        raise ValueError("polynomial JSON must be a list of coefficients")
    return Polynomial(field, [element_from_json(field, c) for c in data])
