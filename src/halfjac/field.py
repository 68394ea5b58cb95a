"""Exact arithmetic in finite fields F_{p^k}, p an odd prime.

A FiniteField is either a prime field F_p or an extension of another
FiniteField by a monic irreducible modulus; a quadratic extension of an
already-extended field keeps that field as its base (a two-level tower),
it is never re-flattened over F_p.

Elements are immutable wrappers around a canonical raw value: an int in
[0, p) for prime fields, a fixed-length tuple of base raws for extensions
(polynomial basis, little-endian). All operations are pure; fields compare
structurally, so independently built copies of the same field interoperate.
Besides this module, poly reads and builds raws: polynomials hold raw
coefficient tuples and run their arithmetic through the _r* methods below.
The group law in jacobian (its genus-2 formulas and _reduce) and the
halving kernel (halving._closed_form and its certificate) do too, on top
of poly's raw_* functions.

Building a FiniteField picks its raw arithmetic from its shape, once:

- F_p (_PrimeField) works on plain ints.
- F_p[t]/(t^2 + m1 t + m0) (_PairField) works on int pairs. A product is
  one flat formula: with hi = a1 b1 it is
  (a0 b0 - m0 hi, a0 b1 + a1 b0 - m1 hi) mod p.
- Every field of degree 2, pairs and towers alike, inverts by the norm:
  (a0 + a1 t)^-1 = (a0 - m1 a1 - a1 t) / (a0 (a0 - m1 a1) + m0 a1^2),
  one inverse in the base field.
- Degree >= 3 and towers (an extension of an extension) keep the generic
  recursive tuple arithmetic of FiniteField; there inverses of degree >= 3
  are the Fermat power x^(q-2).

Two kernels work on whole raw polynomials (little-endian tuples of raws),
for poly.raw_mul and poly.raw_symmetric_functions:

- _rpolymul(a, b), the product of two nonzero polynomials. _PrimeField
  adds up the unreduced int products of each output coefficient and
  reduces it once; _PairField does the same for the 1 and t parts, with
  each product's t^2 part folded through the modulus as it is added.
- _rsymmetric(roots), the elementary symmetric functions s_1..s_n, by
  the recurrence e_j += r e_(j-1) over the roots. _PrimeField and
  _PairField run each step as one int expression per coefficient, with
  one reduction (and, for pairs, t^2 folded) per coefficient and step.
- FiniteField keeps the generic loops over _radd and _rmul for every
  other shape.

The _r* methods return canonical raws, so the operators wrap their results
with the unchecked internal constructor _element. FieldElement(field, raw)
is the public constructor for raws from outside: it reduces ints mod p and
checks the coefficient count.

The canonical index orders every field: ints order F_p, and an extension
element c_0 + c_1 t + ... has index sum(index(c_j) * q_base^j). Non-square
scans, square-root normalization and every deterministic enumeration in the
package use this order.
"""

import math

from .errors import (
    DivisionByZero,
    EvenCharacteristic,
    FieldMismatch,
    InvalidInput,
    InvalidType,
    NotPrime,
    ReducibleModulus,
    SelfCheckFailed,
)


# The first 13 primes. As Miller-Rabin bases they decide primality for every
# n < _PSI13 (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 2017); _PSI13 itself is the first composite that
# passes them all, so from there on _is_prime runs Baillie-PSW instead.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981


def _is_prime(n):
    """Miller-Rabin on the bases _MR_BASES below _PSI13 (~3.3 * 10^24),
    where it is exact; Baillie-PSW at or above it (Baillie and Wagstaff,
    "Lucas pseudoprimes", Math. Comp. 1980), which no known composite
    passes."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < _PSI13:
        return all(_is_strong_probable_prime(n, b) for b in _MR_BASES)
    return _is_strong_probable_prime(n, 2) and _is_strong_lucas_probable_prime(n)


def _is_strong_probable_prime(n, b):
    """Miller-Rabin to base b for odd n > 2: with n - 1 = 2^s d, d odd,
    b^d = 1 or b^(2^j d) = -1 mod n for some j < s."""
    s = ((n - 1) & -(n - 1)).bit_length() - 1      # lowest set bit of n - 1
    x = pow(b, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_probable_prime(n):
    """Strong Lucas test for odd n > 2 with Selfridge's method A: D is the
    first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.
    With n + 1 = 2^s d, d odd, n passes when U_d = 0 or V_(2^j d) = 0 mod
    n for some j < s. No such D exists for a square, so squares are
    rejected first; a D sharing a factor with n proves n composite."""
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q, half = (1 - D) // 4, (n + 1) // 2            # half = 1/2 mod n
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    U, V, Qk = 1, 1, Q % n                          # U_1, V_1, Q^1
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n    # k -> 2k
        if bit == "1":                                             # k -> k + 1
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


class FiniteField:
    """Descriptor of F_q with q = p^k; immutable and safe to share.

    Building one picks the arithmetic for its shape (see the module
    docstring): FiniteField(p) is a _PrimeField, a degree-2 modulus over a
    prime field gives a _PairField, and every other shape keeps the generic
    methods of this class.
    """

    __slots__ = ("p", "k", "q", "base", "modulus", "_zero_raw", "_one_raw",
                 "_zero", "_one", "_hash", "_nonsquare", "_ext")

    def __new__(cls, p, modulus=None, base=None):
        if cls is FiniteField:
            if base is None:
                cls = _PrimeField
            elif base.base is None and len(modulus) == 2:
                cls = _PairField
        return object.__new__(cls)

    def __init__(self, p, modulus=None, base=None):
        self.p = p
        self.base = base
        if base is None:
            self.k = 1
            self.q = p
            self.modulus = None
            self._zero_raw = 0
            self._one_raw = 1
        else:
            self.k = len(modulus)
            self.q = base.q ** self.k
            self.modulus = tuple(modulus)
            self._zero_raw = (base._zero_raw,) * self.k
            self._one_raw = (base._one_raw,) + self._zero_raw[1:]
        self._hash = None
        self._nonsquare = None
        self._ext = None
        self._zero = None
        self._one = None

    # --- identity ---

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteField):
            return NotImplemented
        return (self.p == other.p and self.k == other.k
                and self.modulus == other.modulus and self.base == other.base)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.p, self.k, self.modulus, self.base))
        return self._hash

    def __repr__(self):
        return "F_%d" % self.q

    # --- raw arithmetic, generic: coefficient tuples over any base ---

    def _rfromint(self, n):
        return (self.base._rfromint(n),) + self._zero_raw[1:]

    def _radd(self, a, b):
        base = self.base
        return tuple(base._radd(x, y) for x, y in zip(a, b))

    def _rsub(self, a, b):
        base = self.base
        return tuple(base._rsub(x, y) for x, y in zip(a, b))

    def _rneg(self, a):
        base = self.base
        return tuple(base._rneg(x) for x in a)

    def _rmul(self, a, b):
        base = self.base
        k = self.k
        zero = base._zero_raw
        prod = [zero] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai == zero:
                continue
            for j, bj in enumerate(b):
                prod[i + j] = base._radd(prod[i + j], base._rmul(ai, bj))
        # fold x^k = -(m_0 + ... + m_{k-1} x^{k-1}) down to length k
        mod = self.modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c == zero:
                continue
            for j in range(k):
                prod[i - k + j] = base._rsub(prod[i - k + j], base._rmul(c, mod[j]))
        return tuple(prod[:k])

    def _rpolymul(self, a, b):
        """The product of the nonzero raw polynomials a and b (poly.raw_mul)."""
        radd, rmul, zero = self._radd, self._rmul, self._zero_raw
        out = [zero] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == zero:
                continue
            for j, cb in enumerate(b, i):
                out[j] = radd(out[j], rmul(ca, cb))
        return tuple(out)

    def _rsymmetric(self, roots):
        """[s_1, ..., s_n] of the raws roots (poly.raw_symmetric_functions)."""
        radd, rmul = self._radd, self._rmul
        e = [self._one_raw] + [self._zero_raw] * len(roots)
        for m, r in enumerate(roots, start=1):
            for j in range(m, 0, -1):
                e[j] = radd(e[j], rmul(r, e[j - 1]))
        return e[1:]

    def _rpow(self, a, n):
        result = self._one_raw
        while n > 0:
            if n & 1:
                result = self._rmul(result, a)
            a = self._rmul(a, a)
            n >>= 1
        return result

    def _rinv(self, a):
        if a == self._zero_raw:
            raise DivisionByZero("inverse of zero in %r" % self)
        if self.k != 2:
            return self._rpow(a, self.q - 2)
        # degree 2: the norm inverse of the module docstring
        base = self.base
        a0, a1 = a
        m0, m1 = self.modulus
        c0 = base._rsub(a0, base._rmul(m1, a1))
        norm = base._radd(base._rmul(a0, c0), base._rmul(m0, base._rmul(a1, a1)))
        n_inv = base._rinv(norm)
        return (base._rmul(c0, n_inv), base._rneg(base._rmul(a1, n_inv)))

    # --- canonical index ---

    def _rindex(self, a):
        base = self.base
        idx = 0
        for c in reversed(a):
            idx = idx * base.q + base._rindex(c)
        return idx

    def _rat(self, i):
        base = self.base
        out = []
        for _ in range(self.k):
            i, digit = divmod(i, base.q)
            out.append(base._rat(digit))
        return tuple(out)

    # --- public element interface ---

    def __call__(self, value):
        if isinstance(value, FieldElement):
            if value.field is self or value.field == self:
                return value
            raise FieldMismatch("element of %r is not in %r" % (value.field, self))
        if isinstance(value, int):
            return _element(self, self._rfromint(value))
        raise InvalidType("cannot make a field element from %r" % (value,))

    def zero(self):
        if self._zero is None:
            self._zero = _element(self, self._zero_raw)
        return self._zero

    def one(self):
        if self._one is None:
            self._one = _element(self, self._one_raw)
        return self._one

    def element_at(self, index):
        if not 0 <= index < self.q:
            raise InvalidInput("index %d outside [0, %d)" % (index, self.q))
        return _element(self, self._rat(index))

    def index_of(self, element):
        if element.field != self:
            raise FieldMismatch("element of %r is not in %r" % (element.field, self))
        return self._rindex(element.raw)

    def elements(self):
        """All field elements in canonical index order."""
        for i in range(self.q):
            yield _element(self, self._rat(i))

    def modulus_coeffs(self):
        """Modulus coefficients c_0..c_{k-1} as base-field elements (None for F_p)."""
        if self.base is None:
            return None
        return tuple(_element(self.base, c) for c in self.modulus)


class _PrimeField(FiniteField):
    """F_p on plain ints in [0, p)."""

    __slots__ = ()

    def _rfromint(self, n):
        return n % self.p

    def _radd(self, a, b):
        return (a + b) % self.p

    def _rsub(self, a, b):
        return (a - b) % self.p

    def _rneg(self, a):
        return -a % self.p

    def _rmul(self, a, b):
        return a * b % self.p

    def _rpolymul(self, a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        p = self.p
        return tuple([c % p for c in out])

    def _rsymmetric(self, roots):
        p = self.p
        e = [1] + [0] * len(roots)
        for m, r in enumerate(roots, start=1):
            for j in range(m, 0, -1):
                e[j] = (e[j] + r * e[j - 1]) % p
        return e[1:]

    def _rinv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero in %r" % self)
        return pow(a, -1, self.p)

    def _rindex(self, a):
        return a

    def _rat(self, i):
        return i


class _PairField(FiniteField):
    """F_p[t]/(t^2 + m1 t + m0) on pairs (c0, c1) of ints in [0, p)."""

    __slots__ = ()

    def _rfromint(self, n):
        return (n % self.p, 0)

    def _radd(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def _rsub(self, a, b):
        p = self.p
        return ((a[0] - b[0]) % p, (a[1] - b[1]) % p)

    def _rneg(self, a):
        p = self.p
        return (-a[0] % p, -a[1] % p)

    def _rmul(self, a, b):
        # t^2 = -m1 t - m0 folds the a1 b1 t^2 term into both coefficients
        p = self.p
        m0, m1 = self.modulus
        a0, a1 = a
        b0, b1 = b
        hi = a1 * b1
        return ((a0 * b0 - m0 * hi) % p, (a0 * b1 + a1 * b0 - m1 * hi) % p)

    def _rpolymul(self, a, b):
        p = self.p
        m0, m1 = self.modulus
        n = len(a) + len(b) - 1
        c0, c1 = [0] * n, [0] * n
        for i, (a0, a1) in enumerate(a):
            for j, (b0, b1) in enumerate(b, i):
                hi = a1 * b1
                c0[j] += a0 * b0 - m0 * hi
                c1[j] += a0 * b1 + a1 * b0 - m1 * hi
        return tuple([(x % p, y % p) for x, y in zip(c0, c1)])

    def _rsymmetric(self, roots):
        p = self.p
        m0, m1 = self.modulus
        e = [(1, 0)] + [(0, 0)] * len(roots)
        for m, (r0, r1) in enumerate(roots, start=1):
            for j in range(m, 0, -1):
                x, y = e[j]
                u, v = e[j - 1]
                hi = r1 * v
                e[j] = ((x + r0 * u - m0 * hi) % p, (y + r0 * v + r1 * u - m1 * hi) % p)
        return e[1:]


_new_object = object.__new__


def _element(field, raw):
    """Unchecked constructor: raw must already be canonical for field.

    Every _r* result is canonical, so the arithmetic wraps its results with
    this; FieldElement(field, raw) normalises input from outside.
    """
    e = _new_object(FieldElement)
    e.field = field
    e.raw = raw
    return e


class FieldElement:
    """Immutable element of a FiniteField; all operators are exact."""

    __slots__ = ("field", "raw")

    def __init__(self, field, raw):
        if field.base is None:
            raw = raw % field.p
        else:
            raw = tuple(raw)
            if len(raw) != field.k:
                raise InvalidInput("raw value needs %d coefficients" % field.k)
            if field.base.base is None:
                raw = tuple(c % field.p for c in raw)
        self.field = field
        self.raw = raw

    @property
    def coeffs(self):
        """Coefficient vector: ints over a prime base, base elements in a tower."""
        F = self.field
        if F.base is None:
            return (self.raw,)
        if F.base.base is None:
            return self.raw
        return tuple(_element(F.base, c) for c in self.raw)

    def _other_raw(self, other):
        if isinstance(other, FieldElement):
            if other.field is self.field or other.field == self.field:
                return other.raw
            raise FieldMismatch("operands in %r and %r" % (self.field, other.field))
        if isinstance(other, int):
            return self.field._rfromint(other)
        return None

    def __add__(self, other):
        raw = self._other_raw(other)
        if raw is None:
            return NotImplemented
        return _element(self.field, self.field._radd(self.raw, raw))

    __radd__ = __add__

    def __sub__(self, other):
        raw = self._other_raw(other)
        if raw is None:
            return NotImplemented
        return _element(self.field, self.field._rsub(self.raw, raw))

    def __rsub__(self, other):
        raw = self._other_raw(other)
        if raw is None:
            return NotImplemented
        return _element(self.field, self.field._rsub(raw, self.raw))

    def __mul__(self, other):
        raw = self._other_raw(other)
        if raw is None:
            return NotImplemented
        return _element(self.field, self.field._rmul(self.raw, raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        raw = self._other_raw(other)
        if raw is None:
            return NotImplemented
        return _element(self.field, self.field._rmul(self.raw, self.field._rinv(raw)))

    def __rtruediv__(self, other):
        raw = self._other_raw(other)
        if raw is None:
            return NotImplemented
        return _element(self.field, self.field._rmul(raw, self.field._rinv(self.raw)))

    def __neg__(self):
        return _element(self.field, self.field._rneg(self.raw))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return _element(self.field, self.field._rpow(self.field._rinv(self.raw), -n))
        return _element(self.field, self.field._rpow(self.raw, n))

    def inv(self):
        return _element(self.field, self.field._rinv(self.raw))

    def is_zero(self):
        return self.raw == self.field._zero_raw

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.raw == other.raw and (self.field is other.field
                                              or self.field == other.field)
        if isinstance(other, int):
            return self.raw == self.field._rfromint(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.raw))

    def __int__(self):
        if self.field.base is not None:
            raise InvalidType("only prime-field elements convert to int")
        return self.raw

    def __str__(self):
        return _raw_text(self.field, self.raw, nested=False)

    def __repr__(self):
        return "%s in %r" % (self, self.field)

    def __bool__(self):
        return self.raw != self.field._zero_raw


# --- construction ---

def ff_make(p, modulus_poly=None):
    """Build F_p (no modulus, or any monic linear one) or F_{p^k}.

    modulus_poly is a little-endian monic int coefficient list; degree >= 2
    moduli are checked for irreducibility over F_p.

    p is tested by Miller-Rabin on the first 13 prime bases, which proves
    primality for p < 3.3 * 10^24 (Sorenson and Webster, 2017). From that
    bound on, the test is Baillie-PSW: a base-2 strong test and a strong
    Lucas test. No composite is known to pass it, but no proof rules one
    out.
    """
    if not isinstance(p, int) or not _is_prime(p):
        raise NotPrime("%r is not prime" % (p,))
    if p == 2:
        raise EvenCharacteristic("characteristic 2 is not supported")
    prime = FiniteField(p)
    if modulus_poly is None:
        return prime
    coeffs = [c % p for c in modulus_poly]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise InvalidInput("modulus must have degree >= 1")
    if coeffs[-1] != 1:
        raise InvalidInput("modulus must be monic")
    k = len(coeffs) - 1
    if k == 1:
        return prime
    if not _is_irreducible(p, coeffs):
        raise ReducibleModulus("modulus factors over F_%d" % p)
    return FiniteField(p, modulus=tuple(coeffs[:-1]), base=prime)


def _is_irreducible(p, coeffs):
    """Rabin test for a monic degree-k polynomial m over F_p, k >= 2.

    Once t^(p^k) = t mod m, m divides the squarefree t^(p^k) - t, so
    F_p[t]/(m) is a product of fields F_{p^d} with d | k. There w is prime
    to m exactly when w^(p^k - 1) = 1, which stands in for Rabin's gcd.
    """
    k = len(coeffs) - 1
    R = FiniteField(p, modulus=tuple(coeffs[:-1]), base=FiniteField(p))
    u = (0, 1) + (0,) * (k - 2)
    if R._rpow(u, p ** k) != u:
        return False
    for r in range(2, k + 1):
        if k % r == 0 and _is_prime(r):
            w = R._rsub(R._rpow(u, p ** (k // r)), u)
            if R._rpow(w, p ** k - 1) != R._one_raw:
                return False
    return True


# --- squares and square roots ---

def is_square(a):
    """Euler criterion: true iff a is a square in its own field."""
    F = a.field
    if a.raw == F._zero_raw:
        return True
    return F._rpow(a.raw, (F.q - 1) // 2) == F._one_raw


def sqrt(a):
    """Both square roots (x, -x) of a, canonical index of x first; None if a
    is a non-square. Tonelli-Shanks finds x and decides non-squares for
    every q; x is verified by squaring before it is returned."""
    F = a.field
    if a.raw == F._zero_raw:
        return (F.zero(), F.zero())
    x = _tonelli_shanks(F, a.raw)
    if x is None or F._rmul(x, x) != a.raw:
        return None
    nx = F._rneg(x)
    if F._rindex(x) > F._rindex(nx):
        x, nx = nx, x
    return (_element(F, x), _element(F, nx))


def _nonsquare_raw(F):
    """First non-square in canonical scan order 1, 2, 3, ...; cached."""
    if F._nonsquare is None:
        half = (F.q - 1) // 2
        one = F._one_raw
        for i in range(1, F.q):
            cand = F._rat(i)
            if F._rpow(cand, half) != one:
                F._nonsquare = cand
                break
        else:
            raise SelfCheckFailed("no non-square found; field arithmetic is broken")
    return F._nonsquare


def _tonelli_shanks(F, a):
    """A square root of the nonzero raw a, or None when a is a non-square.

    With q - 1 = 2^e s, s odd, r = a^((s+1)/2) and t = a^s keep r^2 = a t
    throughout, and each round lowers the order 2^i of t by a power of
    c = n^s for a non-square n. t = a^s has order 2^e exactly when
    a^((q-1)/2) = -1, so the first round's order search is the non-square
    test, and c, the field's non-square scan included, is first needed
    only after it. For q = 3 mod 4 (e = 1) there is no later round: one
    power gives r = a^((q+1)/4) and t = a^((q-1)/2), and t decides."""
    s = F.q - 1
    e = 0
    while s % 2 == 0:
        s //= 2
        e += 1
    one = F._one_raw
    x = F._rpow(a, (s - 1) // 2)
    r = F._rmul(a, x)
    t = F._rmul(r, x)
    m = e
    while t != one:
        t2 = t
        i = 0
        while t2 != one:
            t2 = F._rmul(t2, t2)
            i += 1
            if i == m:
                return None
        b = c if m < e else F._rpow(_nonsquare_raw(F), s)     # c = n^s
        for _ in range(m - i - 1):
            b = F._rmul(b, b)
        m = i
        c = F._rmul(b, b)
        t = F._rmul(t, c)
        r = F._rmul(r, b)
    return r


def quadratic_extension(F):
    """(F_{q^2}, embedding) with modulus t^2 - n for the first non-square n.

    The extension keeps F itself as base field; results are cached, so the
    same field object is returned on every call.
    """
    if F._ext is None:
        n = _nonsquare_raw(F)
        # t^2 - n is irreducible precisely because n is a non-square
        F2 = FiniteField(F.p, modulus=(F._rneg(n), F._zero_raw), base=F)
        zero = F._zero_raw

        def embed(e):
            if e.field != F:
                raise FieldMismatch("cannot embed element of %r via %r" % (e.field, F))
            return _element(F2, (e.raw, zero))

        F._ext = (F2, embed)
    return F._ext


# --- textual and JSON forms ---

def _raw_text(F, raw, nested):
    if F.base is None:
        return str(raw)
    parts = [_raw_text(F.base, c, nested=True) for c in raw]
    text = ",".join(parts)
    return "(%s)" % text if nested else text


def element_text(a):
    """a as one entry of a comma-separated element list: extension
    elements in parentheses, so the list splits on top-level commas."""
    return _raw_text(a.field, a.raw, nested=True)


def split_element_list(text):
    """Split an element list on the commas that are not inside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InvalidInput("unbalanced parentheses in %r" % text)
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise InvalidInput("unbalanced parentheses in %r" % text)
    parts.append(text[start:])
    return parts


def parse_element(F, text):
    """Parse 'c0,c1,...' (optionally parenthesized) into an element of F.

    Only prime fields and extensions with a prime base have a textual form.
    """
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    if F.base is None:
        try:
            return F(int(s))
        except ValueError:
            raise InvalidInput("bad element %r for %r" % (text, F)) from None
    if F.base.base is not None:
        raise InvalidInput("tower-field elements have no textual form")
    parts = s.split(",")
    if len(parts) != F.k:
        raise InvalidInput("element of %r needs %d coefficients, got %r" % (F, F.k, text))
    try:
        ints = [int(x) for x in parts]
    except ValueError:
        raise InvalidInput("bad element %r for %r" % (text, F)) from None
    return FieldElement(F, tuple(c % F.p for c in ints))


def element_to_json(e):
    """int for prime fields, (possibly nested) coefficient list otherwise."""
    return _raw_json(e.field, e.raw)


def _raw_json(F, raw):
    if F.base is None:
        return raw
    return [_raw_json(F.base, c) for c in raw]


def element_from_json(F, obj):
    return FieldElement(F, _raw_from_json(F, obj))


def _raw_from_json(F, obj):
    if F.base is None:
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise InvalidInput("expected an int for an element of %r, got %r" % (F, obj))
        return obj % F.p
    if not isinstance(obj, list) or len(obj) != F.k:
        raise InvalidInput("expected %d coefficients for an element of %r, got %r" % (F.k, F, obj))
    return tuple(_raw_from_json(F.base, c) for c in obj)


def field_spec(F):
    """Textual form: 'p' or 'p^k:c0,...,c_{k-1}' (leading 1 implicit)."""
    if F.base is None:
        return str(F.p)
    if F.base.base is not None:
        raise InvalidInput("tower fields have no textual spec")
    return "%d^%d:%s" % (F.p, F.k, ",".join(str(c) for c in F.modulus))


def parse_field_spec(text):
    """Parse 'p' or 'p^k:c0,c1,...' (k or k+1 coefficients, monic)."""
    s = text.strip()
    if "^" not in s:
        try:
            p = int(s)
        except ValueError:
            raise InvalidInput("bad field spec %r" % text) from None
        return ff_make(p)
    head, _, tail = s.partition("^")
    kpart, sep, coeffpart = tail.partition(":")
    try:
        p = int(head)
        k = int(kpart)
    except ValueError:
        raise InvalidInput("bad field spec %r" % text) from None
    if not sep or k < 1:
        raise InvalidInput("bad field spec %r" % text)
    try:
        coeffs = [int(x) for x in coeffpart.split(",")]
    except ValueError:
        raise InvalidInput("bad field spec %r" % text) from None
    if len(coeffs) == k:
        coeffs.append(1)
    if len(coeffs) != k + 1:
        raise InvalidInput("field spec %r needs %d or %d coefficients" % (text, k, k + 1))
    return ff_make(p, coeffs)
