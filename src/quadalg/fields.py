"""Interchangeable coefficient fields and the polynomial utilities built on them.

Five backends share one interface:

* ``Rationals``       -- exact arbitrary-precision fractions
* ``PrimeField(p)``   -- residues ``0 .. p-1`` stored as ints
* ``ExtensionField``  -- ``base[t]/(modulus)``, scalars are fixed-length
                         tuples of base scalars (coefficients of 1, t, t^2, ...)
* ``Reals``           -- double floats, equality up to a tolerance
* ``LaurentSeries``   -- truncated formal Laurent series over an exact base,
                         scalars are ``(nu, coeffs)`` pairs; zero is ``(0, ())``

Scalars are plain immutable Python values; the owning Field object supplies
the arithmetic (``F.add(a, b)``, ``F.mul(a, b)``, ...).  Field objects
compare equal when they describe the same field, so they double as
descriptors and serialize to/from small JSON objects.

All values are immutable after construction and every operation is a pure
function, so anything here may be shared freely across threads or workers.
"""

import itertools
import math
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import (
    BudgetExceeded,
    DivisionByZero,
    FieldMismatch,
    NotInValuationRing,
    NotIntegerCoefficients,
    ParseError,
    ReducibleModulus,
    UnsupportedField,
    ZeroSeries,
)


# The first 13 primes.  No composite below _MR_LIMIT is a strong pseudoprime
# to all of them (Sorenson and Webster, Math. Comp. 86, 2017), so Miller-Rabin
# on these bases decides primality exactly there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981

# Steps any one enumeration may take: a sweep's points, the finite root
# scan's Horner steps, the rational root search's trial divisions.
ENUMERATION_BUDGET = 10_000_000


def is_prime(n):
    """Deterministic Miller-Rabin test, exact for n < 3.3e24.

    Larger n raise ValueError: the fixed bases no longer decide there.
    """
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the primality test's range (< {_MR_LIMIT})")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _divisors(n):
    """All positive divisors of |n|, n != 0."""
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


class Field:
    """Common interface of all coefficient fields."""

    kind = "abstract"
    is_exact = True
    finite = False

    # -- arithmetic ---------------------------------------------------

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, k):
        raise NotImplementedError

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return self.eq(a, self.zero())

    def is_one(self, a):
        return self.eq(a, self.one())

    # -- structure ----------------------------------------------------

    @property
    def characteristic(self):
        raise NotImplementedError

    def contains(self, a):
        """Light shape/type check that `a` is a scalar of this field."""
        raise NotImplementedError

    def elements(self):
        raise UnsupportedField(f"{self!r} is not finite")

    def random(self, rng):
        """A random scalar, suitable for property tests (not uniform for Q)."""
        raise NotImplementedError

    # -- serialization ------------------------------------------------

    def to_json(self):
        raise NotImplementedError

    def scalar_to_json(self, a):
        raise NotImplementedError

    def scalar_from_json(self, v):
        raise NotImplementedError


class Rationals(Field):
    """The rational numbers with exact Fraction arithmetic."""

    kind = "rationals"

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("rational division by zero")
        return a / b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("rational inverse of zero")
        return 1 / Fraction(a)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, k):
        return Fraction(k)

    @property
    def characteristic(self):
        return 0

    def contains(self, a):
        return isinstance(a, Fraction)

    def random(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def to_json(self):
        return {"kind": "rationals"}

    def scalar_to_json(self, a):
        return f"{a.numerator}/{a.denominator}"

    def scalar_from_json(self, v):
        if isinstance(v, bool):
            raise ParseError(f"not a rational scalar: {v!r}")
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str):
            try:
                return Fraction(v)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad rational scalar {v!r}") from exc
        raise ParseError(f"not a rational scalar: {v!r}")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """GF(p) for a prime p; scalars are ints in [0, p)."""

    kind = "prime"
    finite = True

    def __init__(self, p):
        if isinstance(p, bool) or not isinstance(p, int):
            raise TypeError(f"GF(p) needs an int p, got {p!r}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero(f"inverse of zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k):
        return k % self.p

    def is_zero(self, a):
        return a == 0

    @property
    def characteristic(self):
        return self.p

    @property
    def order(self):
        return self.p

    def contains(self, a):
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self.p

    def elements(self):
        return iter(range(self.p))

    def scalar_index(self, a):
        return a

    def scalar_from_index(self, i):
        return i

    def random(self, rng):
        return rng.randrange(self.p)

    def to_json(self):
        return {"kind": "prime", "p": self.p}

    def scalar_to_json(self, a):
        return a

    def scalar_from_json(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ParseError(f"not a GF({self.p}) scalar: {v!r}")
        return v % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


# ---------------------------------------------------------------------------
# Raw polynomial helpers.  Coefficient lists are low-to-high and trimmed
# (no trailing zeros); [] is the zero polynomial.
# ---------------------------------------------------------------------------


def _ptrim(F, cs):
    cs = list(cs)
    while cs and F.is_zero(cs[-1]):
        cs.pop()
    return cs


def _padd(F, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else F.zero()
        y = b[i] if i < len(b) else F.zero()
        out.append(F.add(x, y))
    return _ptrim(F, out)


def _pneg(F, a):
    return [F.neg(c) for c in a]


def _psub(F, a, b):
    return _padd(F, a, _pneg(F, b))


def _pmul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if F.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _ptrim(F, out)


def _pdivmod(F, a, b):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    rem = list(a)
    quot = [F.zero()] * max(0, len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    for shift in range(len(a) - len(b), -1, -1):
        c = F.mul(rem[shift + len(b) - 1], inv_lead)
        if F.is_zero(c):
            continue
        quot[shift] = c
        for i, y in enumerate(b):
            rem[shift + i] = F.sub(rem[shift + i], F.mul(c, y))
    return _ptrim(F, quot), _ptrim(F, rem)


def _pmod(F, a, b):
    return _pdivmod(F, a, b)[1]


def _pgcd(F, a, b):
    """A gcd of a and b by the remainder sequence (not normalized)."""
    while b:
        a, b = b, _pmod(F, a, b)
    return a


def _ppowmod(F, a, e, m):
    """a^e mod m by square-and-multiply."""
    out = [F.one()]
    while e:
        if e & 1:
            out = _pmod(F, _pmul(F, out, a), m)
        a = _pmod(F, _pmul(F, a, a), m)
        e >>= 1
    return out


def _pext_gcd(F, a, b):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [F.one()], []
    t0, t1 = [], [F.one()]
    while r1:
        q, r = _pdivmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(F, s0, _pmul(F, q, s1))
        t0, t1 = t1, _psub(F, t0, _pmul(F, q, t1))
    return r0, s0, t0


def _peval(F, cs, a):
    """Horner evaluation of a coefficient list at a."""
    acc = F.zero()
    for c in reversed(cs):
        acc = F.add(F.mul(acc, a), c)
    return acc


def _index(cs, p):
    """The index sum(c_i * p^i) of a coefficient sequence over GF(p)."""
    i = 0
    for c in reversed(cs):
        i = i * p + c
    return i


def _digits(i, p, k):
    """The k base-p digits of the index i, lowest first."""
    out = []
    for _ in range(k):
        i, c = divmod(i, p)
        out.append(c)
    return out


class ExtensionField(Field):
    """base[t]/(modulus) for an irreducible modulus over an exact base.

    Scalars are tuples of `degree` base scalars: (c0, c1, ...) stands for
    c0 + c1*t + c2*t^2 + ...  The modulus is normalized to be monic and its
    irreducibility is verified at construction by `certify_irreducible`
    (Ben-Or's test over finite bases; over the rationals a root search for
    degree <= 3, and an Eisenstein prime or an irreducible reduction mod a
    prime below 100 for higher degree).

    `mul` multiplies and reduces polynomials and `inv` runs extended Euclid.
    Over a prime base, addition, subtraction and negation work digit by
    digit on the coefficient tuple.
    """

    kind = "ext"

    def __init__(self, base, modulus):
        if not isinstance(base, Field):
            raise TypeError("base must be a Field")
        if not base.is_exact:
            raise UnsupportedField("extension fields need an exact base")
        coeffs = _coerce_coeffs(base, modulus)
        coeffs = _ptrim(base, coeffs)
        if len(coeffs) < 2:
            raise ReducibleModulus("modulus must have degree >= 1")
        lead = coeffs[-1]
        if not base.is_one(lead):
            inv = base.inv(lead)
            coeffs = [base.mul(c, inv) for c in coeffs]
        if not certify_irreducible(Polynomial(base, coeffs)):
            raise ReducibleModulus(f"modulus {coeffs} is reducible over {base!r}")
        self.base = base
        self.modulus = tuple(coeffs)
        self.degree = len(coeffs) - 1
        self._p = base.p if isinstance(base, PrimeField) else None
        self._zero = self._pad([])
        self._one = self._pad([base.one()])

    finite = property(lambda self: self.base.finite)

    def _pad(self, cs):
        z = self.base.zero()
        cs = list(cs)[: self.degree]
        return tuple(cs + [z] * (self.degree - len(cs)))

    def add(self, a, b):
        p = self._p
        if p:
            return tuple([(x + y) % p for x, y in zip(a, b)])
        return tuple([self.base.add(x, y) for x, y in zip(a, b)])

    def sub(self, a, b):
        p = self._p
        if p:
            return tuple([(x - y) % p for x, y in zip(a, b)])
        return tuple([self.base.sub(x, y) for x, y in zip(a, b)])

    def neg(self, a):
        p = self._p
        if p:
            return tuple([-x % p for x in a])
        return tuple([self.base.neg(x) for x in a])

    def mul(self, a, b):
        prod = _pmul(self.base, _ptrim(self.base, a), _ptrim(self.base, b))
        return self._pad(_pmod(self.base, prod, list(self.modulus)))

    def inv(self, a):
        ta = _ptrim(self.base, a)
        if not ta:
            raise DivisionByZero(f"inverse of zero in {self!r}")
        g, s, _ = _pext_gcd(self.base, ta, list(self.modulus))
        # modulus irreducible and a != 0 mod modulus, so gcd is a unit
        c = self.base.inv(g[0])
        return self._pad([self.base.mul(x, c) for x in s])

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def is_zero(self, a):
        return a == self._zero

    def from_int(self, k):
        return self._pad([self.base.from_int(k)])

    def embed(self, a):
        """Embed a base-field scalar as a constant."""
        return self._pad([a])

    def gen(self):
        """The residue class of t."""
        return self._pad([self.base.zero(), self.base.one()])

    @property
    def characteristic(self):
        return self.base.characteristic

    @property
    def order(self):
        if not self.finite:
            raise UnsupportedField(f"{self!r} is not finite")
        return self.base.order**self.degree

    def contains(self, a):
        return (
            isinstance(a, tuple)
            and len(a) == self.degree
            and all(self.base.contains(c) for c in a)
        )

    def elements(self):
        if not self.finite:
            raise UnsupportedField(f"{self!r} is not finite")
        base_elems = list(self.base.elements())
        for rev in itertools.product(base_elems, repeat=self.degree):
            yield tuple(reversed(rev))

    def scalar_index(self, a):
        if self._p is None:
            raise UnsupportedField("scalar indexing needs a prime base")
        return _index(a, self._p)

    def scalar_from_index(self, i):
        if self._p is None:
            raise UnsupportedField("scalar indexing needs a prime base")
        return tuple(_digits(i, self._p, self.degree))

    def random(self, rng):
        return tuple(self.base.random(rng) for _ in range(self.degree))

    def to_json(self):
        if not isinstance(self.base, PrimeField):
            raise UnsupportedField("only prime-base extension fields serialize")
        return {"kind": "ext", "p": self.base.p, "modulus": [int(c) for c in self.modulus]}

    def scalar_to_json(self, a):
        return [self.base.scalar_to_json(c) for c in a]

    def scalar_from_json(self, v):
        if not isinstance(v, list) or len(v) > self.degree:
            raise ParseError(f"not an extension scalar of degree {self.degree}: {v!r}")
        return self._pad([self.base.scalar_from_json(c) for c in v])

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ext", self.base, self.modulus))

    def __repr__(self):
        if self.finite:
            return f"GF({self.base.order}^{self.degree})"
        return f"{self.base!r}[t]/(deg {self.degree})"


class Reals(Field):
    """Double-precision reals; equality holds up to an absolute tolerance."""

    kind = "real"
    is_exact = False

    def __init__(self, tolerance=1e-10):
        if not 0 < tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {tolerance!r}")
        self.tolerance = tolerance

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if self.is_zero(b):
            raise DivisionByZero("real division by (numerical) zero")
        return a / b

    def neg(self, a):
        return -a

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("real inverse of (numerical) zero")
        return 1.0 / a

    def zero(self):
        return 0.0

    def one(self):
        return 1.0

    def from_int(self, k):
        return float(k)

    def eq(self, a, b):
        return abs(a - b) <= self.tolerance

    def is_zero(self, a):
        return abs(a) <= self.tolerance

    @property
    def characteristic(self):
        return 0

    def contains(self, a):
        return isinstance(a, float) and not isinstance(a, bool)

    def random(self, rng):
        return rng.uniform(-1.0, 1.0)

    def to_json(self):
        return {"kind": "real", "tol": self.tolerance}

    def scalar_to_json(self, a):
        return float(a)

    def scalar_from_json(self, v):
        # NaN fails the comparison; an int beyond it has no double to round to
        if not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max:
            return float(v)
        raise ParseError(f"not a finite real scalar: {v!r}")

    def __eq__(self, other):
        return isinstance(other, Reals) and other.tolerance == self.tolerance

    def __hash__(self):
        return hash(("real", self.tolerance))

    def __repr__(self):
        return f"RR(tol={self.tolerance:g})"


class LaurentSeries(Field):
    """Truncated formal Laurent series over an exact base field.

    A nonzero scalar is a pair ``(nu, coeffs)`` standing for
    ``t**nu * (coeffs[0] + coeffs[1]*t + ...)`` with ``coeffs[0] != 0``;
    zero is ``(0, ())``.  At most `precision` coefficients are stored,
    counted from the leading term; products and inverses are truncated
    there.  Within that window the arithmetic is exact.
    """

    kind = "laurent"

    def __init__(self, base, precision=16):
        if not isinstance(base, Field):
            raise TypeError("base must be a Field")
        if not base.is_exact:
            raise UnsupportedField("Laurent series need an exact base")
        if isinstance(precision, bool) or not isinstance(precision, int) or precision < 1:
            raise ValueError(f"precision must be an int >= 1, got {precision!r}")
        self.base = base
        self.precision = precision

    def _norm(self, nu, coeffs):
        coeffs = list(coeffs)
        i = 0
        while i < len(coeffs) and self.base.is_zero(coeffs[i]):
            i += 1
        if i == len(coeffs):
            return (0, ())
        nu += i
        coeffs = coeffs[i : i + self.precision]
        while coeffs and self.base.is_zero(coeffs[-1]):
            coeffs.pop()
        return (nu, tuple(coeffs))

    def series(self, nu, coeffs):
        """Build a scalar from an offset and low-to-high coefficients (ints ok)."""
        cs = [c if self.base.contains(c) else self.base.from_int(c) for c in coeffs]
        return self._norm(nu, cs)

    def add(self, a, b):
        if not a[1]:
            return b
        if not b[1]:
            return a
        nu = min(a[0], b[0])
        span = max(a[0] + len(a[1]), b[0] + len(b[1])) - nu
        out = [self.base.zero()] * span
        for i, c in enumerate(a[1]):
            out[a[0] - nu + i] = c
        for i, c in enumerate(b[1]):
            j = b[0] - nu + i
            out[j] = self.base.add(out[j], c)
        return self._norm(nu, out)

    def neg(self, a):
        return (a[0], tuple(self.base.neg(c) for c in a[1]))

    def mul(self, a, b):
        if not a[1] or not b[1]:
            return (0, ())
        conv = _pmul(self.base, list(a[1]), list(b[1]))
        return self._norm(a[0] + b[0], conv)

    def inv(self, a):
        if not a[1]:
            raise DivisionByZero("inverse of the zero series")
        u = a[1]
        c0inv = self.base.inv(u[0])
        out = [c0inv]
        for k in range(1, self.precision):
            acc = self.base.zero()
            for i in range(1, min(k, len(u) - 1) + 1):
                acc = self.base.add(acc, self.base.mul(u[i], out[k - i]))
            out.append(self.base.neg(self.base.mul(c0inv, acc)))
        return self._norm(-a[0], out)

    def zero(self):
        return (0, ())

    def one(self):
        return (0, (self.base.one(),))

    def from_int(self, k):
        c = self.base.from_int(k)
        return (0, ()) if self.base.is_zero(c) else (0, (c,))

    def embed(self, a):
        """Embed a base-field scalar as a constant series."""
        return (0, ()) if self.base.is_zero(a) else (0, (a,))

    def gen(self):
        """The series t."""
        return (1, (self.base.one(),))

    def valuation(self, a):
        """The leading exponent nu; the multiplicative valuation is exp(-nu)."""
        if not a[1]:
            raise ZeroSeries("valuation of the zero series is undefined")
        return a[0]

    def residue_decompose(self, a):
        """Split a regular series as (constant term, tail of valuation >= 1)."""
        if a[1] and a[0] < 0:
            raise NotInValuationRing(f"series has a pole: nu = {a[0]}")
        const = a[1][0] if a[1] and a[0] == 0 else self.base.zero()
        tail = self.sub(a, self.embed(const))
        return const, tail

    @property
    def characteristic(self):
        return self.base.characteristic

    def contains(self, a):
        return (
            isinstance(a, tuple)
            and len(a) == 2
            and isinstance(a[0], int)
            and isinstance(a[1], tuple)
            and len(a[1]) <= self.precision
            and all(self.base.contains(c) for c in a[1])
            and (bool(a[1]) or a[0] == 0)
        )

    def random(self, rng):
        # small offsets and short supports keep test arithmetic inside the
        # exact window (see class docstring)
        n = rng.randint(1, 4)
        return self._norm(rng.randint(-2, 2), [self.base.random(rng) for _ in range(n)])

    def to_json(self):
        return {"kind": "laurent", "base": self.base.to_json(), "prec": self.precision}

    def scalar_to_json(self, a):
        return {"nu": a[0], "coeffs": [self.base.scalar_to_json(c) for c in a[1]]}

    def scalar_from_json(self, v):
        if (
            not isinstance(v, dict)
            or set(v) != {"nu", "coeffs"}
            or isinstance(v["nu"], bool)
            or not isinstance(v["nu"], int)
            or not isinstance(v["coeffs"], list)
        ):
            raise ParseError(f"not a Laurent scalar: {v!r}")
        return self._norm(v["nu"], [self.base.scalar_from_json(c) for c in v["coeffs"]])

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and other.base == self.base
            and other.precision == self.precision
        )

    def __hash__(self):
        return hash(("laurent", self.base, self.precision))

    def __repr__(self):
        return f"{self.base!r}((t, prec={self.precision}))"


def _coerce_coeffs(F, coeffs):
    if isinstance(coeffs, Polynomial):
        if coeffs.field != F:
            raise FieldMismatch("polynomial is over a different field")
        return list(coeffs.coeffs)
    out = []
    for c in coeffs:
        if isinstance(c, int) and not F.contains(c):
            out.append(F.from_int(c))
        elif F.contains(c):
            out.append(c)
        else:
            raise FieldMismatch(f"coefficient {c!r} does not belong to {F!r}")
    return out


class Polynomial:
    """Univariate polynomial with coefficients in one of the fields above.

    Coefficients are stored low-to-high with no trailing zeros; the zero
    polynomial has an empty coefficient list and degree -1.
    """

    __slots__ = ("field", "coeffs", "var")

    def __init__(self, field, coeffs, var="t"):
        self.field = field
        self.coeffs = tuple(_ptrim(field, _coerce_coeffs(field, coeffs)))
        self.var = var

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __call__(self, a):
        return _peval(self.field, self.coeffs, a)

    def __mul__(self, other):
        self._check(other)
        return Polynomial(self.field, _pmul(self.field, self.coeffs, other.coeffs), self.var)

    def _check(self, other):
        if not isinstance(other, Polynomial) or other.field != self.field:
            raise FieldMismatch("polynomial operands over different fields")

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if self.field.is_zero(c):
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*{self.var}")
            else:
                parts.append(f"{c}*{self.var}^{i}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Irreducibility and field construction helpers
# ---------------------------------------------------------------------------


def _is_irreducible_finite(field, f):
    """Ben-Or's test: f (trimmed, of degree d >= 1) is irreducible over GF(q)
    iff gcd(f, t^(q^i) - t) = 1 for every 1 <= i <= d/2.

    A reducible f has an irreducible factor of some degree i <= d/2, and
    t^(q^i) - t is the product of all monic irreducibles of degree dividing i.
    """
    t = [field.zero(), field.one()]
    h = t
    for _ in range((len(f) - 1) // 2):
        h = _ppowmod(field, h, field.order, f)
        if len(_pgcd(field, f, _psub(field, h, t))) > 1:
            return False
    return True


def certify_irreducible(f):
    """True when f is certifiably irreducible over its field.

    Finite fields get an exact decision by Ben-Or's test.  Over the
    rationals, degree <= 3 reduces to a rational root search.  For higher
    degree, on the cleared-denominator form, a prime p < 100 not dividing the
    leading coefficient certifies f when it is an Eisenstein prime or when
    f mod p is irreducible (a factorization over QQ would reduce to one mod
    p of the same degrees, by Gauss's lemma); the absence of any such prime
    raises UnsupportedField rather than guessing.
    """
    F = f.field
    if f.degree < 1:
        return False
    if F.finite:
        return _is_irreducible_finite(F, f.coeffs)
    if isinstance(F, Rationals):
        if poly_has_root(f)[0]:
            return False
        if f.degree <= 3:
            return True
        lcm = math.lcm(*(c.denominator for c in f.coeffs))
        g = Polynomial(F, [c * lcm for c in f.coeffs])  # integer coefficients
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97):
            if g.coeffs[-1] % p == 0:
                continue
            if eisenstein_irreducible(g, p) or _is_irreducible_finite(
                PrimeField(p), [int(c) % p for c in g.coeffs]
            ):
                return True
        raise UnsupportedField(
            f"cannot certify irreducibility of degree-{f.degree} polynomial over QQ"
        )
    raise UnsupportedField(f"no irreducibility test over {F!r}")


def _iroot(n, k):
    """floor(n ** (1/k)) for n >= 1, by integer Newton iteration from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_power(q):
    """(p, k) with q = p^k and p prime; ValueError when q is not a prime power."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    # q = p^k has k <= log2(q); the largest k with an integer k-th root comes first
    for k in range(q.bit_length() - 1, 0, -1):
        p = _iroot(q, k)
        if p**k == q and is_prime(p):
            return p, k
    raise ValueError(f"{q} is not a prime power")


@lru_cache(maxsize=32)
def finite_field(q):
    """GF(q) for a prime power q, with a deterministic canonical modulus."""
    p, k = prime_power(q)
    base = PrimeField(p)
    if k == 1:
        return base
    # the first monic irreducible (one of every degree exists), counting with
    # the constant term as the most significant base-p digit; a constant
    # term 0 means a factor t, so the count starts at constant term 1
    for n in range(p ** (k - 1), p**k):
        try:
            return ExtensionField(base, [n // p ** (k - 1 - i) % p for i in range(k)] + [1])
        except ReducibleModulus:
            pass


# ---------------------------------------------------------------------------
# Root search and Eisenstein's criterion
# ---------------------------------------------------------------------------

def polynomial_roots(f):
    """All roots of f in its own field (finite fields and the rationals).

    Finite fields are searched exhaustively, q * (deg f + 1) Horner steps.
    Over the rationals the standard divisor enumeration on a
    cleared-denominator form is used; it trial-divides the constant and
    leading coefficients up to their square roots.  Either search raises
    BudgetExceeded, before it starts, when its steps exceed
    ENUMERATION_BUDGET.
    """
    F = f.field
    if f.is_zero():
        raise ValueError("root search needs a nonzero polynomial")
    if F.finite:
        if (steps := F.order * (f.degree + 1)) > ENUMERATION_BUDGET:
            raise BudgetExceeded(
                f"root scan over GF({F.order}) needs {steps} Horner steps, over budget {ENUMERATION_BUDGET}"
            )
        return [a for a in F.elements() if F.is_zero(f(a))]
    if not isinstance(F, Rationals):
        raise UnsupportedField(f"no root search over {F!r}")
    lcm = math.lcm(*(c.denominator for c in f.coeffs))
    ints = [int(c * lcm) for c in f.coeffs]
    roots = []
    k = 0
    while k < len(ints) and ints[k] == 0:
        k += 1
    if k > 0:
        roots.append(Fraction(0))
    a0, ad = ints[k], ints[-1]
    steps = math.isqrt(abs(a0)) + math.isqrt(abs(ad))
    if steps > ENUMERATION_BUDGET:
        raise BudgetExceeded(
            f"rational root search needs {steps} trial divisions, over budget {ENUMERATION_BUDGET}"
        )
    seen = set()
    for num in _divisors(a0):
        for den in _divisors(ad):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if cand in seen:
                    continue
                seen.add(cand)
                if f(cand) == 0:
                    roots.append(cand)
    return sorted(set(roots))


def poly_has_root(f):
    """(has_root, witness) for f over a finite field or the rationals."""
    roots = polynomial_roots(f)
    if roots:
        return True, roots[0]
    return False, None


def eisenstein_irreducible(f, p):
    """Eisenstein's criterion at the prime p for an integer-coefficient f over QQ."""
    if not isinstance(f.field, Rationals):
        raise UnsupportedField("Eisenstein test applies over the rationals")
    if f.degree < 1:
        raise ValueError("Eisenstein test needs degree >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ints = []
    for c in f.coeffs:
        if c.denominator != 1:
            raise NotIntegerCoefficients(f"coefficient {c} is not an integer")
        ints.append(c.numerator)
    if ints[-1] % p == 0:
        return False
    if any(c % p != 0 for c in ints[:-1]):
        return False
    return ints[0] % (p * p) != 0


# ---------------------------------------------------------------------------
# Descriptor deserialization
# ---------------------------------------------------------------------------


def field_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"not a field descriptor: {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "rationals":
            return Rationals()
        if kind == "prime":
            return PrimeField(obj["p"])
        if kind == "ext":
            base = PrimeField(obj["p"])
            return ExtensionField(base, [base.from_int(c) for c in obj["modulus"]])
        if kind == "real":
            return Reals(obj.get("tol", 1e-10))
        if kind == "laurent":
            return LaurentSeries(field_from_json(obj["base"]), obj.get("prec", 16))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"bad field descriptor {obj!r}: {exc}") from exc
    raise ParseError(f"unknown field kind {kind!r}")
