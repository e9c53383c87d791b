"""Exact scalar arithmetic for the two ordered fields used by the package.

Every scalar of the geometry is a :class:`GoldenScalar`, an element of the
real quadratic field Q(sqrt5) stored as ``(p + q*sqrt(5))/d`` with ints
``p``, ``q``, ``d``, kept canonical (``d > 0``, ``gcd(p, q, d) == 1``); its
rational parts ``a = p/d`` and ``b = q/d`` are read as Fractions.  Two field
tags name what an arrangement may hold:

* ``rational`` -- the subfield Q, the scalars with ``q == 0``;
* ``golden`` -- all of Q(sqrt5).

The tag only labels files and validates values: both fields run on the same
type and the same integer code.  Weights and LP data are not geometry; they
stay ints and Fractions.

Field operations work on the three ints alone, with one gcd per result.
Signs and comparisons are decided by integer arithmetic: the sign of
``(p + q*sqrt5)/d`` is that of ``p + q*sqrt5``, found by comparing ``p*p``
against ``5*q*q`` with a case split on the signs of ``p`` and ``q``, and two
values compare through their cross-multiplied difference.  No floating
point enters any correctness path.

Scalar text syntax, shared by every file format of the package: a rational is
``p/q`` or ``p`` in ASCII digits; a golden scalar is ``p/q`` or ``p/q~r/s``,
meaning ``p/q + (r/s)*sqrt(5)``.  No whitespace inside a token.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

RATIONAL = "rational"
GOLDEN = "golden"
FIELDS = (RATIONAL, GOLDEN)

# the prime modulus of Python's numeric hash
_HASH_MODULUS = sys.hash_info.modulus


class ScalarError(ValueError):
    """Malformed scalar literal or field mismatch."""


def _sign_of_pair(a, b) -> int:
    # sign of a + b*sqrt(5), for ints a and b
    sa = 1 if a > 0 else (-1 if a < 0 else 0)
    sb = 1 if b > 0 else (-1 if b < 0 else 0)
    if sb == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb
    # a and b have strictly opposite signs; compare |a| with |b*sqrt5|.
    lhs = a * a
    rhs = 5 * b * b
    if lhs == rhs:
        # would force (a/b)^2 = 5 with rational a/b
        raise ArithmeticError("sqrt(5) cannot be rational")
    return sa if lhs > rhs else sb


def _golden(p: int, q: int, d: int) -> GoldenScalar:
    """(p + q*sqrt5)/d in canonical form, for ints with d > 0."""
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p //= g
            q //= g
            d //= g
    x = object.__new__(GoldenScalar)
    x._p = p
    x._q = q
    x._d = d
    return x


def _parts(x):
    """(p, q, d) of a golden scalar, int or Fraction; None for other types."""
    if type(x) is GoldenScalar:
        return x._p, x._q, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


class GoldenScalar:
    """An element ``a + b*sqrt(5)`` of Q(sqrt5).

    Stored as three ints ``(p, q, d)`` meaning ``(p + q*sqrt5)/d``, kept
    canonical: ``d > 0`` and ``gcd(p, q, d) == 1``.  Since sqrt(5) is
    irrational, equal values have equal triples.  The rational parts
    ``a = p/d`` and ``b = q/d`` are read-only Fractions.  Instances are
    never changed after construction; arithmetic accepts ints and
    Fractions, which embed with b = 0, and works on ints only.  The total
    order agrees with the order of the real numbers.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a=0, b=0):
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        # over the lcm of the two denominators the triple is already
        # canonical: a prime of d divides one of them to the full power,
        # so it misses the matching numerator and its cofactor
        ad, bd = a.denominator, b.denominator
        d = ad * bd // gcd(ad, bd)
        self._p = a.numerator * (d // ad)
        self._q = b.numerator * (d // bd)
        self._d = d

    @property
    def a(self) -> Fraction:
        """The rational part p/d."""
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        """The coefficient q/d of sqrt(5)."""
        return Fraction(self._q, self._d)

    # -- ring/field operations ------------------------------------------

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        p, q, d = o
        if d == self._d:
            return _golden(self._p + p, self._q + q, d)
        return _golden(self._p * d + p * self._d, self._q * d + q * self._d,
                       self._d * d)

    __radd__ = __add__

    def __neg__(self):
        return _golden(-self._p, -self._q, self._d)

    def __pos__(self):
        return self

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        p, q, d = o
        if d == self._d:
            return _golden(self._p - p, self._q - q, d)
        return _golden(self._p * d - p * self._d, self._q * d - q * self._d,
                       self._d * d)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        p, q, d = o
        return _golden(p * self._d - self._p * d, q * self._d - self._q * d,
                       self._d * d)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        p, q, d = o
        # (p + q s)(p' + q' s) = (pp' + 5qq') + (pq' + qp') s   with s^2 = 5
        return _golden(self._p * p + 5 * self._q * q,
                       self._p * q + self._q * p, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient((self._p, self._q, self._d), o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(o, (self._p, self._q, self._d))

    # -- order -----------------------------------------------------------

    def sign(self) -> int:
        return _sign_of_pair(self._p, self._q)

    def __bool__(self):
        return bool(self._p) or bool(self._q)

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return (self._p, self._q, self._d) == o

    def __hash__(self):
        if self._q:
            return hash((self._p, self._q, self._d))
        # must agree with the hash of the equal int or Fraction: Python's
        # documented rational hash, |p| / d mod P with p's sign, -1 -> -2
        p, d = self._p, self._d
        if d == 1:
            return hash(p)
        try:
            h = abs(p) % _HASH_MODULUS * pow(d, -1, _HASH_MODULUS) \
                % _HASH_MODULUS
        except ValueError:  # P divides d
            h = sys.hash_info.inf
        h = h if p >= 0 else -h
        return -2 if h == -1 else h

    def _cmp(self, other):
        # the sign of self - other, from the cross-multiplied difference;
        # None for an operand of another type
        o = _parts(other)
        if o is None:
            return None
        p, q, d = o
        if d == self._d:
            return _sign_of_pair(self._p - p, self._q - q)
        return _sign_of_pair(self._p * d - p * self._d,
                             self._q * d - q * self._d)

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __repr__(self):
        return f"GoldenScalar({self.a!r}, {self.b!r})"

    def __str__(self):
        return format_scalar(self)


def _quotient(x, y) -> GoldenScalar:
    """x / y for (p, q, d) triples x and y."""
    p, q, d = x
    yp, yq, yd = y
    # (p + q s)/d / ((yp + yq s)/yd)
    #   = yd (p + q s)(yp - yq s) / (d (yp^2 - 5 yq^2))
    n = yp * yp - 5 * yq * yq
    if n == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt5)")
    num_p = yd * (p * yp - 5 * q * yq)
    num_q = yd * (q * yp - p * yq)
    den = d * n
    if den < 0:
        return _golden(-num_p, -num_q, -den)
    return _golden(num_p, num_q, den)


#: sqrt(5) and the golden ratio (1 + sqrt5)/2.
SQRT5 = GoldenScalar(0, 1)
PHI = GoldenScalar(Fraction(1, 2), Fraction(1, 2))

# ASCII digits only: \d and int() also take other scripts' digits
_RAT_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")


def _parse_fraction(token: str) -> Fraction:
    if not _RAT_RE.match(token):
        raise ScalarError(f"bad rational literal {token!r}")
    num, _, den = token.partition("/")
    if den and int(den) == 0:
        raise ScalarError(f"zero denominator in {token!r}")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def parse_scalar(token: str, field: str) -> GoldenScalar:
    """Parse one scalar token of the given field.

    ``rational`` accepts ``p`` or ``p/q``; ``golden`` additionally accepts
    ``p/q~r/s`` for p/q + (r/s)*sqrt5.
    """
    if field not in FIELDS:
        raise ScalarError(f"unknown field {field!r}")
    rat, tilde, irr = token.partition("~")
    if tilde and field == RATIONAL:
        raise ScalarError(f"golden literal {token!r} in a rational context")
    return GoldenScalar(_parse_fraction(rat),
                        _parse_fraction(irr) if tilde else 0)


def format_scalar(x: GoldenScalar) -> str:
    """Render a scalar in the shared token syntax (round-trips via parse)."""
    if not x._q:
        return str(x.a)
    return f"{x.a}~{x.b}"


def coerce_scalar(x, field) -> GoldenScalar:
    """Bring an int, Fraction or GoldenScalar into the given field as a
    GoldenScalar; an irrational value does not fit the rational field."""
    if field not in FIELDS:
        raise ScalarError(f"unknown field {field!r}")
    if not isinstance(x, GoldenScalar):
        x = GoldenScalar(x)
    if field == RATIONAL and x._q:
        raise ScalarError("irrational value in a rational arrangement")
    return x
