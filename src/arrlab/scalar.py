"""Exact scalar arithmetic for the two ordered fields used by the package.

All geometry here is generic over an exact totally ordered field.  Two fields
are supported:

* ``rational`` -- plain rationals, represented by :class:`fractions.Fraction`
  (always in lowest terms, positive denominator).
* ``golden`` -- the real quadratic field Q(sqrt5), represented by
  :class:`GoldenScalar` as ``a + b*sqrt(5)`` with rational ``a``, ``b``.

Signs and comparisons are decided purely by rational arithmetic (for
``a + b*sqrt5`` by comparing ``a*a`` against ``5*b*b`` with a case split on
the signs of ``a`` and ``b``); no floating point enters any correctness path.

Scalar text syntax, shared by every file format of the package: a rational is
``p/q`` or ``p`` in ASCII digits; a golden scalar is ``p/q`` or ``p/q~r/s``,
meaning ``p/q + (r/s)*sqrt(5)``.  No whitespace inside a token.
"""

from __future__ import annotations

import re
from fractions import Fraction

RATIONAL = "rational"
GOLDEN = "golden"
FIELDS = (RATIONAL, GOLDEN)

class ScalarError(ValueError):
    """Malformed scalar literal or field mismatch."""


def sign(x) -> int:
    """Exact sign of a scalar: -1, 0 or +1."""
    if isinstance(x, GoldenScalar):
        return x.sign()
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def _sign_of_pair(a: Fraction, b: Fraction) -> int:
    # sign of a + b*sqrt(5)
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


class GoldenScalar:
    """An element ``a + b*sqrt(5)`` of Q(sqrt5).

    The pair (a, b) determines the value uniquely since sqrt(5) is irrational.
    Instances are immutable after construction; arithmetic accepts ints and
    Fractions, which embed with b = 0.  The total order agrees with the order
    of the real numbers.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    @classmethod
    def _lift(cls, x):
        if isinstance(x, GoldenScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x, 0)
        return None

    # -- ring/field operations ------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GoldenScalar(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return GoldenScalar(-self.a, -self.b)

    def __pos__(self):
        return self

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GoldenScalar(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GoldenScalar(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        # (a + b s)(c + d s) = (ac + 5bd) + (ad + bc) s   with s^2 = 5
        return GoldenScalar(self.a * o.a + 5 * self.b * o.b,
                            self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> GoldenScalar:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        return GoldenScalar(self.a / n, -self.b / n)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = GoldenScalar(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def norm(self) -> Fraction:
        """Field norm a^2 - 5 b^2 (a rational)."""
        return self.a * self.a - 5 * self.b * self.b

    # -- order -----------------------------------------------------------

    def sign(self) -> int:
        return _sign_of_pair(self.a, self.b)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # must agree with Fraction's hash when the value is rational
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b, "sqrt5"))

    def __lt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _sign_of_pair(self.a - o.a, self.b - o.b) < 0

    def __le__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _sign_of_pair(self.a - o.a, self.b - o.b) <= 0

    def __gt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _sign_of_pair(self.a - o.a, self.b - o.b) > 0

    def __ge__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _sign_of_pair(self.a - o.a, self.b - o.b) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __repr__(self):
        return f"GoldenScalar({self.a!r}, {self.b!r})"

    def __str__(self):
        return format_scalar(self)


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


def parse_scalar(token: str, field: str):
    """Parse one scalar token of the given field.

    ``rational`` accepts ``p`` or ``p/q``; ``golden`` additionally accepts
    ``p/q~r/s`` for p/q + (r/s)*sqrt5.
    """
    if field == RATIONAL:
        if "~" in token:
            raise ScalarError(f"golden literal {token!r} in a rational context")
        return _parse_fraction(token)
    if field == GOLDEN:
        rat, tilde, irr = token.partition("~")
        a = _parse_fraction(rat)
        b = _parse_fraction(irr) if tilde else Fraction(0)
        return GoldenScalar(a, b)
    raise ScalarError(f"unknown field {field!r}")


def format_scalar(x) -> str:
    """Render a scalar in the shared token syntax (round-trips via parse)."""
    if isinstance(x, GoldenScalar):
        if not x.b:
            return str(x.a)
        return f"{x.a}~{x.b}"
    return str(Fraction(x))


def coerce_scalar(x, field):
    """Bring x into the given field, rejecting values that do not fit."""
    if field == RATIONAL:
        if isinstance(x, GoldenScalar):
            if x.b:
                raise ScalarError("irrational value in a rational arrangement")
            return x.a
        return x if isinstance(x, Fraction) else Fraction(x)
    if field == GOLDEN:
        if isinstance(x, GoldenScalar):
            return x
        return GoldenScalar(x, 0)
    raise ScalarError(f"unknown field {field!r}")
