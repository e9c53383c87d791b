"""Intersection posets, Mobius functions and Poincare polynomials.

Flats are keyed by the full set of hyperplane indices containing them, so
poset order is plain set inclusion and isomorphism checks stay set-theoretic.
The Mobius function is computed by the textbook interval recursion (the
instances here are tiny), and the Poincare polynomial is the signed sum
of Mobius values by rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import (
    CentralArrangement,
    LineArrangement,
    intersection_points,
    meet_groups,
)


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial in t with integer coefficients, constant term first."""

    coeffs: tuple

    def __post_init__(self):
        cs = list(self.coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(int(c) for c in cs))

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __str__(self):
        # renders like "1 + 15t + 60t^2"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = str(abs(c)) if (i == 0 or abs(c) != 1) else ""
            var = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            terms.append((c < 0, mag + var))
        if not terms:
            return "0"
        neg, text = terms[0]
        out = ("-" if neg else "") + text
        for neg, text in terms[1:]:
            out += (" - " if neg else " + ") + text
        return out



@dataclass(frozen=True)
class Flat:
    """A nonempty intersection of hyperplanes; rank is its codimension."""

    id: int
    rank: int
    hyperplanes: frozenset


class IntersectionPoset:
    """All flats of an arrangement, ordered by reverse inclusion."""

    def __init__(self, flats):
        self.flats = tuple(flats)
        self.mobius = {}
        self._compute_mobius()

    def flats_of_rank(self, r: int):
        return tuple(f for f in self.flats if f.rank == r)

    @property
    def rank(self) -> int:
        return max((f.rank for f in self.flats), default=0)

    def _compute_mobius(self):
        # mu(V) = 1; for X > V, sum of mu over the closed lower interval is 0.
        by_rank = sorted(self.flats, key=lambda f: (f.rank, f.id))
        for x in by_rank:
            if x.rank == 0:
                self.mobius[x.id] = 1
                continue
            acc = 0
            for y in by_rank:
                if y.rank >= x.rank:
                    break
                if y.hyperplanes <= x.hyperplanes:
                    acc += self.mobius[y.id]
            self.mobius[x.id] = -acc

    def poincare_polynomial(self) -> IntPolynomial:
        coeffs = [0] * (self.rank + 1)
        for f in self.flats:
            coeffs[f.rank] += self.mobius[f.id] * (-1) ** f.rank
        return IntPolynomial(tuple(coeffs))


def _line_flats(arr: LineArrangement):
    flats = [Flat(0, 0, frozenset())]
    for i in range(len(arr.lines)):
        flats.append(Flat(len(flats), 1, frozenset([i])))
    for lines in intersection_points(arr).values():
        flats.append(Flat(len(flats), 2, lines))
    return flats


def _central_flats(arr: CentralArrangement):
    flats = [Flat(0, 0, frozenset())]
    for i in range(len(arr.planes)):
        flats.append(Flat(len(flats), 1, frozenset([i])))
    # distinct central planes always meet in a line through the origin
    for _, planes in meet_groups([pl.normal() for pl in arr.planes],
                                 affine=False):
        flats.append(Flat(len(flats), 2, planes))
    if arr.rank() == 3:
        flats.append(Flat(len(flats), 3, frozenset(range(len(arr.planes)))))
    return flats


def intersection_poset(arr) -> IntersectionPoset:
    """Enumerate all flats of a line or central arrangement, with Mobius values."""
    if isinstance(arr, CentralArrangement):
        return IntersectionPoset(_central_flats(arr))
    if isinstance(arr, LineArrangement):
        return IntersectionPoset(_line_flats(arr))
    raise TypeError(f"not an arrangement: {type(arr).__name__}")


def poincare_polynomial(arr) -> IntPolynomial:
    """pi(A, t) = sum over flats of mu(X) * (-t)^rank(X)."""
    return intersection_poset(arr).poincare_polynomial()


def _divisors(n: int):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def splits_over_integers(p: IntPolynomial):
    """Write p as a product of factors (1 + d*t) with positive integers d.

    Returns the sorted tuple of d's if such a factorization exists, else
    None.  Requires constant term 1.  Only positive d are searched: the
    polynomials of interest have nonnegative coefficients, so any integer
    linear factor has a positive root coefficient.
    """
    if p.coeff(0) != 1:
        raise ValueError("polynomial must have constant term 1")

    def peel(coeffs, max_d):
        # coeffs: constant-first, constant term 1
        deg = len(coeffs) - 1
        if deg == 0:
            return []
        # a leading coefficient <= 0 has no positive divisor: None below
        for d in reversed([d for d in _divisors(coeffs[-1]) if d <= max_d]):
            # synthetic division by (1 + d t): q_i = p_i - d * q_{i-1}
            q = [1]
            for i in range(1, deg):
                q.append(coeffs[i] - d * q[i - 1])
            if coeffs[deg] == d * q[deg - 1]:
                sub = peel(q, d)
                if sub is not None:
                    return sub + [d]
        return None

    result = peel(list(p.coeffs), max(p.coeffs[-1], 1))
    return tuple(sorted(result)) if result is not None else None
