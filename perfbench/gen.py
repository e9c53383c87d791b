"""Seeded arrangement generators and the independent Poincare oracle.

Inputs depend on the seed alone: the same (workload, seed) pair gives the
same lines in the same order, hence byte-identical arrangement files.

A scalar of Q(sqrt5) is kept here as a pair (a, b) of Fractions meaning
a + b*sqrt5.  The oracle below uses this pair arithmetic, not arrlab's
scalar module, to find the intersection points of a line arrangement and
their multiplicities.  For an affine line arrangement with n lines and
points p of multiplicity m_p the Poincare polynomial is
1 + n*t + sum_p (m_p - 1)*t^2, and coning multiplies it by (1 + t).
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))


def _sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _mul(x, y):
    if not (x[1] or y[1]):
        return (x[0] * y[0], x[1])
    return (x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _div(x, y):
    if not (x[1] or y[1]):
        return (x[0] / y[0], x[1])
    # nonzero for y != 0, since sqrt5 is irrational
    norm = y[0] * y[0] - 5 * y[1] * y[1]
    num = _mul(x, (y[0], -y[1]))
    return (num[0] / norm, num[1] / norm)


def _normalized(line):
    a, b, c = line
    pivot = a if a != ZERO else b
    return (_div(a, pivot), _div(b, pivot), _div(c, pivot))


def random_lines(rng, n: int, bound: int, golden: bool):
    """n pairwise distinct lines a*x + b*y = c, not all parallel.

    Rational coefficients are integers in [-bound, bound].  Golden ones are
    p + q*sqrt5 with p in [-bound, bound] and q in {-1, 0, 1}.
    """
    def scalar():
        return (Fraction(rng.randint(-bound, bound)),
                Fraction(rng.randint(-1, 1) if golden else 0))

    while True:
        lines, seen = [], set()
        while len(lines) < n:
            line = (scalar(), scalar(), scalar())
            if line[0] == ZERO and line[1] == ZERO:
                continue
            key = _normalized(line)
            if key not in seen:
                seen.add(key)
                lines.append(line)
        if any(_det(lines[0], ln) != ZERO for ln in lines[1:]):
            return lines


def _det(l1, l2):
    return _sub(_mul(l1[0], l2[1]), _mul(l1[1], l2[0]))


def intersection_points(lines):
    """{point: set of line indices} over all crossings of the lines."""
    points = {}
    for i, l1 in enumerate(lines):
        for j in range(i + 1, len(lines)):
            l2 = lines[j]
            det = _det(l1, l2)
            if det == ZERO:
                continue
            x = _div(_sub(_mul(l1[2], l2[1]), _mul(l2[2], l1[1])), det)
            y = _div(_sub(_mul(l1[0], l2[2]), _mul(l2[0], l1[2])), det)
            points.setdefault((x, y), set()).update((i, j))
    return points


def line_poincare(n, points):
    """Coefficients (1, n, sum (m_p - 1)) of pi for n lines crossing at
    ``points`` (as returned by intersection_points)."""
    return (1, n, sum(len(s) - 1 for s in points.values()))


def cone_poincare(coeffs):
    """pi of the cone: multiply by (1 + t)."""
    out = list(coeffs) + [0]
    for i in range(len(coeffs)):
        out[i + 1] += coeffs[i]
    return tuple(out)


def format_poly(coeffs) -> str:
    """Nonnegative coefficients as arrlab prints them: "1 + 3t + 3t^2"."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = str(c) if (i == 0 or c != 1) else ""
        terms.append(mag + ("" if i == 0 else "t" if i == 1 else f"t^{i}"))
    return " + ".join(terms)


def to_arrangement(lines, golden: bool):
    """The generated lines as an arrlab LineArrangement, in drawing order."""
    from arrlab import GOLDEN, RATIONAL, GoldenScalar, LineArrangement

    if golden:
        rows = tuple(tuple(GoldenScalar(a, b) for a, b in ln) for ln in lines)
        return LineArrangement(rows, GOLDEN)
    return LineArrangement(tuple(tuple(a for a, _ in ln) for ln in lines),
                           RATIONAL)
