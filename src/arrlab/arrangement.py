"""Central plane arrangements in 3-space and affine line arrangements.

Hyperplanes are stored in a canonical normalization (first nonzero
coefficient scaled to 1) so that equality, distinctness and lexicographic
ordering are purely syntactic.  Every coefficient is a GoldenScalar, in
either field: arrangements carry a field tag (``rational`` or ``golden``),
and on construction they coerce each coefficient to a GoldenScalar and
reject an irrational one in a rational arrangement, so both fields run on
the same integer arithmetic.

Crossing points and the axes of pairs of planes come from one integer
kernel, ``meet_groups``: each coefficient triple is cleared to int pairs
(p, q) of Z[sqrt5] over one denominator, the meet of two rows is their
cross product, and one conjugate multiplication and one gcd per pair give
a canonical int key, so a GoldenScalar is built only once per distinct
point.  The keys are sorted twice: by an int pre-order that reads each
coordinate to 64 bits, then by the exact comparator ``_key_order``, which
alone decides the order and on the nearly sorted list makes about one
comparison per point.

The module also owns the text file format::

    field rational            # or: field golden
    line 1 0 0                # a b c  for  a*x + b*y = c
    line 0 1 1/2
    # comments start with '#'; a file holds lines or planes, never both

and the deconing/coning constructions that relate the two kinds of
arrangement.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property, cmp_to_key
from math import gcd, isqrt, lcm
from types import MappingProxyType

from .scalar import (
    FIELDS,
    GOLDEN,
    RATIONAL,
    PHI,
    ScalarError,
    _golden,
    _sign_of_pair,
    coerce_scalar,
    format_scalar,
    parse_scalar,
)


class ArrangementError(ValueError):
    """Invalid arrangement data (duplicates, zero normals, bad indices)."""


class ParseError(ArrangementError):
    """Arrangement file syntax error; carries a 1-based line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def scale_first_nonzero(coeffs):
    """Scale a coefficient vector so its first nonzero entry equals 1."""
    pivot = None
    for c in coeffs:
        if c:
            pivot = c
            break
    if pivot is None:
        raise ArrangementError("zero coefficient vector")
    return tuple(c / pivot for c in coeffs)


def dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


@dataclass(frozen=True)
class AffineLine:
    """The line { (x, y) : a*x + b*y = c }, with (a, b) != (0, 0).

    Stored normalized: the first nonzero of (a, b) equals 1.
    """

    a: object
    b: object
    c: object

    def __post_init__(self):
        if not self.a and not self.b:
            raise ArrangementError("line with zero normal (a, b)")
        for name, x in zip("abc", scale_first_nonzero(self.coeffs())):
            object.__setattr__(self, name, x)

    def coeffs(self):
        return (self.a, self.b, self.c)

    def direction(self):
        """A direction vector of the line (the normal rotated by +90 deg)."""
        return (-self.b, self.a)

    def contains(self, point) -> bool:
        x, y = point
        return self.a * x + self.b * y == self.c

    def is_parallel(self, other: "AffineLine") -> bool:
        # normalized normals of parallel lines are equal
        return (self.a, self.b) == (other.a, other.b)


@dataclass(frozen=True)
class CentralPlane:
    """The plane { v : n . v = 0 } through the origin, n != 0, normalized."""

    n1: object
    n2: object
    n3: object

    def __post_init__(self):
        for name, x in zip(("n1", "n2", "n3"),
                           scale_first_nonzero(self.normal())):
            object.__setattr__(self, name, x)

    def normal(self):
        return (self.n1, self.n2, self.n3)


def _in_field(cell, cls, coeffs, field):
    """``cell`` (a ``cls`` or a coefficient triple) as a ``cls`` over
    ``field``.  A ``cls`` whose coefficients are already GoldenScalars was
    normalized in exact arithmetic, so it is kept as it is once they fit
    the field; anything else is coerced and normalized."""
    if not isinstance(cell, cls):
        return cls(*(coerce_scalar(c, field) for c in cell))
    old = coeffs(cell)
    new = tuple(coerce_scalar(c, field) for c in old)
    return cell if all(map(operator.is_, new, old)) else cls(*new)


EDGE = "edge"
DIAGONAL = "diagonal"


@dataclass(frozen=True)
class LineArrangement:
    """An ordered sequence of pairwise-distinct affine lines over one field."""

    lines: tuple
    field: str = RATIONAL

    def __post_init__(self):
        lines = tuple(_in_field(ln, AffineLine, AffineLine.coeffs, self.field)
                      for ln in self.lines)
        if len(set(lines)) != len(lines):
            raise ArrangementError("duplicate line after normalization")
        object.__setattr__(self, "lines", lines)

    def __len__(self):
        return len(self.lines)

    def canonical(self) -> "LineArrangement":
        """Copy with lines in canonical (lexicographic) order."""
        return LineArrangement(tuple(sorted(self.lines, key=AffineLine.coeffs)),
                               self.field)

    @cached_property
    def _points(self) -> MappingProxyType:
        # set on the instance dict by cached_property, which a frozen
        # dataclass allows; equality and hashing see only the fields
        return MappingProxyType(_crossings(self.lines))


def intersection_points(arr: LineArrangement) -> MappingProxyType:
    """Crossing points of a line arrangement: a read-only mapping {point:
    frozenset of the indices of the lines through it}, in sorted point
    order.

    They are computed on the first call and kept on the arrangement, so the
    poset, the cell complex and the factorization search of one command
    share them.
    """
    return arr._points


def _crossings(lines) -> dict:
    # the line a*x + b*y = c is the point (a, b, -c) of the dual plane
    meets = meet_groups([(ln.a, ln.b, -ln.c) for ln in lines], affine=True)
    return {(_golden(k[0], k[1], k[6]), _golden(k[2], k[3], k[6])): on
            for k, on in meets}


def _cleared(row):
    """A triple of GoldenScalars times the lcm of its denominators, as six
    ints: the (p, q) pair of Z[sqrt5] of each entry."""
    d = lcm(row[0]._d, row[1]._d, row[2]._d)
    return tuple(v for x in row for v in (x._p * (d // x._d),
                                          x._q * (d // x._d)))


def _key_order(u, v) -> int:
    # the sign of u - v for meet keys, coordinate by coordinate: each is
    # (p + q*sqrt5)/n, compared through the cross-multiplied difference
    m, n = u[6], v[6]
    for i in (0, 2, 4):
        p = u[i] * n - v[i] * m
        q = u[i + 1] * n - v[i + 1] * m
        if q:
            return _sign_of_pair(p, q)
        if p:
            break
    return (p > 0) - (p < 0)


# the pre-order below reads each coordinate to 64 bits, with sqrt5 rounded
# down to _ROOT5 / 2^64
_BITS = 64
_ROOT5 = isqrt(5 << 2 * _BITS)


def _preorder_key(key):
    # each coordinate (p + q*sqrt5)/n of a meet key as the int
    # floor((p*2^64 + q*_ROOT5)/n); n > 0
    xp, xq, yp, yq, zp, zq, n = key
    return (((xp << _BITS) + xq * _ROOT5) // n,
            ((yp << _BITS) + yq * _ROOT5) // n,
            ((zp << _BITS) + zq * _ROOT5) // n)


def meet_groups(rows, affine: bool) -> list:
    """The meets of pairs of rows of P^2, grouped by meet point.

    ``rows`` are coefficient triples of GoldenScalars; the meet of two rows
    is their cross product (x, y, z), found on ints alone.  Each row is
    cleared to int pairs (p, q) of Z[sqrt5] over one denominator.  The meet
    is normalized by one coordinate w: z when ``affine`` (a pair with
    z = 0 meets at infinity and is skipped), else the first nonzero one.
    Multiplying by the conjugate of w turns w into the int n = w*w'; one
    gcd and the sign of n then make the key canonical, so equal points
    have equal keys.  A key is seven ints (xp, xq, yp, yq, zp, zq, n)
    standing for the point ((xp + xq*sqrt5)/n, ...), whose w coordinate
    is 1.

    Returns [(key, frozenset of the indices of the rows through the
    point)], sorted by the points' coordinates in the order of the reals.

    The sort has two passes.  ``_preorder_key`` first sorts the keys by the
    ints floor((p*2^64 + q*floor(sqrt5*2^64))/n), one per coordinate:
    ints of any size, so no overflow and no NaN, but points closer than
    about (|q|/n + 1) * 2^-64 may tie or come out of order.  The sort by the
    exact comparator ``_key_order`` then starts from that nearly sorted
    list, and Timsort needs about one comparison per point.  Distinct keys
    are distinct points, so ``_key_order`` is a strict total order on them
    and the second sort returns the same list from any starting order: the
    pre-order changes only the number of comparisons.
    """
    rows = [_cleared(row) for row in rows]
    groups = {}
    for i, (ap, aq, bp, bq, cp, cq) in enumerate(rows):
        for j in range(i + 1, len(rows)):
            dp, dq, ep, eq, fp, fq = rows[j]
            # (x, y, z) = (b f - c e, c d - a f, a e - b d), with s^2 = 5
            zp = ap * ep + 5 * aq * eq - bp * dp - 5 * bq * dq
            zq = ap * eq + aq * ep - bp * dq - bq * dp
            if affine and not (zp or zq):
                continue  # parallel lines
            xp = bp * fp + 5 * bq * fq - cp * ep - 5 * cq * eq
            xq = bp * fq + bq * fp - cp * eq - cq * ep
            yp = cp * dp + 5 * cq * dq - ap * fp - 5 * aq * fq
            yq = cp * dq + cq * dp - ap * fq - aq * fp
            if affine:
                wp, wq = zp, zq
            elif xp or xq:
                wp, wq = xp, xq
            elif yp or yq:
                wp, wq = yp, yq
            else:
                wp, wq = zp, zq
            if wq:
                # times w' = wp - wq*s, so that w becomes n = w*w'
                n = wp * wp - 5 * wq * wq
                xp, xq = xp * wp - 5 * xq * wq, xq * wp - xp * wq
                yp, yq = yp * wp - 5 * yq * wq, yq * wp - yp * wq
                zp, zq = zp * wp - 5 * zq * wq, zq * wp - zp * wq
            else:
                n = wp
            g = gcd(xp, xq, yp, yq, zp, zq)
            if n < 0:
                g = -g
            key = (xp // g, xq // g, yp // g, yq // g, zp // g, zq // g,
                   n // g)
            groups.setdefault(key, set()).update((i, j))
    keys = sorted(groups, key=_preorder_key)
    keys.sort(key=cmp_to_key(_key_order))
    return [(key, frozenset(groups[key])) for key in keys]


@dataclass(frozen=True)
class CentralArrangement:
    """Pairwise-distinct planes through the origin, with optional class labels."""

    planes: tuple
    field: str = RATIONAL
    labels: tuple = dc_field(default=())

    def __post_init__(self):
        planes = tuple(
            _in_field(pl, CentralPlane, CentralPlane.normal, self.field)
            for pl in self.planes)
        if len(set(planes)) != len(planes):
            raise ArrangementError("duplicate plane after normalization")
        labels = tuple(self.labels) if self.labels else (None,) * len(planes)
        if len(labels) != len(planes):
            raise ArrangementError("label count does not match plane count")
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.planes)

    def rank(self) -> int:
        """Distinct planes have independent normals, so two span rank 2 and
        a third raises it to 3 unless it lies in their pencil."""
        if len(self.planes) < 3:
            return len(self.planes)
        axis = cross3(self.planes[0].normal(), self.planes[1].normal())
        return 3 if any(dot3(axis, pl.normal())
                        for pl in self.planes[2:]) else 2

    def canonical(self) -> "CentralArrangement":
        order = sorted(range(len(self.planes)),
                       key=lambda i: self.planes[i].normal())
        return CentralArrangement(tuple(self.planes[i] for i in order),
                                  self.field,
                                  tuple(self.labels[i] for i in order))


def build_icosidodecahedral() -> CentralArrangement:
    """The 16-plane icosidodecahedral arrangement over Q(sqrt5).

    Six edge planes, normal to the five-fold vertex axes of the icosahedron
    (sign classes of (0, 1, phi) and its cyclic shifts), and ten diagonal
    planes: the four sign classes of (1, 1, 1) plus the cyclic shifts of
    (phi^2, +-1, 0).  With icosahedron vertices at the cyclic shifts of
    (0, +-1, +-phi), a pentagon diagonal such as the one from (0, 0, 2*phi)
    to (1, phi^2, phi) spans a central plane with normal (phi^2, -1, 0),
    and each such plane meets the solid in a hexagon of six diagonals.
    The construction is pinned by the Poincare polynomial
    1 + 16t + 75t^2 + 60t^3 in the test suite.
    """
    phi = PHI
    phi2 = PHI * PHI
    edge_normals = []
    for s in (1, -1):
        edge_normals.append((0, s, phi))
        edge_normals.append((s, phi, 0))
        edge_normals.append((phi, 0, s))
    diagonal_normals = [
        (1, 1, 1),
        (1, 1, -1),
        (1, -1, 1),
        (-1, 1, 1),
    ]
    for s in (1, -1):
        diagonal_normals.append((phi2, s, 0))
        diagonal_normals.append((0, phi2, s))
        diagonal_normals.append((s, 0, phi2))
    labels = [EDGE] * len(edge_normals) + [DIAGONAL] * len(diagonal_normals)
    return CentralArrangement(tuple(edge_normals + diagonal_normals), GOLDEN,
                              tuple(labels)).canonical()


def default_decone_index(arr: CentralArrangement) -> int:
    """First edge-labeled plane if any, else plane 0."""
    for i, lab in enumerate(arr.labels):
        if lab == EDGE:
            return i
    return 0


def decone(arr: CentralArrangement, index: int) -> LineArrangement:
    """Slice a rank-3 central arrangement by an affine plane.

    A deterministic linear change of coordinates sends plane ``index`` to
    {z = 0}; the remaining planes are intersected with {z = 1}, giving
    ``len(arr) - 1`` affine lines in canonical order.
    """
    if not 0 <= index < len(arr.planes):
        raise ArrangementError(f"decone index {index} out of range")
    if arr.rank() != 3:
        raise ArrangementError("decone requires a rank-3 arrangement")
    n = arr.planes[index].normal()
    k = next(i for i in range(3) if n[i])
    i0, i1 = (i for i in range(3) if i != k)
    # Basis: u_i = e_i - (n_i / n_k) e_k for i = i0, i1 span the chosen
    # plane (Gaussian elimination along e_k), completed by e_k; plane m
    # meets z = 1 in the line (m . u_i0) x + (m . u_i1) y = -(m . e_k).
    lines = []
    for j, pl in enumerate(arr.planes):
        if j == index:
            continue
        m = pl.normal()
        t = m[k] / n[k]
        # (a, b) != 0: the planes are distinct
        lines.append(AffineLine(m[i0] - t * n[i0], m[i1] - t * n[i1], -m[k]))
    return LineArrangement(tuple(lines), arr.field).canonical()


def cone(arr: LineArrangement) -> CentralArrangement:
    """Homogenize a line arrangement: a*x + b*y = c becomes a*x + b*y - c*z = 0,
    and the plane z = 0 is appended."""
    planes = [(ln.a, ln.b, -ln.c) for ln in arr.lines]
    planes.append((0, 0, 1))
    return CentralArrangement(tuple(planes), arr.field)


# -- file format -------------------------------------------------------------

def parse_arrangement(text: str):
    """Parse the arrangement file format; returns a LineArrangement or a
    CentralArrangement (exactly one kind of row may appear)."""
    field = None
    kind = None
    cells = {}  # cell -> the number of the line that gave it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if field is None:
            if len(tokens) != 2 or tokens[0] != "field":
                raise ParseError("expected 'field rational' or 'field golden'",
                                 lineno)
            if tokens[1] not in FIELDS:
                raise ParseError(f"unknown field {tokens[1]!r}", lineno)
            field = tokens[1]
            continue
        if tokens[0] not in ("line", "plane"):
            raise ParseError(f"expected 'line' or 'plane', got {tokens[0]!r}",
                             lineno)
        if kind is None:
            kind = tokens[0]
        elif tokens[0] != kind:
            raise ParseError("cannot mix 'line' and 'plane' rows", lineno)
        if len(tokens) != 4:
            raise ParseError(f"expected 3 coefficients, got {len(tokens) - 1}",
                             lineno)
        try:
            cell = (CentralPlane if kind == "plane" else AffineLine)(
                *(parse_scalar(t, field) for t in tokens[1:]))
        except (ScalarError, ArrangementError) as exc:
            raise ParseError(str(exc), lineno) from exc
        if cell in cells:
            raise ParseError(f"duplicate {kind} (after normalization)",
                             lineno)
        cells[cell] = lineno
    if field is None:
        raise ParseError("empty arrangement file", 1)
    cells = tuple(cells)
    if kind == "plane":
        return CentralArrangement(cells, field)
    return LineArrangement(cells, field)


def serialize_arrangement(arr) -> str:
    """Inverse of parse_arrangement up to canonical normalization."""
    out = [f"field {arr.field}"]
    if isinstance(arr, CentralArrangement):
        for pl in arr.planes:
            out.append("plane " + " ".join(format_scalar(c) for c in pl.normal()))
    else:
        for ln in arr.lines:
            out.append("line " + " ".join(format_scalar(c) for c in ln.coeffs()))
    return "\n".join(out) + "\n"


# -- builtin arrangements ----------------------------------------------------

_A3_NORMALS = ((1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1),
               (0, 1, -1))
_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _boolean2() -> LineArrangement:
    return LineArrangement(((1, 0, 0), (0, 1, 0)), RATIONAL)


def _generic3() -> LineArrangement:
    return LineArrangement(((1, 0, 0), (0, 1, 0), (1, 1, 1)), RATIONAL)


def _boolean3() -> CentralArrangement:
    return CentralArrangement(_AXES, RATIONAL)


def _a3() -> CentralArrangement:
    """Reflection arrangement of type A3: x +- y, x +- z, y +- z; pi =
    (1 + t)(1 + 2t)(1 + 3t)."""
    return CentralArrangement(_A3_NORMALS, RATIONAL)


def _b3() -> CentralArrangement:
    """Type B3: A3 followed by the three coordinate planes; pi =
    (1 + t)(1 + 3t)(1 + 5t).  It is deconed at plane 0, x + y = 0, whose
    section has a symmetry group of order 4; at a coordinate plane the
    group has order 8."""
    return CentralArrangement(_A3_NORMALS + _AXES, RATIONAL)


def _h3() -> CentralArrangement:
    """Type H3 over Q(sqrt5): the three coordinate planes followed by the
    12 cyclic sign variants of (1, phi, phi^2); pi = (1 + t)(1 + 5t)(1 + 9t).
    """
    normals = list(_AXES)
    for s in (1, -1):
        for t in (1, -1):
            a, b, c = 1, s * PHI, t * PHI * PHI
            normals += [(a, b, c), (b, c, a), (c, a, b)]
    return CentralArrangement(tuple(normals), GOLDEN)


BUILTINS = {
    "icosidodecahedral": build_icosidodecahedral,
    "boolean2": _boolean2,
    "boolean3": _boolean3,
    "generic3": _generic3,
    "A3": _a3,
    "B3": _b3,
    "H3": _h3,
}


def builtin(name: str):
    try:
        return BUILTINS[name]()
    except KeyError:
        raise ArrangementError(f"unknown builtin arrangement @{name}") from None
