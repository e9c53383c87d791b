"""Deterministic SVG rendering of line arrangements.

Exactness discipline: all geometry (clipping, centroids, annotation anchors)
is computed exactly in GoldenScalars; scalars are converted to 12
significant decimal digits only when written into the document, by one
correctly rounded decimal division (sqrt5 is substituted by a 40-digit
rational approximation).  Nothing rendered here flows back into any
computation.  The vertices are the crossing points of
``intersection_points``, found from int pairs of Z[sqrt5] with one gcd per
pair of lines; each vertex's coordinates are formatted once per render and
reused by every bounded face and edge through it.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from math import isqrt

from .arrangement import LineArrangement
from .cells import build_complex, bounded_complex
from .falk import check_corners
from .scalar import GoldenScalar

# sqrt5 ~ _SQRT5_NUM / _SQRT5_SCALE, rounded down to 40 decimals
_SQRT5_SCALE = 10 ** 40
_SQRT5_NUM = isqrt(5 * _SQRT5_SCALE ** 2)
_DIGITS = Context(prec=12, rounding=ROUND_HALF_EVEN)


def _approximation(x: GoldenScalar):
    """Numerator and denominator of x with sqrt5 ~ N/S: (p + q*sqrt5)/d
    becomes (p*S + q*N) / (d*S)."""
    return (x._p * _SQRT5_SCALE + x._q * _SQRT5_NUM, x._d * _SQRT5_SCALE)


def decimal_str(x: GoldenScalar) -> str:
    """Plain decimal expansion of a scalar to 12 significant digits."""
    num, den = _approximation(x)
    if num == 0:
        return "0"
    d = _DIGITS.divide(Decimal(num), Decimal(den))
    return format(d.normalize(_DIGITS), "f")


def _bbox(complex_, arr):
    """Bounding box of the vertices, padded 20 percent per side; falls back
    to a box around line anchor points when there are no vertices."""
    pts = [v.point for v in complex_.vertices]
    if not pts:
        for ln in arr.lines:
            # foot of the perpendicular from the origin
            d = ln.a * ln.a + ln.b * ln.b
            pts.append((ln.a * ln.c / d, ln.b * ln.c / d))
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    wx = xmax - xmin
    wy = ymax - ymin
    pad_x = wx / 5 if wx else 1
    pad_y = wy / 5 if wy else 1
    return xmin - pad_x, xmax + pad_x, ymin - pad_y, ymax + pad_y


def _clip_line(ln, box):
    """Exact clip of a full line to the box.

    Every line crosses the box: through a vertex, which the box contains,
    or, when no two lines meet, through its own anchor point."""
    xmin, xmax, ymin, ymax = box
    if ln.b:
        p0 = (xmin, (ln.c - ln.a * xmin) / ln.b)
    else:
        p0 = (ln.c / ln.a, ymin)
    dx, dy = ln.direction()
    spans = [sorted(((vmin - coord) / d, (vmax - coord) / d))
             for coord, d, vmin, vmax in ((p0[0], dx, xmin, xmax),
                                          (p0[1], dy, ymin, ymax))
             if d]
    lo = max(t1 for t1, _ in spans)
    hi = min(t2 for _, t2 in spans)
    a = (p0[0] + lo * dx, p0[1] + lo * dy)
    b = (p0[0] + hi * dx, p0[1] + hi * dy)
    return a, b


def _xy(point) -> str:
    # SVG y axis points down; mirror so the picture matches the plane
    return f'{decimal_str(point[0])},{decimal_str(-point[1])}'


def render_svg(arr: LineArrangement, *, gamma: bool = False,
               weights=None) -> str:
    """SVG 1.1 document for a line arrangement.

    With ``gamma`` the bounded complex is emphasized: bounded faces get a
    light fill and bounded edges a bold stroke.  ``weights`` annotates each
    corner with its value, anchored 30 percent of the way from the vertex
    toward the face centroid.
    """
    if len(arr.lines) == 0:
        check_corners((), weights or {})
        return ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                'viewBox="0 0 200 40">\n'
                '<text x="10" y="25" font-size="12">empty arrangement'
                '</text>\n</svg>\n')
    cx = build_complex(arr)
    box = _bbox(cx, arr)
    xmin, xmax, ymin, ymax = box
    vb = (f'{decimal_str(xmin)} {decimal_str(-ymax)} '
          f'{decimal_str(xmax - xmin)} {decimal_str(ymax - ymin)}')
    stroke = decimal_str((xmax - xmin) / 300)
    bold = decimal_str((xmax - xmin) * 3 / 300)
    fontsize = decimal_str((xmax - xmin) / 40)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'viewBox="{vb}">']
    gam = bounded_complex(cx) if (gamma or weights is not None) else None
    if gamma:
        # formatted once, written for every face and edge through it
        xy = [_xy(v.point) for v in cx.vertices]
        for f in gam.faces:
            pts = " ".join(xy[v] for v in f.vertex_ids)
            parts.append(f'<polygon points="{pts}" fill="#c8d8f0" '
                         f'stroke="none"/>')
    for ln in arr.lines:
        (x1, y1), (x2, y2) = _clip_line(ln, box)
        parts.append(f'<line x1="{decimal_str(x1)}" y1="{decimal_str(-y1)}" '
                     f'x2="{decimal_str(x2)}" y2="{decimal_str(-y2)}" '
                     f'stroke="#404040" stroke-width="{stroke}"/>')
    if gamma:
        # bounded edges as <path> so that <line> elements remain one per
        # arrangement line
        for e in gam.edges:
            parts.append(f'<path d="M {xy[e.v0]} L {xy[e.v1]}" '
                         f'stroke="#000000" stroke-width="{bold}" '
                         f'fill="none"/>')
    if weights is not None:
        check_corners(gam.corners, weights)
        for c in gam.corners:
            v = cx.vertices[c.vertex].point
            f = gam.faces[c.face]
            k = len(f.vertex_ids)
            centx = sum(cx.vertices[w].point[0] for w in f.vertex_ids) / k
            centy = sum(cx.vertices[w].point[1] for w in f.vertex_ids) / k
            ax = v[0] + (centx - v[0]) * 3 / 10
            ay = v[1] + (centy - v[1]) * 3 / 10
            label = str(Fraction(weights[c]))
            parts.append(f'<text x="{decimal_str(ax)}" '
                         f'y="{decimal_str(-ay)}" font-size="{fontsize}" '
                         f'text-anchor="middle">{label}</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
